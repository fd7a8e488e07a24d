"""OSPF-style shortest-path routing over a PID-level topology.

The optimization framework needs, for every ordered PID pair ``(i, j)``:

* the route, as a sequence of links;
* the indicator ``I_e(i, j)`` -- whether link ``e`` lies on the route;
* the end-to-end distance ``d_ij = sum(d_e for e on the route)``.

Routes are computed with Dijkstra over OSPF weights.  Ties are broken
deterministically (lexicographically smallest predecessor PID) so that
repeated runs -- and therefore simulations and benchmarks -- are reproducible.

:meth:`RoutingTable.hop_index` lays the routes of a full PID mesh out as
arrays (:class:`RouteHopIndex`), so that summing a per-link quantity over
every route is a handful of array gathers instead of a loop over pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.topology import Link, Topology

LinkKey = Tuple[str, str]


class NoRouteError(Exception):
    """Raised when the topology has no path between two PIDs."""

    def __init__(self, src: str, dst: str) -> None:
        super().__init__(f"no route from {src!r} to {dst!r}")
        self.src = src
        self.dst = dst


@dataclass(frozen=True, eq=False)
class RouteHopIndex:
    """The routes of a full PID mesh as arrays.

    ``pairs`` runs per source: the diagonal ``(src, src)`` first, then
    every other PID in ``pids`` order -- the layout of the external
    view.  ``hops[h, k]`` is the position in ``links`` of the ``h``-th
    link on the route of ``pairs[k]``; routes shorter than the longest
    (and the diagonal, which has none) are padded with ``len(links)``,
    a slot the caller prices at zero.
    """

    pids: Tuple[str, ...]
    pairs: Tuple[Tuple[str, str], ...]
    links: Tuple[LinkKey, ...]
    hops: np.ndarray

    @property
    def diagonal(self) -> range:
        """Positions of the ``(src, src)`` pairs in ``pairs``."""
        n = len(self.pids)
        return range(0, n * n, n or 1)


@dataclass
class RoutingTable:
    """All-pairs shortest-path routes for one topology.

    The table is immutable with respect to the topology snapshot it was built
    from; rebuild it after changing OSPF weights or the link set.
    """

    topology: Topology
    _routes: Dict[Tuple[str, str], Tuple[LinkKey, ...]] = field(default_factory=dict)
    _distance: Dict[Tuple[str, str], float] = field(default_factory=dict)
    _hop_index: Optional[RouteHopIndex] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def build(cls, topology: Topology) -> "RoutingTable":
        table = cls(topology=topology)
        for src in topology.nodes:
            table._run_dijkstra(src)
        return table

    def _run_dijkstra(self, src: str) -> None:
        topo = self.topology
        dist: Dict[str, float] = {src: 0.0}
        prev: Dict[str, LinkKey] = {}
        visited = set()
        heap: List[Tuple[float, str]] = [(0.0, src)]
        while heap:
            d, pid = heapq.heappop(heap)
            if pid in visited:
                continue
            visited.add(pid)
            for link in topo.out_links(pid):
                cand = d + link.ospf_weight
                current = dist.get(link.dst)
                if (
                    current is None
                    or cand < current - 1e-12
                    or (abs(cand - current) <= 1e-12 and link.src < prev[link.dst][0])
                ):
                    dist[link.dst] = cand
                    prev[link.dst] = link.key
                    heapq.heappush(heap, (cand, link.dst))
        for dst in visited:
            if dst == src:
                self._routes[(src, dst)] = ()
                self._distance[(src, dst)] = 0.0
                continue
            hops: List[LinkKey] = []
            at = dst
            while at != src:
                key = prev[at]
                hops.append(key)
                at = key[0]
            hops.reverse()
            self._routes[(src, dst)] = tuple(hops)
            self._distance[(src, dst)] = sum(
                topo.links[key].distance for key in hops
            )

    # -- queries -----------------------------------------------------------

    def route(self, src: str, dst: str) -> Tuple[LinkKey, ...]:
        """The sequence of link keys from ``src`` to ``dst``.

        Raises :class:`NoRouteError` when the pair is disconnected.
        """
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise NoRouteError(src, dst) from None

    def route_links(self, src: str, dst: str) -> List[Link]:
        return [self.topology.links[key] for key in self.route(src, dst)]

    def has_route(self, src: str, dst: str) -> bool:
        return (src, dst) in self._routes

    def distance(self, src: str, dst: str) -> float:
        """End-to-end distance ``d_ij`` (sum of link distances on the route)."""
        try:
            return self._distance[(src, dst)]
        except KeyError:
            raise NoRouteError(src, dst) from None

    def hop_count(self, src: str, dst: str) -> int:
        """Number of backbone links on the route."""
        return len(self.route(src, dst))

    def path_pids(self, src: str, dst: str) -> List[str]:
        """PIDs visited along the route, endpoints included."""
        pids = [src]
        for _, hop_dst in self.route(src, dst):
            pids.append(hop_dst)
        return pids

    def hop_index(self, pids: Sequence[str]) -> RouteHopIndex:
        """The :class:`RouteHopIndex` of the full mesh over ``pids``.

        Built on first use and kept for the most recent ``pids`` (the
        table never changes, so neither does the index).  Raises
        :class:`NoRouteError` when any pair is disconnected.
        """
        pids = tuple(pids)
        index = self._hop_index
        if index is not None and index.pids == pids:
            return index
        pairs: List[Tuple[str, str]] = []
        routes: List[Tuple[LinkKey, ...]] = []
        for src in pids:
            pairs.append((src, src))
            routes.append(())
            for dst in pids:
                if dst != src:
                    pair = (src, dst)
                    route = self._routes.get(pair)
                    if route is None:
                        raise NoRouteError(src, dst)
                    pairs.append(pair)
                    routes.append(route)
        hop_keys = list(chain.from_iterable(routes))
        links = tuple(dict.fromkeys(hop_keys))
        position = {key: slot for slot, key in enumerate(links)}
        lengths = np.fromiter(map(len, routes), np.intp, len(routes))
        hops = np.full(
            (int(lengths.max(initial=0)), len(routes)), len(links), dtype=np.intp
        )
        # The h-th hop of route k: row h, column k.
        rows = np.arange(len(hop_keys)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        columns = np.repeat(np.arange(len(routes)), lengths)
        hops[rows, columns] = np.fromiter(
            map(position.__getitem__, hop_keys), np.intp, len(hop_keys)
        )
        index = RouteHopIndex(pids=pids, pairs=tuple(pairs), links=links, hops=hops)
        self._hop_index = index
        return index
