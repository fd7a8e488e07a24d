"""The p4p-distance interface: internal and external views, PID mapping.

The interface has two views (Sec. 4):

* the **internal view**, seen only by the iTracker: the PID-level topology
  with a price ``p_e`` on every link;
* the **external view**, seen by applications: a full mesh of p-distances
  ``p_ij`` between externally visible PIDs, where
  ``p_ij = sum(p_e for e on route(i, j))`` (plus any per-link cost offset
  such as the distance ``d_e`` under the bandwidth-distance-product
  objective).

The external view is computed as one float64 vector over the full mesh
(:func:`mesh_values`); :class:`PDistanceMap` is its per-pair dict form
(:func:`mesh_view`), built for whoever asks for one.

The module also provides the IP -> PID mapping clients use on start-up, the
optional privacy perturbation, and the coarse "ranks" degradation of the
interface discussed in the ISP use cases.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.routing import RouteHopIndex, RoutingTable
from repro.network.topology import Topology

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class PDistanceMap:
    """The external view: p-distances over ordered pairs of visible PIDs.

    Distances are non-negative; ``p_ii`` (intra-PID) defaults to 0 unless the
    provider deliberately raises it (e.g. the UK DSL example of Sec. 8 where
    local transfers are *more* expensive than transit).
    """

    pids: Tuple[str, ...]
    distances: Mapping[Tuple[str, str], float]

    def __post_init__(self) -> None:
        pid_set = set(self.pids)
        for (src, dst), value in self.distances.items():
            if src not in pid_set or dst not in pid_set:
                raise ValueError(f"distance for unknown pair ({src}, {dst})")
            if value < 0:
                raise ValueError(f"negative p-distance for ({src}, {dst})")

    def distance(self, src: str, dst: str) -> float:
        """``p_ij``; intra-PID distance defaults to 0 when unset."""
        if src == dst:
            return self.distances.get((src, dst), 0.0)
        return self.distances[(src, dst)]

    def row(self, src: str) -> Dict[str, float]:
        """Distances from ``src`` to every other visible PID."""
        return {
            dst: self.distance(src, dst) for dst in self.pids if dst != src
        }

    def to_ranks(self) -> "PDistanceMap":
        """Degrade to the 'coarsest level' of Sec. 4: per-source ranks.

        For every source PID the destinations are ranked by increasing
        p-distance: most preferred gets 1, next 2, and so on.  Equal
        distances share a rank (competition ranking).
        """
        ranked: Dict[Tuple[str, str], float] = {}
        for src in self.pids:
            row = sorted(self.row(src).items(), key=lambda item: item[1])
            rank = 0
            previous: Optional[float] = None
            for position, (dst, value) in enumerate(row, start=1):
                if previous is None or value > previous + 1e-12:
                    rank = position
                    previous = value
                ranked[(src, dst)] = float(rank)
        return PDistanceMap(pids=self.pids, distances=ranked)

    def perturbed(self, relative_noise: float, seed: int = 0) -> "PDistanceMap":
        """Privacy perturbation: multiplicative uniform noise per pair.

        An iTracker "may perturb the distances to enhance privacy"; noise is
        bounded so preference ordering is mostly preserved for distances that
        differ by more than ``2 * relative_noise``.
        """
        if not 0.0 <= relative_noise < 1.0:
            raise ValueError("relative_noise must be in [0, 1)")
        rng = random.Random(seed)
        noisy = {
            pair: value * (1.0 + rng.uniform(-relative_noise, relative_noise))
            for pair, value in self.distances.items()
        }
        return PDistanceMap(pids=self.pids, distances=noisy)

    def restricted_to(self, pids: Sequence[str]) -> "PDistanceMap":
        """Sub-map over a subset of PIDs (an application's swarm footprint)."""
        requested = set(pids)
        keep = [pid for pid in self.pids if pid in requested]
        kept = set(keep)
        sub = {
            pair: value
            for pair, value in self.distances.items()
            if pair[0] in kept and pair[1] in kept
        }
        return PDistanceMap(pids=tuple(keep), distances=sub)


def external_view(
    topology: Topology,
    routing: RoutingTable,
    link_prices: Mapping[LinkKey, float],
    cost_offsets: Optional[Mapping[LinkKey, float]] = None,
    intra_pid_distance: float = 0.0,
) -> PDistanceMap:
    """Aggregate per-link prices into the full-mesh external view.

    Args:
        topology: The internal view.
        routing: Routing table for the topology snapshot.
        link_prices: ``p_e`` per link key; missing links price 0.
        cost_offsets: Optional additive per-link costs (e.g. ``d_e`` for the
            BDP objective, yielding ``p_e + d_e`` per eq. 15).
        intra_pid_distance: ``p_ii`` reported for every visible PID.

    The :class:`PDistanceMap` form of :func:`mesh_values` over the
    routing table's :meth:`~repro.network.routing.RoutingTable.hop_index`.
    """
    offsets = cost_offsets or {}
    index = routing.hop_index(topology.aggregation_pids)
    links = index.links
    prices = np.fromiter((link_prices.get(key, 0.0) for key in links), float, len(links))
    extra = np.fromiter((offsets.get(key, 0.0) for key in links), float, len(links))
    values = mesh_values(index, index.hops, prices + extra, intra_pid_distance)
    return mesh_view(index.pids, index.pairs, values, intra_pid_distance)


def link_hops(index: RouteHopIndex, link_order: Sequence[LinkKey]) -> np.ndarray:
    """``index.hops`` re-pointed from ``index.links`` at positions in
    ``link_order`` (padding: ``len(link_order)``), so that a per-link
    vector kept in ``link_order`` is gathered by :func:`mesh_values`
    as it is."""
    position = {key: slot for slot, key in enumerate(link_order)}
    order = np.fromiter(map(position.__getitem__, index.links), np.intp, len(index.links))
    return np.append(order, len(link_order))[index.hops]


def mesh_values(
    index: RouteHopIndex,
    hops: np.ndarray,
    link_cost: np.ndarray,
    intra_pid_distance: float = 0.0,
) -> np.ndarray:
    """The full-mesh p-distances over ``index``, as a float64 vector in
    ``index.pairs`` order: the one aggregation behind every view.

    ``link_cost`` is ``p_e`` plus any offset per link, in the order
    ``hops`` points into (``index.hops`` for ``index.links`` order, or
    :func:`link_hops` for another); ``p_ii`` is ``intra_pid_distance``.
    Every value is bit-identical to adding up its route link by link.
    Raises ``ValueError`` on a negative p-distance.
    """
    # The zero-cost slot that pads routes, then the routes summed hop by
    # hop from a zero start, in route order: the same float additions,
    # in the same order, as summing each route in a loop.
    cost = np.append(link_cost, 0.0)
    values = np.zeros(len(index.pairs))
    for hop in hops:
        values += cost[hop]
    values[index.diagonal] = intra_pid_distance
    negative = np.flatnonzero(values < 0)
    if len(negative):
        src, dst = index.pairs[negative[0]]
        raise ValueError(f"negative p-distance for ({src}, {dst})")
    return values


def mesh_view(
    pids: Sequence[str],
    pairs: Sequence[Tuple[str, str]],
    values: np.ndarray,
    intra_pid_distance: float = 0.0,
) -> PDistanceMap:
    """:func:`mesh_values`' ``values`` over ``pairs`` as a
    :class:`PDistanceMap`, with ``p_ii`` as configured (an int stays an
    int)."""
    listed = values.tolist()
    n = len(pids)
    if n:
        listed[::n] = [intra_pid_distance] * n  # rows start at the diagonal
    return PDistanceMap(pids=tuple(pids), distances=dict(zip(pairs, listed)))


@dataclass
class PidMap:
    """IP address -> PID mapping, longest-prefix-match over CIDR blocks.

    A client queries the network to map its IP address to its PID and AS
    number when it first obtains the address (Sec. 4).
    """

    _prefixes: List[Tuple[ipaddress.IPv4Network, str, int]] = field(default_factory=list)
    _sorted: bool = False

    def add_prefix(self, cidr: str, pid: str, as_number: int = 0) -> None:
        network = ipaddress.ip_network(cidr, strict=True)
        self._prefixes.append((network, pid, as_number))
        self._sorted = False

    def lookup(self, ip: str) -> Tuple[str, int]:
        """Return (PID, AS) for an address; raise ``KeyError`` if unmapped."""
        address = ipaddress.ip_address(ip)
        if not self._sorted:
            self._prefixes.sort(key=lambda entry: entry[0].prefixlen, reverse=True)
            self._sorted = True
        for network, pid, as_number in self._prefixes:
            if address in network:
                return pid, as_number
        raise KeyError(f"no PID mapping for {ip}")

    def __len__(self) -> int:
        return len(self._prefixes)


def uniform_pid_map(
    topology: Topology, base_prefix: str = "10.0.0.0/8", as_number: Optional[int] = None
) -> PidMap:
    """Carve one /16 per aggregation PID out of ``base_prefix``.

    A convenient synthetic provisioning scheme for simulations: PID ``k``
    owns the ``k``-th /16 subnet.
    """
    base = ipaddress.ip_network(base_prefix)
    subnets = base.subnets(new_prefix=16)
    mapping = PidMap()
    for pid, subnet in zip(topology.aggregation_pids, subnets):
        node_as = as_number if as_number is not None else topology.node(pid).as_number
        mapping.add_prefix(str(subnet), pid, node_as)
    if len(mapping) < len(topology.aggregation_pids):
        raise ValueError("base_prefix too small for the PID count")
    return mapping
