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
(:func:`mesh_values`, in external-view pair order), and handed to
applications as a :class:`PDistanceMap`: the PIDs and an ``n`` x ``n``
matrix, the vector un-rotated by one index assignment
(:func:`mesh_order`).  Lookups, restriction, perturbation, ranks and
the wire forms are array operations on that matrix.

The module also provides the IP -> PID mapping clients use on start-up, the
optional privacy perturbation, and the coarse "ranks" degradation of the
interface discussed in the ISP use cases.
"""

from __future__ import annotations

import functools
import ipaddress
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.routing import RouteHopIndex, RoutingTable
from repro.network.topology import Topology

LinkKey = Tuple[str, str]


@functools.lru_cache(maxsize=16)
def mesh_order(n: int) -> np.ndarray:
    """Flat positions in an ``n`` x ``n`` matrix, in external-view pair
    order (:attr:`~repro.network.routing.RouteHopIndex.pairs`): per
    source row, the diagonal first, then every other PID in PID order."""
    k = np.arange(n)
    i = k[:, None]
    order = (i * n + np.where(k == 0, i, np.where(k <= i, k - 1, k))).ravel()
    order.setflags(write=False)
    return order


@dataclass(frozen=True, eq=False)
class PDistanceMap:
    """The external view: p-distances over ordered pairs of visible PIDs.

    ``matrix[i, j]`` is ``p_ij`` from ``pids[i]`` to ``pids[j]``, ``NaN``
    where the producer gave no pair.  Distances are non-negative;
    ``p_ii`` (intra-PID) defaults to 0 when absent unless the provider
    deliberately raises it (e.g. the UK DSL example of Sec. 8 where local
    transfers are *more* expensive than transit).  ``intra``, when set,
    is every ``p_ii`` as configured: the wire emits it as given, so an
    integer stays an integer.  Pairs iterate (:meth:`entries`,
    :meth:`perturbed`, the wire) in external-view order
    (:func:`mesh_order`), or in ``order`` (flat positions) when given: a
    ranked map lists each row most preferred first.  Equal maps have
    equal PIDs and matrices.
    """

    pids: Tuple[str, ...]
    matrix: np.ndarray
    intra: Optional[float] = None
    order: Optional[np.ndarray] = None
    #: Each PID's row and column.
    index: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pids = tuple(self.pids)
        n = len(pids)
        index = {pid: i for i, pid in enumerate(pids)}
        if len(index) != n:
            raise ValueError("a PID is listed twice")
        matrix = np.array(self.matrix, dtype=np.float64)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix of shape {matrix.shape} for {n} PIDs")
        if self.intra is not None:
            np.fill_diagonal(matrix, self.intra)
        object.__setattr__(self, "pids", pids)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "index", index)
        negative = self.first(matrix < 0)
        if negative is not None:
            raise ValueError(f"negative p-distance for ({negative[0]}, {negative[1]})")

    @classmethod
    def from_mesh(
        cls, pids: Sequence[str], values: np.ndarray, intra: float = 0.0
    ) -> "PDistanceMap":
        """The full mesh over ``pids`` from :func:`mesh_values`' vector
        (external-view order), with ``p_ii`` as configured."""
        n = len(pids)
        flat = np.empty(n * n)
        flat[mesh_order(n)] = values
        return cls(tuple(pids), flat.reshape(n, n), intra)

    @classmethod
    def from_entries(
        cls, pids: Sequence[str], entries: Iterable[Tuple[str, str, float]]
    ) -> "PDistanceMap":
        """The map over ``pids`` holding ``(src, dst, value)`` entries;
        every other pair is absent."""
        pids = tuple(pids)
        n = len(pids)
        index = {pid: i for i, pid in enumerate(pids)}
        positions: List[int] = []
        values: List[float] = []
        for src, dst, value in entries:
            if src not in index or dst not in index:
                raise ValueError(f"distance for unknown pair ({src}, {dst})")
            if value != value:
                raise ValueError(f"NaN p-distance for ({src}, {dst})")
            positions.append(index[src] * n + index[dst])
            values.append(value)
        flat = np.full(n * n, np.nan)
        flat[positions] = values
        return cls(pids, flat.reshape(n, n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDistanceMap):
            return NotImplemented
        return self.pids == other.pids and np.array_equal(
            self.matrix, other.matrix, equal_nan=True
        )

    __hash__ = None  # type: ignore[assignment]

    def first(self, mask: np.ndarray) -> Optional[Tuple[str, str]]:
        """The first pair, in external-view order, where the ``n`` x ``n``
        boolean ``mask`` holds; ``None`` when it holds nowhere."""
        if not mask.any():
            return None
        n = len(self.pids)
        order = mesh_order(n)
        src, dst = divmod(int(order[np.argmax(mask.ravel()[order])]), n)
        return self.pids[src], self.pids[dst]

    def _given(self) -> np.ndarray:
        """The flat positions of the given pairs, in iteration order."""
        order = mesh_order(len(self.pids)) if self.order is None else self.order
        return order[~np.isnan(self.matrix.ravel()[order])]

    def entries(self) -> Iterator[Tuple[str, str, float]]:
        """Every given ``(src, dst, p_ij)``, in iteration order."""
        given = self._given()
        src, dst = np.divmod(given, len(self.pids))
        listed = self.matrix.ravel()[given].tolist()
        if self.intra is not None:
            for k in np.flatnonzero(src == dst).tolist():
                listed[k] = self.intra
        names = np.array(self.pids, dtype=object)
        return zip(names[src].tolist(), names[dst].tolist(), listed)

    def distance(self, src: str, dst: str) -> float:
        """``p_ij``; intra-PID distance defaults to 0 when absent."""
        value = self.matrix.item(self.index[src], self.index[dst])
        if value != value:
            if src == dst:
                return 0.0
            raise KeyError((src, dst))
        return value

    def row(self, src: str) -> Dict[str, float]:
        """Distances from ``src`` to every other visible PID it has one to."""
        i = self.index[src]
        return {
            dst: value
            for j, (dst, value) in enumerate(zip(self.pids, self.matrix[i].tolist()))
            if j != i and value == value
        }

    def to_ranks(self) -> "PDistanceMap":
        """Degrade to the 'coarsest level' of Sec. 4: per-source ranks.

        For every source PID the destinations are ranked by increasing
        p-distance: most preferred gets 1, next 2, and so on.  Equal
        distances share a rank (competition ranking).  ``p_ii`` is absent.
        """
        n = len(self.pids)
        ranked = np.full((n, n), np.nan)
        order: List[int] = []
        for i, row in enumerate(self.matrix.tolist()):
            dsts = [j for j, value in enumerate(row) if j != i and value == value]
            dsts.sort(key=row.__getitem__)  # stable: ties stay in PID order
            ranks: List[int] = []
            previous: Optional[float] = None
            for position, j in enumerate(dsts, start=1):
                value = row[j]
                if previous is None or value > previous + 1e-12:
                    previous = value
                    ranks.append(position)
                else:
                    ranks.append(ranks[-1])
            ranked[i, dsts] = ranks
            order += [i * n + j for j in dsts]
        return PDistanceMap(self.pids, ranked, order=np.array(order, dtype=np.intp))

    def perturbed(self, relative_noise: float, seed: int = 0) -> "PDistanceMap":
        """Privacy perturbation: multiplicative uniform noise per pair.

        An iTracker "may perturb the distances to enhance privacy"; noise is
        bounded so preference ordering is mostly preserved for distances that
        differ by more than ``2 * relative_noise``.  One draw per given
        pair, in iteration order.
        """
        if not 0.0 <= relative_noise < 1.0:
            raise ValueError("relative_noise must be in [0, 1)")
        rng = random.Random(seed)
        given = self._given()
        draws = np.array([rng.random() for _ in range(len(given))])
        # ``rng.uniform(-r, r)`` per pair, the same float operations.
        low, high = -relative_noise, relative_noise
        flat = self.matrix.ravel().copy()
        flat[given] *= 1.0 + (low + (high - low) * draws)
        return PDistanceMap(self.pids, flat.reshape(self.matrix.shape), order=self.order)

    def restricted_to(self, pids: Sequence[str]) -> "PDistanceMap":
        """Sub-map over a subset of PIDs (an application's swarm footprint),
        in this map's PID order and iterating in external-view order."""
        requested = set(pids)
        keep = [i for i, pid in enumerate(self.pids) if pid in requested]
        sub = self.matrix[np.ix_(keep, keep)]
        return PDistanceMap(tuple(self.pids[i] for i in keep), sub, self.intra)


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

    The :class:`PDistanceMap` of :func:`mesh_values` over the routing
    table's :meth:`~repro.network.routing.RoutingTable.hop_index`.
    """
    offsets = cost_offsets or {}
    index = routing.hop_index(topology.aggregation_pids)
    links = index.links
    prices = np.fromiter((link_prices.get(key, 0.0) for key in links), float, len(links))
    extra = np.fromiter((offsets.get(key, 0.0) for key in links), float, len(links))
    values = mesh_values(index, index.hops, prices + extra, intra_pid_distance)
    return PDistanceMap.from_mesh(index.pids, values, intra_pid_distance)


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
