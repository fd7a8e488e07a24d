"""PID-level network topology model.

The iTracker's *internal view* of a provider network is a graph ``G = (V, E)``
whose nodes are PIDs (opaque IDs).  A PID may be:

* an *aggregation* PID, representing a set of clients (typically one PoP) --
  these are externally visible;
* a *core* PID, representing an internal router -- never exposed to
  applications;
* an *external* PID, representing a neighboring domain reachable over an
  interdomain link.

Links are directed.  Each link carries the attributes the P4P optimization
framework needs: capacity ``c_e``, background traffic ``b_e`` (traffic not
controlled by P4P), a distance metric ``d_e`` (miles or hops, used by the
bandwidth-distance-product objective), an OSPF weight for routing, and an
``interdomain`` flag for multihoming cost control.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


class NodeKind(enum.Enum):
    """The three PID types of the p4p-distance internal view."""

    AGGREGATION = "aggregation"
    CORE = "core"
    EXTERNAL = "external"


@dataclass
class Node:
    """A PID in the internal view.

    Attributes:
        pid: Opaque identifier, unique within a topology.
        kind: Aggregation (externally visible), core, or external.
        as_number: Autonomous system the PID belongs to.
        metro: Metro-area label used for localization accounting.
        location: Optional (latitude, longitude) used to derive link miles.
    """

    pid: str
    kind: NodeKind = NodeKind.AGGREGATION
    as_number: int = 0
    metro: str = ""
    location: Optional[Tuple[float, float]] = None

    @property
    def externally_visible(self) -> bool:
        """Only aggregation PIDs are exposed through the external view."""
        return self.kind is NodeKind.AGGREGATION

    def __post_init__(self) -> None:
        if not self.pid:
            raise ValueError("PID must be a non-empty string")
        if not self.metro:
            self.metro = self.pid


@dataclass
class Link:
    """A directed PID-level link with the P4P cost attributes.

    Attributes:
        src: Source PID.
        dst: Destination PID.
        capacity: Capacity ``c_e`` in Mbps.
        background: Background (non-P4P) traffic ``b_e`` in Mbps.
        distance: Distance metric ``d_e`` (miles when derived from PoP
            coordinates, 1.0 for hop-count distance).
        ospf_weight: Routing weight; shortest paths minimize the sum.
        interdomain: True when the link crosses a provider boundary and is
            subject to usage-based (percentile) charging.
        virtual_capacity: Charging-volume headroom ``v_e`` available to
            P4P-controlled traffic on an interdomain link (Mbps); ``None``
            when not applicable or not yet estimated.
    """

    src: str
    dst: str
    capacity: float
    background: float = 0.0
    distance: float = 1.0
    ospf_weight: float = 1.0
    interdomain: bool = False
    virtual_capacity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop link at {self.src!r}")
        if self.capacity <= 0:
            raise ValueError(f"link {self.key} must have positive capacity")
        if self.background < 0:
            raise ValueError(f"link {self.key} has negative background traffic")
        if self.ospf_weight <= 0:
            raise ValueError(f"link {self.key} must have positive OSPF weight")

    @property
    def key(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    @property
    def headroom(self) -> float:
        """Capacity remaining after background traffic (never negative)."""
        return max(0.0, self.capacity - self.background)

    def utilization(self, p4p_traffic: float = 0.0) -> float:
        """Utilization with ``p4p_traffic`` Mbps of controlled traffic added."""
        return (self.background + p4p_traffic) / self.capacity


def great_circle_miles(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Great-circle distance in miles between two (lat, lon) points."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    d_lat = lat2 - lat1
    d_lon = lon2 - lon1
    h = math.sin(d_lat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(d_lon / 2) ** 2
    earth_radius_miles = 3958.8
    return 2 * earth_radius_miles * math.asin(math.sqrt(h))


@dataclass
class Topology:
    """A provider network: the internal view served by an iTracker.

    The container enforces referential integrity (links only between known
    PIDs, no duplicate links) and offers the index structures the routing
    and optimization layers need.
    """

    name: str = "network"
    nodes: Dict[str, Node] = field(default_factory=dict)
    links: Dict[Tuple[str, str], Link] = field(default_factory=dict)
    _out: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict, repr=False)

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.pid in self.nodes:
            raise ValueError(f"duplicate PID {node.pid!r}")
        self.nodes[node.pid] = node
        self._out[node.pid] = []
        return node

    def add_pid(self, pid: str, **kwargs) -> Node:
        """Convenience wrapper: build and add a :class:`Node`."""
        return self.add_node(Node(pid=pid, **kwargs))

    def add_link(self, link: Link) -> Link:
        for endpoint in (link.src, link.dst):
            if endpoint not in self.nodes:
                raise KeyError(f"link references unknown PID {endpoint!r}")
        if link.key in self.links:
            raise ValueError(f"duplicate link {link.key}")
        self.links[link.key] = link
        self._out[link.src].append(link.key)
        return link

    def add_edge(self, src: str, dst: str, capacity: float, **kwargs) -> Tuple[Link, Link]:
        """Add a bidirectional edge as two symmetric directed links."""
        forward = self.add_link(Link(src=src, dst=dst, capacity=capacity, **kwargs))
        reverse = self.add_link(Link(src=dst, dst=src, capacity=capacity, **kwargs))
        return forward, reverse

    # -- queries -----------------------------------------------------------

    def node(self, pid: str) -> Node:
        return self.nodes[pid]

    def link(self, src: str, dst: str) -> Link:
        return self.links[(src, dst)]

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self.links

    def out_links(self, pid: str) -> Iterator[Link]:
        for key in self._out[pid]:
            yield self.links[key]

    def neighbors(self, pid: str) -> List[str]:
        return [key[1] for key in self._out[pid]]

    @property
    def pids(self) -> List[str]:
        return list(self.nodes)

    @property
    def aggregation_pids(self) -> List[str]:
        """Externally visible PIDs, in insertion order."""
        return [pid for pid, node in self.nodes.items() if node.externally_visible]

    @property
    def interdomain_links(self) -> List[Link]:
        return [link for link in self.links.values() if link.interdomain]

    def metro_of(self, pid: str) -> str:
        return self.nodes[pid].metro

    def pids_in_as(self, as_number: int) -> List[str]:
        return [pid for pid, node in self.nodes.items() if node.as_number == as_number]

    def __len__(self) -> int:
        return len(self.nodes)

    # -- derived attributes --------------------------------------------------

    def assign_distances_from_locations(self) -> None:
        """Set each link's ``distance`` to great-circle miles between PoPs.

        Links whose endpoints lack coordinates keep their current distance.
        """
        for link in self.links.values():
            src_loc = self.nodes[link.src].location
            dst_loc = self.nodes[link.dst].location
            if src_loc is not None and dst_loc is not None:
                link.distance = great_circle_miles(src_loc, dst_loc)

    def validate(self) -> None:
        """Check referential integrity and basic sanity; raise on violation."""
        for key, link in self.links.items():
            if key != link.key:
                raise ValueError(f"link stored under wrong key: {key} != {link.key}")
            if link.src not in self.nodes or link.dst not in self.nodes:
                raise ValueError(f"dangling link {key}")
        for pid, keys in self._out.items():
            for key in keys:
                if key not in self.links:
                    raise ValueError(f"adjacency of {pid!r} references missing link {key}")
        if not self.nodes:
            raise ValueError("topology has no nodes")

    def copy(self) -> "Topology":
        """Deep copy (nodes and links are duplicated; safe to mutate)."""
        dup = Topology(name=self.name)
        for node in self.nodes.values():
            dup.add_node(Node(node.pid, node.kind, node.as_number, node.metro, node.location))
        for link in self.links.values():
            dup.add_link(
                Link(
                    src=link.src,
                    dst=link.dst,
                    capacity=link.capacity,
                    background=link.background,
                    distance=link.distance,
                    ospf_weight=link.ospf_weight,
                    interdomain=link.interdomain,
                    virtual_capacity=link.virtual_capacity,
                )
            )
        return dup
