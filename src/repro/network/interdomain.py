"""Interdomain multihoming scenarios: virtual ISPs and charged links.

The paper's interdomain experiments (Fig. 10) take two Abilene trunks as
"interdomain" links, partitioning the backbone into two connected components
treated as two virtual ISPs.  Each interdomain link is billed under the
95th-percentile charging model, and the iTracker bounds P4P traffic on it by
a virtual capacity ``v_e`` (constraint 16).

Note on the substitution: the paper names the Chicago--Kansas City and
Atlanta--Houston links; the public Abilene map has no direct Chicago--Kansas
City trunk, so we cut the Kansas City--Indianapolis and Houston--Atlanta
trunks, which is the unique two-link cut of the real topology that yields
the same east/west split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set, Tuple

from repro.network.topology import Topology

#: Default virtual-ISP cut of the Abilene backbone (undirected edges).
ABILENE_CUT: Tuple[Tuple[str, str], ...] = (("KSCY", "IPLS"), ("HSTN", "ATLA"))


@dataclass
class VirtualIspPartition:
    """A two-way split of one topology into virtual ISPs.

    Attributes:
        topology: The (mutated) topology with cut links marked interdomain.
        components: The two PID sets, in the order (side of first cut edge's
            src, other side).
        cut_links: Directed link keys crossing the partition.
    """

    topology: Topology
    components: Tuple[FrozenSet[str], FrozenSet[str]]
    cut_links: Tuple[Tuple[str, str], ...]


def partition_virtual_isps(
    topology: Topology,
    cut_edges: Sequence[Tuple[str, str]] = ABILENE_CUT,
    as_numbers: Tuple[int, int] = (64601, 64602),
) -> VirtualIspPartition:
    """Mark the given edges interdomain and split the topology into two ASes.

    The edges (given undirected) must form a cut whose removal leaves exactly
    two connected components; otherwise a ``ValueError`` is raised.  Both
    directions of every cut edge are flagged ``interdomain``; every PID gets
    the AS number of its component.

    The topology is modified in place and also returned inside the partition
    descriptor.
    """
    cut_keys: Set[Tuple[str, str]] = set()
    for src, dst in cut_edges:
        if not topology.has_link(src, dst) or not topology.has_link(dst, src):
            raise ValueError(f"cut edge ({src}, {dst}) not in topology")
        cut_keys.add((src, dst))
        cut_keys.add((dst, src))

    components = _components_without(topology, cut_keys)
    if len(components) != 2:
        raise ValueError(
            f"cut must yield exactly 2 components, got {len(components)}"
        )
    first_src = cut_edges[0][0]
    components.sort(key=lambda comp: first_src not in comp)

    for index, component in enumerate(components):
        for pid in component:
            topology.nodes[pid].as_number = as_numbers[index]
    for key in cut_keys:
        topology.links[key].interdomain = True

    return VirtualIspPartition(
        topology=topology,
        components=(frozenset(components[0]), frozenset(components[1])),
        cut_links=tuple(sorted(cut_keys)),
    )


def _components_without(
    topology: Topology, excluded: Set[Tuple[str, str]]
) -> List[Set[str]]:
    """Connected components of the undirected graph minus excluded links."""
    seen: Set[str] = set()
    components: List[Set[str]] = []
    for start in topology.nodes:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            pid = frontier.pop()
            for link in topology.out_links(pid):
                if link.key in excluded or link.dst in component:
                    continue
                component.add(link.dst)
                frontier.append(link.dst)
        seen |= component
        components.append(component)
    return components
