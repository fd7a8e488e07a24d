"""Bottleneck-link metrics: P2P traffic on the most utilized link and
link-utilization timelines (Figs. 6b, 7b, 8b)."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.network.topology import Topology

LinkKey = Tuple[str, str]


def most_utilized_link(
    topology: Topology, link_traffic_mbit: Mapping[LinkKey, float]
) -> LinkKey:
    """The link carrying the most P4P traffic relative to its capacity."""
    if not link_traffic_mbit:
        raise ValueError("no link traffic recorded")
    return max(
        link_traffic_mbit,
        key=lambda key: link_traffic_mbit[key] / topology.links[key].capacity,
    )


def bottleneck_traffic(
    topology: Topology,
    link_traffic_mbit: Mapping[LinkKey, float],
    link: Optional[LinkKey] = None,
) -> float:
    """Total P2P Mbit on the most utilized (or a given) link.

    This is the paper's "P2P traffic on top of the most utilized link"
    metric, used when the controllable traffic is small relative to link
    capacity.
    """
    chosen = link if link is not None else most_utilized_link(topology, link_traffic_mbit)
    return float(link_traffic_mbit.get(chosen, 0.0))


def utilization_timeline(
    samples: Sequence, link: Optional[LinkKey] = None
) -> List[Tuple[float, float]]:
    """(time, utilization) series from swarm samples.

    With ``link`` given, tracks that link; otherwise tracks the per-sample
    maximum over all backbone links (the bottleneck-link utilization curves
    of Figs. 7b and 8b).
    """
    series: List[Tuple[float, float]] = []
    for sample in samples:
        if link is not None:
            value = sample.link_utilization.get(link, 0.0)
        else:
            value = sample.max_utilization
        series.append((sample.time, value))
    return series
