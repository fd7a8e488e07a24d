"""Unit bandwidth-distance product (Sec. 7.1, Fig. 12a).

Unit BDP is "the average number of backbone links that a unit of P2P
traffic traverses in an ISP's network": total backbone link-Mbit divided by
total payload Mbit delivered.
"""

from __future__ import annotations

from typing import Mapping, Tuple

LinkKey = Tuple[str, str]


def unit_bdp(
    link_traffic_mbit: Mapping[LinkKey, float], payload_mbit: float
) -> float:
    """Backbone link-hops traversed per unit of delivered payload."""
    if payload_mbit <= 0:
        raise ValueError("payload must be positive")
    total = sum(link_traffic_mbit.values())
    if total < 0:
        raise ValueError("negative link traffic")
    return total / payload_mbit


def mean_pid_pair_hops(routing, pids=None) -> float:
    """Average backbone hop count over ordered PID pairs.

    The paper quotes this as context for Fig. 12a ("the average number of
    backbone links between two PIDs in ISP-B is 6.2").
    """
    if pids is None:
        pids = routing.topology.aggregation_pids
    hops = [
        routing.hop_count(a, b) for a in pids for b in pids if a != b
    ]
    if not hops:
        raise ValueError("need at least two PIDs")
    return sum(hops) / len(hops)
