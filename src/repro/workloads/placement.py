"""Peer placement: assign swarm clients to PoP (PID) nodes.

The paper's simulations place peers uniformly at random over PoP nodes;
the field tests exhibit skewed metro populations, modelled here with
weighted placement.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Sequence

from repro.apptracker.selection import PeerInfo
from repro.network.topology import Topology


def place_peers(
    topology: Topology,
    count: int,
    rng: random.Random,
    pids: Optional[Sequence[str]] = None,
    weights: Optional[Mapping[str, float]] = None,
    first_id: int = 0,
) -> List[PeerInfo]:
    """Create ``count`` peers assigned to aggregation PIDs.

    Args:
        topology: Source of PIDs and AS numbers.
        count: Number of peers.
        rng: Randomness source (caller-seeded for reproducibility).
        pids: Candidate PIDs; defaults to all aggregation PIDs.
        weights: Optional per-PID placement weight (e.g. metro population
            skew); uniform when omitted.
        first_id: First peer id; ids are consecutive.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    pool = list(pids) if pids is not None else topology.aggregation_pids
    if not pool:
        raise ValueError("no PIDs to place peers on")
    for pid in pool:
        if pid not in topology.nodes:
            raise KeyError(f"unknown PID {pid!r}")
    if weights is not None:
        weight_values = [max(0.0, float(weights.get(pid, 0.0))) for pid in pool]
        if sum(weight_values) <= 0:
            raise ValueError("placement weights sum to zero")
    else:
        weight_values = None

    peers: List[PeerInfo] = []
    for offset in range(count):
        if weight_values is None:
            pid = rng.choice(pool)
        else:
            pid = rng.choices(pool, weights=weight_values, k=1)[0]
        peers.append(
            PeerInfo(
                peer_id=first_id + offset,
                pid=pid,
                as_number=topology.node(pid).as_number,
            )
        )
    return peers
