"""Workload generators: peer placement and swarm populations."""

from repro.workloads.placement import place_peers
from repro.workloads.swarms import SwarmPopulationModel, fraction_above

__all__ = [
    "place_peers",
    "SwarmPopulationModel",
    "fraction_above",
]
