"""p4p-repro: a reproduction of "P4P: Provider Portal for Applications"
(SIGCOMM 2008).

The public API re-exports the pieces a downstream user needs to stand up
an iTracker, integrate an appTracker, and run the evaluation harness; the
subpackages hold the full system (see README.md for the map).
"""

from repro.core.charging import ChargingVolumePredictor, charging_volume
from repro.core.decomposition import DecompositionLoop, DecompositionResult
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import BandwidthDistanceProduct, MinMaxUtilization
from repro.core.pdistance import PDistanceMap, PidMap
from repro.core.policy import NetworkPolicy
from repro.core.session import (
    SessionDemand,
    TrafficPattern,
    max_matching_throughput,
    min_cost_traffic,
)
from repro.network.library import abilene
from repro.network.generators import isp_a, isp_b, isp_c
from repro.network.routing import RoutingTable
from repro.network.topology import Link, Node, NodeKind, Topology

__version__ = "1.0.0"

__all__ = [
    "ChargingVolumePredictor",
    "charging_volume",
    "DecompositionLoop",
    "DecompositionResult",
    "ITracker",
    "ITrackerConfig",
    "PriceMode",
    "BandwidthDistanceProduct",
    "MinMaxUtilization",
    "PDistanceMap",
    "PidMap",
    "NetworkPolicy",
    "SessionDemand",
    "TrafficPattern",
    "max_matching_throughput",
    "min_cost_traffic",
    "abilene",
    "isp_a",
    "isp_b",
    "isp_c",
    "RoutingTable",
    "Link",
    "Node",
    "NodeKind",
    "Topology",
    "__version__",
]
