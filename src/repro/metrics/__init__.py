"""Evaluation metrics (Sec. 7.1): completion time, unit BDP, bottleneck
traffic, charging volume, and localization ratios."""

from repro.metrics.bdp import mean_pid_pair_hops, unit_bdp
from repro.metrics.bottleneck import (
    bottleneck_traffic,
    most_utilized_link,
    utilization_timeline,
)
from repro.metrics.charging import charging_volumes_from_samples, volumes_per_interval
from repro.metrics.completion import (
    completion_cdf,
    excess_percent,
    improvement_percent,
    mean_completion,
    percentile_completion,
)
from repro.metrics.localization import TrafficLedger, localization_ratio

__all__ = [
    "mean_pid_pair_hops",
    "unit_bdp",
    "bottleneck_traffic",
    "most_utilized_link",
    "utilization_timeline",
    "charging_volumes_from_samples",
    "volumes_per_interval",
    "completion_cdf",
    "excess_percent",
    "improvement_percent",
    "mean_completion",
    "percentile_completion",
    "TrafficLedger",
    "localization_ratio",
]
