"""Ablation studies for the design choices DESIGN.md calls out.

* ``run_ablation_decomposition`` -- does the distributed super-gradient
  loop (Sec. 5) approach the centralized full-information LP optimum, and
  how do step size and damping affect it?
* ``run_ablation_charging`` -- the paper's hybrid-window charging-volume
  predictor vs the naive pure sliding window (Sec. 6.1's motivation).
* ``run_ablation_granularity`` -- fine p-distances vs the coarse rank
  degradation (Sec. 4's "coarsest level"): how much application-side
  optimization quality is lost.
* ``run_ablation_bounds`` -- sweep of the staged-selection upper bounds
  (Upper-Bound-IntraPID / InterPID defaults 70% / 80%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.charging import ChargingVolumePredictor, charging_volume
from repro.core.decomposition import DecompositionLoop, optimality_gap
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import MinMaxUtilization
from repro.core.session import SessionDemand, min_cost_traffic
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.network.traffic import DiurnalProfile, generate_volume_series


# -- decomposition convergence ------------------------------------------------


@dataclass(frozen=True)
class DecompositionAblation:
    """Distributed-vs-centralized gap for one schedule setting."""

    step_size: float
    damping: float
    achieved_mlu: float
    optimal_mlu: float
    step_decay: float = 0.0

    @property
    def gap_percent(self) -> float:
        if self.optimal_mlu <= 0:
            return 0.0
        return (self.achieved_mlu - self.optimal_mlu) / self.optimal_mlu * 100.0


def _abilene_sessions(cap: float = 400.0) -> List[SessionDemand]:
    pids_a = ["SEAT", "NYCM", "CHIN", "ATLA"]
    pids_b = ["LOSA", "WASH", "KSCY", "DNVR"]
    return [
        SessionDemand(
            name="swarm-a",
            uploads={pid: cap for pid in pids_a},
            downloads={pid: cap for pid in pids_a},
        ),
        SessionDemand(
            name="swarm-b",
            uploads={pid: cap for pid in pids_b},
            downloads={pid: cap for pid in pids_b},
        ),
    ]


def run_ablation_decomposition(
    settings: Sequence[Tuple[float, float, float]] = (
        (0.02, 1.0, 0.0),   # constant step, undamped (paper's practical mode)
        (0.02, 0.5, 0.0),   # constant step, damped application response
        (0.02, 0.5, 0.1),   # diminishing schedule (theory mode)
    ),
    n_iterations: int = 80,
) -> List[DecompositionAblation]:
    """The super-gradient loop vs the centralized LP on Abilene."""
    topo = abilene()
    results = []
    for step_size, damping, decay in settings:
        itracker = ITracker(
            topology=topo,
            config=ITrackerConfig(step_size=step_size, step_decay=decay),
            objective=MinMaxUtilization(),
        )
        loop = DecompositionLoop(
            itracker=itracker,
            sessions=_abilene_sessions(),
            damping=damping,
            beta=1.0,
        )
        outcome = loop.run(n_iterations=n_iterations)
        achieved, optimum = optimality_gap(loop, outcome)
        results.append(
            DecompositionAblation(
                step_size=step_size,
                damping=damping,
                step_decay=decay,
                achieved_mlu=achieved,
                optimal_mlu=optimum,
            )
        )
    return results


# -- charging predictor -----------------------------------------------------------


@dataclass(frozen=True)
class ChargingAblation:
    """Prediction error of the two predictor variants on one trace."""

    hybrid_mean_error: float
    sliding_mean_error: float

    @property
    def hybrid_wins(self) -> bool:
        return self.hybrid_mean_error <= self.sliding_mean_error


def run_ablation_charging(
    period_intervals: int = 288,
    n_periods: int = 3,
    seed: int = 5,
) -> ChargingAblation:
    """Hybrid vs pure-sliding predictor on a trace whose level shifts.

    The trace's daily mean halves at each period boundary -- exactly the
    regime where the paper observed the naive window over-predicting.
    """
    pieces = []
    for period in range(n_periods):
        profile = DiurnalProfile(
            mean_mbps=400.0 / (2**period), peak_to_trough=3.0, noise_sigma=0.05
        )
        pieces.append(
            generate_volume_series(profile, period_intervals, seed=seed + period)
        )
    trace = np.concatenate(pieces)

    hybrid = ChargingVolumePredictor(
        period_intervals=period_intervals, warmup_intervals=period_intervals // 10
    )
    sliding = ChargingVolumePredictor(
        period_intervals=period_intervals,
        warmup_intervals=period_intervals // 10,
        pure_sliding_window=True,
    )
    hybrid_errors = []
    sliding_errors = []
    # Evaluate inside the later periods where history exists.
    for period in range(1, n_periods):
        start = period * period_intervals
        truth = charging_volume(trace[start:start + period_intervals])
        for offset in range(period_intervals // 4, period_intervals, period_intervals // 4):
            interval = start + offset
            hybrid_errors.append(
                abs(hybrid.predict(trace[:interval], interval) - truth) / truth
            )
            sliding_errors.append(
                abs(sliding.predict(trace[:interval], interval) - truth) / truth
            )
    return ChargingAblation(
        hybrid_mean_error=float(np.mean(hybrid_errors)),
        sliding_mean_error=float(np.mean(sliding_errors)),
    )


# -- p-distance granularity ---------------------------------------------------------


@dataclass(frozen=True)
class GranularityAblation:
    """Application cost achieved under fine vs rank-coarsened distances."""

    fine_cost: float
    rank_cost: float

    @property
    def rank_penalty_percent(self) -> float:
        if self.fine_cost <= 0:
            return 0.0
        return (self.rank_cost - self.fine_cost) / self.fine_cost * 100.0


def run_ablation_granularity(cap: float = 300.0, beta: float = 0.9) -> GranularityAblation:
    """Optimize the matching LP against fine p-distances vs served ranks.

    Both optimizations are *evaluated* against the fine (true) distances:
    the rank view loses the magnitude information ("the second ranked may
    be as good as the first one or much worse"), so the application's
    chosen pattern costs more in reality.
    """
    topo = abilene()
    # Weight OSPF by miles so magnitudes vary strongly across pairs.
    for link in topo.links.values():
        link.ospf_weight = link.distance
    fine_tracker = ITracker(
        topology=topo, config=ITrackerConfig(mode=PriceMode.OSPF_WEIGHTS)
    )
    rank_tracker = ITracker(
        topology=topo,
        config=ITrackerConfig(mode=PriceMode.OSPF_WEIGHTS, serve_ranks=True),
    )
    pids = ["SEAT", "NYCM", "CHIN", "ATLA", "LOSA", "WASH"]
    session = SessionDemand(
        name="swarm",
        uploads={pid: cap for pid in pids},
        downloads={pid: cap for pid in pids},
    )
    fine_view = fine_tracker.get_pdistances(pids=pids)
    rank_view = rank_tracker.get_pdistances(pids=pids)
    fine_pattern = min_cost_traffic(session, fine_view, beta=beta)
    rank_pattern = min_cost_traffic(session, rank_view, beta=beta)
    return GranularityAblation(
        fine_cost=fine_pattern.cost(fine_view),
        rank_cost=rank_pattern.cost(fine_view),
    )


# -- staged-selection bounds ----------------------------------------------------------


@dataclass(frozen=True)
class BoundsPoint:
    upper_intra: float
    upper_inter: float
    mean_completion: float
    bottleneck_mbit: float


def run_ablation_bounds(
    bounds: Sequence[Tuple[float, float]] = ((0.3, 0.6), (0.5, 0.7), (0.7, 0.8), (0.9, 0.95)),
    n_peers: int = 100,
    rng_seed: int = 53,
) -> List[BoundsPoint]:
    """Sweep Upper-Bound-IntraPID / InterPID on the Fig. 6 scenario."""
    from repro.experiments.comparison import build_p4p_tracker, make_population
    from repro.experiments.fig6_internet import (
        abilene_internet_topology,
        default_config,
    )
    from repro.network.library import PROTECTED_LINK
    from repro.simulator.swarm import SwarmSimulation

    topo = abilene_internet_topology()
    routing = RoutingTable.build(topo)
    config = default_config(n_peers=n_peers, rng_seed=rng_seed)
    points = []
    for upper_intra, upper_inter in bounds:
        peers, seeds = make_population(topo, config)
        tracker = build_p4p_tracker(topo, config)
        tracker.selector.upper_intra = upper_intra
        tracker.selector.upper_inter = upper_inter
        sim = SwarmSimulation(
            topo,
            routing,
            config.swarm_config(rng_seed=rng_seed),
            tracker.selector,
            peers,
            seeds,
            tracker_hook=tracker.tracker_hook,
        )
        result = sim.run(until=1_000_000.0)
        points.append(
            BoundsPoint(
                upper_intra=upper_intra,
                upper_inter=upper_inter,
                mean_completion=result.mean_completion(),
                bottleneck_mbit=result.link_traffic_mbit.get(PROTECTED_LINK, 0.0),
            )
        )
    return points
