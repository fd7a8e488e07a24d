"""Ablation: the Peak Bandwidth objective variant (Sec. 5).

An ISP can optimize for the background traffic's *peak* rather than its
mean ("P2P traffic is deemed less-than-best-effort"): setting
``b_e = b_e(t_peak)`` and re-deriving prices.  The ablation compares the
peak-hour MLU achieved when the decomposition optimizes against mean vs
peak background.
"""

from conftest import print_rows

from repro.core.decomposition import DecompositionLoop
from repro.core.itracker import ITracker, ITrackerConfig
from repro.core.objectives import MinMaxUtilization, apply_peak_background
from repro.core.session import SessionDemand
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.network.traffic import TrafficMatrix, apply_background, scale_background_to_utilization


def _sessions(cap=3000.0):
    pids = ["SEAT", "NYCM", "CHIN", "ATLA", "LOSA", "WASH"]
    return [
        SessionDemand(
            name="swarm",
            uploads={pid: cap for pid in pids},
            downloads={pid: cap for pid in pids},
        )
    ]


def test_ablation_peak_bandwidth(benchmark):
    # Mean background at 40% MLU; peak-hour multipliers are heterogeneous
    # (1x to 3x per trunk), so the link that is hottest at the mean is not
    # the one that is hottest at the peak.
    import random

    base = abilene()
    routing = RoutingTable.build(base)
    apply_background(base, TrafficMatrix.gravity(base, 20_000.0, seed=3), routing)
    scale_background_to_utilization(base, 0.4)
    rng = random.Random(7)
    multiplier = {}
    for key in base.links:
        edge = tuple(sorted(key))
        if edge not in multiplier:
            multiplier[edge] = rng.uniform(1.0, 3.0)
    peak = apply_peak_background(
        base,
        {
            key: link.background * multiplier[tuple(sorted(key))]
            for key, link in base.links.items()
        },
    )

    def run_both():
        results = {}
        for label, topo in (("mean", base), ("peak", peak)):
            itracker = ITracker(
                topology=topo,
                config=ITrackerConfig(step_size=0.01, step_decay=0.1),
                objective=MinMaxUtilization(),
            )
            loop = DecompositionLoop(
                itracker=itracker, sessions=_sessions(), damping=0.5, beta=1.0
            )
            outcome = loop.run(n_iterations=40)
            # Evaluate BOTH plans at peak-hour background: the metric the
            # Peak Bandwidth objective cares about.
            loads = {}
            for pattern in outcome.final_patterns:
                for key, value in pattern.link_loads(routing).items():
                    loads[key] = loads.get(key, 0.0) + value
            results[label] = MinMaxUtilization().evaluate(peak, loads)
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        f"plan optimized against mean background: peak-hour MLU {results['mean']:.4f}",
        f"plan optimized against peak background: peak-hour MLU {results['peak']:.4f}",
    ]
    print_rows("Ablation: Peak Bandwidth objective", rows)

    # Optimizing against the peak never does worse at the peak.
    assert results["peak"] <= results["mean"] + 1e-6
