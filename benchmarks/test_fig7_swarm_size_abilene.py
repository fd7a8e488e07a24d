"""Fig. 7: swarm-size sweep on Abilene.

Paper's shape: P4P improves completion ~20% over native across sizes (7a)
and cuts bottleneck utilization by ~4x at the largest size (7b).
"""

from conftest import print_rows

from repro.experiments.fig7_fig8_sweep import run_fig7


def test_fig7_swarm_size_abilene(benchmark, bench_scale):
    sweep = benchmark.pedantic(
        lambda: run_fig7(swarm_sizes=bench_scale["sweep_sizes"]),
        rounds=1,
        iterations=1,
    )
    rows = []
    for point in sweep.points:
        rows.append(
            f"size {point.swarm_size:4d}: "
            + "  ".join(
                f"{scheme} {point.mean_completion[scheme]:6.1f}s"
                for scheme in ("native", "localized", "p4p")
            )
        )
    peak = {
        scheme: max((u for _, u in series), default=0.0)
        for scheme, series in sweep.timelines.items()
    }
    rows.append(
        "peak bottleneck utilization (largest size): "
        + "  ".join(f"{scheme} {peak[scheme]:.4f}" for scheme in peak)
    )
    rows.append(
        f"p4p completion improvement over native: {sweep.improvement_percent('p4p'):.1f}% "
        "(paper: ~20%)"
    )
    print_rows("Fig. 7 (Abilene swarm-size sweep)", rows)

    # 7a: P4P never slower than native on average across the sweep.
    assert sweep.improvement_percent("p4p") > 0
    # 7b: native's bottleneck-link utilization peaks above P4P's.
    assert peak["native"] > peak["p4p"]
