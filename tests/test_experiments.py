"""Smoke + shape tests for the experiment harnesses (small scales).

The benchmarks run the full-size experiments; these tests exercise the
same code paths quickly and pin the qualitative invariants.
"""

import pytest

from repro.experiments.comparison import (
    ComparisonConfig,
    build_p4p_tracker,
    make_population,
    run_comparison,
)
from repro.experiments.fig6_internet import (
    ABILENE_POPULATION,
    abilene_internet_topology,
    run_fig6,
)
from repro.experiments.fig7_fig8_sweep import run_sweep, sweep_config
from repro.experiments.fig9_liveswarms import run_fig9
from repro.experiments.fig10_interdomain import interdomain_topology
from repro.experiments.sec8_swarms import run_sec8
from repro.experiments.table1_topologies import format_table1, run_table1
from repro.network.library import PROTECTED_LINK, abilene
from repro.network.routing import RoutingTable


class TestComparisonHarness:
    def test_population_is_deterministic(self):
        topo = abilene()
        config = ComparisonConfig(n_peers=20, rng_seed=5)
        peers_a, seeds_a = make_population(topo, config)
        peers_b, seeds_b = make_population(topo, config)
        assert [p.pid for p in peers_a] == [p.pid for p in peers_b]
        assert seeds_a[0].pid == seeds_b[0].pid

    def test_unknown_scheme_rejected(self):
        topo = abilene()
        routing = RoutingTable.build(topo)
        from repro.experiments.comparison import run_scheme

        with pytest.raises(ValueError):
            run_scheme(topo, routing, ComparisonConfig(n_peers=5), "bogus")

    def test_p4p_tracker_covers_all_ases(self):
        topo = abilene(as_number=123)
        tracker = build_p4p_tracker(topo, ComparisonConfig())
        assert set(tracker.itrackers) == {123}

    def test_run_comparison_fixes_common_bottleneck(self):
        topo = abilene_internet_topology()
        config = ComparisonConfig(
            n_peers=20, neighbors=6, join_window=10.0, rng_seed=3,
            completion_quantum=0.1,
        )
        outcomes = run_comparison(topo, config, schemes=("native", "p4p"))
        assert outcomes["native"].bottleneck_link == outcomes["p4p"].bottleneck_link


class TestFig6:
    def test_internet_topology_hot_link(self):
        topo = abilene_internet_topology(background_mlu=0.9)
        utilizations = {
            key: link.background / link.capacity for key, link in topo.links.items()
        }
        hottest = max(utilizations, key=utilizations.get)
        assert hottest in (PROTECTED_LINK, tuple(reversed(PROTECTED_LINK)))
        assert utilizations[hottest] == pytest.approx(0.9)

    def test_small_run_has_all_schemes(self):
        fig6 = run_fig6(n_peers=16, n_runs=1)
        assert set(fig6.outcomes) == {"native", "localized", "p4p"}
        for scheme in fig6.outcomes:
            assert len(fig6.cdf(scheme)) == 16

    def test_multi_run_aggregates_clients(self):
        fig6 = run_fig6(n_peers=10, n_runs=2)
        assert len(fig6.cdf("native")) == 20

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            run_fig6(n_peers=10, n_runs=0)


class TestSweep:
    def test_points_cover_sizes(self):
        topo = abilene_internet_topology()
        sweep = run_sweep(
            topo, swarm_sizes=(10, 20), schemes=("native", "p4p"),
            placement_weights=ABILENE_POPULATION,
        )
        assert [point.swarm_size for point in sweep.points] == [10, 20]
        assert set(sweep.timelines) == {"native", "p4p"}

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(abilene(), swarm_sizes=())

    def test_normalized_series_bounded_for_native(self):
        topo = abilene_internet_topology()
        sweep = run_sweep(topo, swarm_sizes=(10, 15), schemes=("native",))
        assert all(v <= 1.0 + 1e-9 for _, v in sweep.normalized_series("native"))

    def test_sweep_config_batch_arrival(self):
        assert sweep_config(100).join_window == 0.0


class TestFig9:
    def test_small_streaming_comparison(self):
        fig9 = run_fig9(n_clients=10, duration=60.0)
        assert fig9.native.total_blocks == fig9.p4p.total_blocks
        assert fig9.mean_backbone_mb("native") >= 0
        assert 0 <= fig9.throughput_ratio() < 10


class TestFig10Topology:
    def test_partition_and_estimates(self):
        topo, estimates = interdomain_topology(history_intervals=120)
        assert len(topo.interdomain_links) == 4
        assert set(estimates) == {link.key for link in topo.interdomain_links}
        assert all(v >= 0 for v in estimates.values())
        # Estimates are installed on the links.
        for link in topo.interdomain_links:
            assert link.virtual_capacity == pytest.approx(estimates[link.key])


class TestTable1:
    def test_rows(self):
        rows = run_table1()
        names = [row.network for row in rows]
        assert names == ["Abilene", "ISP-A", "ISP-B", "ISP-C"]

    def test_format(self):
        text = format_table1(run_table1())
        assert "Abilene" in text and "ISP-C" in text


class TestSec8:
    def test_tail_matches_paper_within_factor_two(self):
        result = run_sec8(n_swarms=20_000)
        assert result.within_factor_two

    def test_model_tail_close_to_empirical(self):
        result = run_sec8(n_swarms=20_000)
        assert result.empirical_tail == pytest.approx(result.model_tail, abs=0.005)
