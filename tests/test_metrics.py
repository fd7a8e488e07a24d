"""Tests for the evaluation metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.simulator.swarm import UtilizationSample


class TestCompletionMetrics:
    def test_mean(self):
        assert mean_completion({1: 10.0, 2: 20.0}) == 15.0

    def test_mean_empty(self):
        assert mean_completion({}) == 0.0

    def test_cdf(self):
        cdf = completion_cdf({1: 30.0, 2: 10.0, 3: 20.0})
        assert cdf == [(10.0, pytest.approx(1 / 3)), (20.0, pytest.approx(2 / 3)), (30.0, pytest.approx(1.0))]

    def test_percentile(self):
        times = {i: float(i) for i in range(1, 101)}
        assert percentile_completion(times, 0.5) == pytest.approx(50.5)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile_completion({}, 0.5)
        with pytest.raises(ValueError):
            percentile_completion({1: 1.0}, 1.5)

    def test_improvement_percent(self):
        # Paper: 9460 -> 7312 is ~23%.
        assert improvement_percent(9460.0, 7312.0) == pytest.approx(22.7, abs=0.1)

    def test_excess_percent(self):
        # Paper: 4164 vs 2481 is ~68% higher.
        assert excess_percent(4164.0, 2481.0) == pytest.approx(67.8, abs=0.1)

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            improvement_percent(0.0, 1.0)
        with pytest.raises(ValueError):
            excess_percent(1.0, 0.0)

    @settings(max_examples=50)
    @given(st.dictionaries(st.integers(), st.floats(min_value=0.1, max_value=1e5), min_size=1, max_size=50))
    def test_cdf_is_monotone(self, times):
        cdf = completion_cdf(times)
        values = [t for t, _ in cdf]
        fracs = [f for _, f in cdf]
        assert values == sorted(values)
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)


class TestBdp:
    def test_unit_bdp(self):
        traffic = {("A", "B"): 100.0, ("B", "C"): 50.0}
        assert unit_bdp(traffic, payload_mbit=50.0) == pytest.approx(3.0)

    def test_unit_bdp_validation(self):
        with pytest.raises(ValueError):
            unit_bdp({}, 0.0)

    def test_mean_pid_pair_hops(self):
        routing = RoutingTable.build(abilene())
        mean_hops = mean_pid_pair_hops(routing)
        assert 1.5 < mean_hops < 5.0

    def test_mean_pid_pair_hops_needs_pids(self):
        routing = RoutingTable.build(abilene())
        with pytest.raises(ValueError):
            mean_pid_pair_hops(routing, pids=["SEAT"])


class TestBottleneck:
    def test_most_utilized_by_relative_load(self):
        topo = abilene()
        topo.links[("SEAT", "SNVA")].capacity = 100.0
        traffic = {("SEAT", "SNVA"): 50.0, ("WASH", "NYCM"): 400.0}
        assert most_utilized_link(topo, traffic) == ("SEAT", "SNVA")

    def test_most_utilized_requires_traffic(self):
        with pytest.raises(ValueError):
            most_utilized_link(abilene(), {})

    def test_bottleneck_traffic_explicit_link(self):
        topo = abilene()
        traffic = {("WASH", "NYCM"): 7.0}
        assert bottleneck_traffic(topo, traffic, link=("WASH", "NYCM")) == 7.0
        assert bottleneck_traffic(topo, traffic, link=("SEAT", "SNVA")) == 0.0

    def make_samples(self):
        return [
            UtilizationSample(time=t, max_utilization=u, link_utilization={("A", "B"): u / 2})
            for t, u in ((0.0, 0.1), (10.0, 0.5), (20.0, 0.3))
        ]

    def test_timeline_max(self):
        series = utilization_timeline(self.make_samples())
        assert series == [(0.0, 0.1), (10.0, 0.5), (20.0, 0.3)]

    def test_timeline_specific_link(self):
        series = utilization_timeline(self.make_samples(), link=("A", "B"))
        assert series[1] == (10.0, 0.25)


class TestChargingMetrics:
    def test_volumes_per_interval(self):
        series = [(0.0, 0.0), (30.0, 30.0), (60.0, 50.0), (90.0, 90.0), (120.0, 100.0)]
        volumes = volumes_per_interval(series, interval_seconds=60.0)
        assert volumes == [pytest.approx(50.0), pytest.approx(50.0)]

    def test_volumes_empty(self):
        assert volumes_per_interval([], 60.0) == []

    def test_volumes_validation(self):
        with pytest.raises(ValueError):
            volumes_per_interval([(0.0, 0.0)], 0.0)

    def test_charging_from_samples(self):
        series = {
            ("A", "B"): [(float(t), float(t)) for t in range(0, 601, 30)],
        }
        volumes = charging_volumes_from_samples(series, interval_seconds=60.0, q=0.95)
        # Constant 60 Mbit per 60 s interval.
        assert volumes[("A", "B")] == pytest.approx(60.0)

    def test_charging_empty_series(self):
        volumes = charging_volumes_from_samples({("A", "B"): []}, 60.0)
        assert volumes[("A", "B")] == 0.0


class TestTrafficLedger:
    def make_ledger(self):
        return TrafficLedger(
            isp_as=100,
            metro_of={"P1": "NY", "P2": "NY", "P3": "LA"},
        )

    def test_categories(self):
        ledger = self.make_ledger()
        ledger.record("X", 999, "Y", 999, 10.0)
        ledger.record("X", 999, "P1", 100, 20.0)
        ledger.record("P1", 100, "X", 999, 30.0)
        ledger.record("P1", 100, "P2", 100, 40.0)
        ledger.record("P1", 100, "P3", 100, 50.0)
        assert ledger.external_external == 10.0
        assert ledger.external_to_isp == 20.0
        assert ledger.isp_to_external == 30.0
        assert ledger.intra_same_metro == 40.0
        assert ledger.intra_cross_metro == 50.0
        assert ledger.total == 150.0

    def test_localization_percent(self):
        ledger = self.make_ledger()
        ledger.record("P1", 100, "P2", 100, 58.0)
        ledger.record("P1", 100, "P3", 100, 42.0)
        assert ledger.localization_percent() == pytest.approx(58.0)

    def test_localization_empty(self):
        assert self.make_ledger().localization_percent() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self.make_ledger().record("P1", 100, "P2", 100, -1.0)

    def test_table_rows(self):
        ledger = self.make_ledger()
        ledger.record("P1", 100, "P2", 100, 5.0)
        table = ledger.as_table()
        assert table["ISP <-> ISP"] == 5.0
        assert table["Total"] == 5.0

    def test_ratios(self):
        native = self.make_ledger()
        p4p = self.make_ledger()
        native.record("P1", 100, "X", 999, 17.0)
        p4p.record("P1", 100, "X", 999, 10.0)
        ratios = localization_ratio(native, p4p)
        assert ratios["ISP -> External"] == pytest.approx(1.7)

    def test_ratio_inf_when_p4p_zero(self):
        native = self.make_ledger()
        p4p = self.make_ledger()
        native.record("X", 999, "Y", 999, 1.0)
        assert localization_ratio(native, p4p)["External <-> External"] == float("inf")
