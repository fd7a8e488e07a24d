"""Tests for provider objectives and the centralized LP benchmarks."""

import pytest

from repro.core.objectives import (
    BandwidthDistanceProduct,
    MinMaxUtilization,
    apply_peak_background,
    effective_capacity,
)
from repro.core.session import SessionDemand, max_matching_throughput
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.network.topology import Link, Topology


def small_topology():
    """A--B--C line plus a long A--C detour; capacities 10 everywhere."""
    topo = Topology()
    for pid in "ABC":
        topo.add_pid(pid)
    topo.add_edge("A", "B", capacity=10.0, distance=1.0)
    topo.add_edge("B", "C", capacity=10.0, distance=1.0)
    topo.add_edge("A", "C", capacity=10.0, distance=5.0)
    return topo


def session_on(pids, cap=4.0):
    return SessionDemand(
        name="s",
        uploads={pid: cap for pid in pids},
        downloads={pid: cap for pid in pids},
    )


class TestEffectiveCapacity:
    def test_plain_link(self):
        link = Link(src="A", dst="B", capacity=10.0)
        assert effective_capacity(link) == 10.0

    def test_interdomain_without_estimate(self):
        link = Link(src="A", dst="B", capacity=10.0, interdomain=True)
        assert effective_capacity(link) == 10.0

    def test_interdomain_with_virtual_capacity(self):
        link = Link(
            src="A", dst="B", capacity=10.0, interdomain=True, virtual_capacity=3.0
        )
        assert effective_capacity(link) == 3.0

    def test_zero_virtual_capacity_clamped(self):
        link = Link(
            src="A", dst="B", capacity=10.0, interdomain=True, virtual_capacity=0.0
        )
        assert effective_capacity(link) > 0


class TestMinMaxUtilization:
    def test_evaluate(self):
        topo = small_topology()
        topo.link("A", "B").background = 5.0
        mlu = MinMaxUtilization()
        value = mlu.evaluate(topo, {("A", "B"): 2.0})
        assert value == pytest.approx(0.7)

    def test_supergradient_sign(self):
        """The most-utilized link gets the largest gradient component."""
        topo = small_topology()
        mlu = MinMaxUtilization()
        order = tuple(topo.links)
        loads = {("A", "B"): 8.0, ("B", "C"): 1.0}
        xi = mlu.supergradient(topo, order, loads)
        hot = order.index(("A", "B"))
        assert xi[hot] == max(xi)
        assert xi[hot] == pytest.approx(0.0)  # at alpha * c_e exactly

    def test_no_cost_offsets(self):
        assert MinMaxUtilization().cost_offsets(small_topology()) == {}

    def test_centralized_optimum_value(self):
        topo = small_topology()
        routing = RoutingTable.build(topo)
        session = session_on(["A", "C"], cap=8.0)
        mlu = MinMaxUtilization()
        value, patterns = mlu.centralized_optimum(topo, routing, [session], beta=1.0)
        # Routing pins A<->C to the direct link, so 8 Mbps each way over
        # capacity 10 gives MLU 0.8; throughput floor 16 is met exactly.
        assert value == pytest.approx(0.8, rel=1e-6)
        assert patterns[0].total() >= 16 - 1e-6

    def test_centralized_respects_virtual_capacity(self):
        topo = small_topology()
        topo.link("A", "C").interdomain = True
        topo.link("A", "C").virtual_capacity = 1.0
        routing = RoutingTable.build(topo)
        session = session_on(["A", "C"], cap=3.0)
        mlu = MinMaxUtilization()
        _, patterns = mlu.centralized_optimum(topo, routing, [session], beta=0.5)
        load_ac = patterns[0].link_loads(routing).get(("A", "C"), 0.0)
        assert load_ac <= 1.0 + 1e-6
        assert patterns[0].total() >= 3.0 - 1e-6


class TestBandwidthDistanceProduct:
    def test_cost_offsets_are_distances(self):
        topo = small_topology()
        offsets = BandwidthDistanceProduct().cost_offsets(topo)
        assert offsets[("A", "C")] == 5.0

    def test_evaluate(self):
        topo = small_topology()
        bdp = BandwidthDistanceProduct()
        assert bdp.evaluate(topo, {("A", "C"): 2.0}) == pytest.approx(10.0)

    def test_supergradient(self):
        topo = small_topology()
        bdp = BandwidthDistanceProduct()
        order = tuple(topo.links)
        xi = bdp.supergradient(topo, order, {("A", "B"): 4.0})
        index = order.index(("A", "B"))
        assert xi[index] == pytest.approx(4.0 - 10.0)

    def test_centralized_prefers_short_path(self):
        topo = small_topology()
        routing = RoutingTable.build(topo)
        # Make the short path the routing choice for (A, C): weight the
        # direct long link out of favor.
        topo.link("A", "C").ospf_weight = 10.0
        topo.link("C", "A").ospf_weight = 10.0
        routing = RoutingTable.build(topo)
        session = session_on(["A", "C"], cap=2.0)
        bdp = BandwidthDistanceProduct()
        value, patterns = bdp.centralized_optimum(topo, routing, [session], beta=1.0)
        # All traffic A<->C now rides the 2-hop distance-2 path: BDP = 4 * 2.
        assert value == pytest.approx(8.0, rel=1e-6)


class TestPeakBackground:
    def test_applies_peaks(self):
        topo = small_topology()
        peaked = apply_peak_background(topo, {("A", "B"): 9.0})
        assert peaked.link("A", "B").background == 9.0
        assert topo.link("A", "B").background == 0.0  # original untouched

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            apply_peak_background(small_topology(), {("X", "Y"): 1.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            apply_peak_background(small_topology(), {("A", "B"): -1.0})


class TestCentralizedOnAbilene:
    def test_mlu_beats_all_on_one_link(self):
        """The centralized optimum never exceeds the MLU of naive routing."""
        topo = abilene()
        routing = RoutingTable.build(topo)
        pids = ["SEAT", "NYCM", "CHIN", "ATLA"]
        session = SessionDemand(
            name="swarm",
            uploads={pid: 100.0 for pid in pids},
            downloads={pid: 100.0 for pid in pids},
        )
        mlu = MinMaxUtilization()
        optimum, patterns = mlu.centralized_optimum(topo, routing, [session], beta=1.0)
        # Naive: send the matching-optimal pattern as-is.
        _, naive = max_matching_throughput(session)
        naive_value = mlu.evaluate(
            topo, naive.link_loads(routing)
        )
        assert optimum <= naive_value + 1e-9


class TestObjectiveEdgeCases:
    def test_mlu_with_virtual_capacity_in_evaluation(self):
        topo = small_topology()
        topo.link("A", "C").interdomain = True
        topo.link("A", "C").virtual_capacity = 2.0
        mlu = MinMaxUtilization()
        # 1 Mbps over a 2 Mbps virtual capacity is 50% "utilization" even
        # though the physical link is 10 Mbps.
        value = mlu.evaluate(topo, {("A", "C"): 1.0})
        assert value == pytest.approx(0.5)

    def test_bdp_ignores_zero_load_links(self):
        topo = small_topology()
        bdp = BandwidthDistanceProduct()
        assert bdp.evaluate(topo, {}) == 0.0

    def test_centralized_with_two_sessions_shares_links(self):
        topo = small_topology()
        routing = RoutingTable.build(topo)
        sessions = [
            session_on(["A", "B"], cap=4.0),
            SessionDemand(
                name="s2",
                uploads={"B": 4.0, "C": 4.0},
                downloads={"B": 4.0, "C": 4.0},
            ),
        ]
        sessions[0].name = "s1"
        mlu = MinMaxUtilization()
        value, patterns = mlu.centralized_optimum(topo, routing, sessions, beta=1.0)
        assert len(patterns) == 2
        assert patterns[0].total() > 0
        assert patterns[1].total() > 0
        assert 0 < value <= 1.0
