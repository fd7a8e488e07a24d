"""Tests for the event engine and the session-level TCP flow network."""

import numpy as np
import pytest

from repro.simulator.engine import EventEngine
from repro.simulator.tcp import FlowNetwork, VectorizedFlowNetwork


class TestEventEngine:
    def test_timers_fire_in_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.run_timers_until(3.0)
        assert fired == ["a", "b"]
        assert engine.now == 3.0

    def test_same_time_fifo(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(1.0, lambda: fired.append(2))
        engine.run_timers_until(1.0)
        assert fired == [1, 2]

    def test_cancel(self):
        engine = EventEngine()
        fired = []
        timer = engine.schedule(1.0, lambda: fired.append("x"))
        engine.cancel(timer)
        engine.run_timers_until(2.0)
        assert fired == []
        assert engine.pending == 0

    def test_callback_can_schedule(self):
        engine = EventEngine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(0.5, lambda: fired.append("second"))

        engine.schedule(1.0, first)
        engine.run_timers_until(2.0)
        assert fired == ["first", "second"]

    def test_future_timers_not_fired(self):
        engine = EventEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("late"))
        engine.run_timers_until(2.0)
        assert fired == []
        assert engine.pending == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventEngine().schedule(-1.0, lambda: None)

    def test_peek_time(self):
        engine = EventEngine()
        assert engine.peek_time() is None
        engine.schedule(3.0, lambda: None)
        assert engine.peek_time() == 3.0

    def test_time_cannot_reverse(self):
        engine = EventEngine()
        engine.advance_to(5.0)
        with pytest.raises(ValueError):
            engine.advance_to(2.0)


@pytest.fixture
def net(request):
    """A fresh network of the requesting test class's ``engine_cls``."""
    return request.cls.engine_cls()


class TestFlowNetwork:
    """The flow-network contract, asserted here on the reference oracle and,
    through the subclasses below, on the engine every simulation runs."""

    engine_cls = FlowNetwork

    def test_single_flow_completion_time(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 50.0)
        assert net.next_completion() == pytest.approx(5.0)

    def test_two_flows_share_link(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 50.0)
        net.start_flow([link], 50.0)
        assert net.next_completion() == pytest.approx(10.0)

    def test_advance_and_finish(self, net):
        link = net.add_link("l", 10.0)
        flow = net.start_flow([link], 50.0)
        net.advance(5.0)
        done = net.pop_finished()
        assert [f.flow_id for f in done] == [flow.flow_id]
        assert net.n_flows == 0

    def test_partial_progress(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 50.0)
        net.advance(2.0)
        assert net.pop_finished() == []
        assert net.next_completion() == pytest.approx(5.0)

    def test_rates_adapt_on_arrival(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 100.0)
        net.advance(2.0)  # 20 mbit done, 80 left
        net.start_flow([link], 100.0)
        # Both now at 5 Mbps: first finishes at 2 + 80/5 = 18.
        assert net.next_completion() == pytest.approx(18.0)

    def test_rates_adapt_on_departure(self, net):
        link = net.add_link("l", 10.0)
        first = net.start_flow([link], 100.0)
        net.start_flow([link], 100.0)
        net.advance(2.0)  # each did 10
        net.abort_flow(first.flow_id)
        # Remaining flow accelerates to 10 Mbps: 90 left -> t = 11.
        assert net.next_completion() == pytest.approx(11.0)

    def test_link_byte_accounting(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 50.0)
        net.advance(3.0)
        assert net.link_traffic()["l"] == pytest.approx(30.0)

    def test_accounting_across_rate_changes(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 20.0)
        net.advance(2.0)  # done at t=2 exactly
        net.pop_finished()
        net.advance(5.0)  # idle
        net.start_flow([link], 10.0)
        net.advance(6.0)
        assert net.link_traffic()["l"] == pytest.approx(30.0)

    def test_multilink_flow_takes_min(self, net):
        a = net.add_link("a", 10.0)
        b = net.add_link("b", 4.0)
        net.start_flow([a, b], 8.0)
        assert net.next_completion() == pytest.approx(2.0)

    def test_utilization(self, net):
        a = net.add_link("a", 10.0)
        net.start_flow([a], 100.0)
        assert net.utilization(a) == pytest.approx(1.0)

    def test_idle_network(self, net):
        net.add_link("a", 10.0)
        assert net.next_completion() is None
        assert net.pop_finished() == []

    def test_duplicate_link_name_rejected(self, net):
        net.add_link("a", 10.0)
        with pytest.raises(ValueError):
            net.add_link("a", 5.0)

    def test_bad_flow_size_rejected(self, net):
        net.add_link("a", 10.0)
        with pytest.raises(ValueError):
            net.start_flow([0], 0.0)

    def test_unknown_link_index_rejected(self, net):
        net.add_link("a", 10.0)
        with pytest.raises(IndexError):
            net.start_flow([5], 1.0)

    def test_clock_monotonic(self, net):
        net.add_link("a", 10.0)
        net.advance(5.0)
        with pytest.raises(ValueError):
            net.advance(1.0)

    def test_conservation_many_flows(self, net):
        """Total delivered Mbit equals total link Mbit on a single link."""
        link = net.add_link("l", 7.0)
        sizes = [5.0, 9.0, 3.0, 14.0]
        for size in sizes:
            net.start_flow([link], size)
        total_done = 0.0
        for _ in range(10):
            eta = net.next_completion()
            if eta is None:
                break
            net.advance(eta)
            for flow in net.pop_finished():
                total_done += 1
        assert total_done == len(sizes)
        assert net.link_traffic()["l"] == pytest.approx(sum(sizes), rel=1e-6)


class TestFlowRateCaps:
    engine_cls = FlowNetwork

    def test_cap_binds_below_fair_share(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 10.0, rate_cap=2.0)
        net.start_flow([link], 10.0)
        # Capped flow at 2; the other takes the remaining 8.
        assert net.next_completion() == pytest.approx(10.0 / 8.0)

    def test_cap_above_share_is_inert(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 10.0, rate_cap=100.0)
        net.start_flow([link], 10.0, rate_cap=100.0)
        assert net.next_completion() == pytest.approx(2.0)

    def test_capped_flow_without_links(self, net):
        net.add_link("l", 10.0)
        flow = net.start_flow([], 4.0, rate_cap=2.0)
        net.advance(2.0)
        done = net.pop_finished()
        assert [f.flow_id for f in done] == [flow.flow_id]

    def test_nonpositive_cap_rejected(self, net):
        net.add_link("l", 10.0)
        with pytest.raises(ValueError):
            net.start_flow([0], 1.0, rate_cap=0.0)

    def test_accounting_respects_caps(self, net):
        link = net.add_link("l", 10.0)
        net.start_flow([link], 100.0, rate_cap=3.0)
        net.advance(2.0)
        assert net.link_traffic()["l"] == pytest.approx(6.0)


class TestVectorizedFlowNetwork(TestFlowNetwork):
    engine_cls = VectorizedFlowNetwork


class TestVectorizedFlowRateCaps(TestFlowRateCaps):
    engine_cls = VectorizedFlowNetwork


class TestRegressionsFromDifferentialHarness:
    """Bugs the scalar-vs-vectorized differential harness uncovered."""

    @pytest.mark.parametrize("engine_cls", [FlowNetwork, VectorizedFlowNetwork])
    def test_uncapped_linkless_flow_pops_immediately(self, engine_cls):
        """An unconstrained flow (no links, no cap) has infinite rate and
        must complete without the clock moving.  The scalar engine used to
        report next_completion == now forever without ever popping the
        flow, spinning any driving loop.
        """
        net = engine_cls()
        net.add_link("l", 10.0)  # unrelated link; the flow crosses nothing
        flow = net.start_flow([], 4.0)
        assert net.next_completion() == pytest.approx(0.0)
        done = net.pop_finished()
        assert [f.flow_id for f in done] == [flow.flow_id]
        assert done[0].remaining_mbit == 0.0
        assert net.next_completion() is None

    @pytest.mark.parametrize("engine_cls", [FlowNetwork, VectorizedFlowNetwork])
    def test_linkless_solve_keeps_link_rates_float(self, engine_cls):
        """A solve over only linkless flows used to rebind the link-rate
        array to int64 (numpy's bincount returns integers for an empty
        entry set even with weights), silently truncating every rate
        written afterwards -- e.g. a 10.12 Mbps allocation stored as 10.
        """
        net = engine_cls()
        link = net.add_link("l", 10.121)
        net.start_flow([], 1.0, rate_cap=2.0)
        net.next_completion()  # solve with zero link-crossing entries
        net.start_flow([link], 50.0)
        net.next_completion()
        assert net._link_rates.dtype == np.float64
        assert net.utilization(link) == pytest.approx(1.0)
