"""Tests for session demands and the application-side LPs (eqs. 1-7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import (
    SessionDemand,
    TrafficPattern,
    combine_link_loads,
    max_matching_throughput,
    min_cost_traffic,
)
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from tests.conftest import view_of


def two_pid_session(u1=10.0, d1=10.0, u2=10.0, d2=10.0, rho=None):
    return SessionDemand(
        name="s",
        uploads={"A": u1, "B": u2},
        downloads={"A": d1, "B": d2},
        rho=rho or {},
    )


def outgoing(pattern, pid):
    return sum(v for (src, _), v in pattern.flows.items() if src == pid)


def incoming(pattern, pid):
    return sum(v for (_, dst), v in pattern.flows.items() if dst == pid)


def pdistances(pab=1.0, pba=1.0):
    return view_of(("A", "B"), {("A", "B"): pab, ("B", "A"): pba})


class TestTrafficPattern:
    def test_total_and_flow(self):
        pattern = TrafficPattern(flows={("A", "B"): 3.0, ("B", "A"): 2.0})
        assert pattern.total() == 5.0
        assert pattern.flow("A", "B") == 3.0
        assert pattern.flow("B", "C") == 0.0

    def test_incoming_outgoing(self):
        # The per-PID sums the LP bound checks below rely on.
        pattern = TrafficPattern(flows={("A", "B"): 3.0, ("C", "B"): 2.0})
        assert incoming(pattern, "B") == 5.0
        assert outgoing(pattern, "A") == 3.0

    def test_self_flow_rejected(self):
        with pytest.raises(ValueError):
            TrafficPattern(flows={("A", "A"): 1.0})

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            TrafficPattern(flows={("A", "B"): -1.0})

    def test_cost(self):
        pattern = TrafficPattern(flows={("A", "B"): 4.0})
        assert pattern.cost(pdistances(pab=2.0)) == 8.0

    def test_blend(self):
        current = TrafficPattern(flows={("A", "B"): 0.0})
        target = TrafficPattern(flows={("A", "B"): 10.0})
        halfway = current.blend(target, 0.5)
        assert halfway.flow("A", "B") == 5.0

    def test_blend_theta_one_reaches_target(self):
        current = TrafficPattern(flows={("A", "B"): 3.0})
        target = TrafficPattern(flows={("B", "A"): 7.0})
        result = current.blend(target, 1.0)
        assert result.flow("B", "A") == 7.0
        assert result.flow("A", "B") == 0.0

    def test_blend_validates_theta(self):
        with pytest.raises(ValueError):
            TrafficPattern.zero().blend(TrafficPattern.zero(), 1.5)

    def test_link_loads(self):
        topo = abilene()
        routing = RoutingTable.build(topo)
        pattern = TrafficPattern(flows={("SEAT", "NYCM"): 5.0})
        loads = combine_link_loads([pattern], routing)
        for key in routing.route("SEAT", "NYCM"):
            assert loads[key] == 5.0


class TestSessionDemand:
    def test_pids(self):
        assert set(two_pid_session().pids) == {"A", "B"}

    def test_pairs(self):
        assert set(two_pid_session().pairs()) == {("A", "B"), ("B", "A")}

    def test_mismatched_pids_rejected(self):
        with pytest.raises(ValueError):
            SessionDemand(name="s", uploads={"A": 1.0}, downloads={"B": 1.0})

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SessionDemand(name="s", uploads={"A": -1.0}, downloads={"A": 1.0})

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            two_pid_session(rho={("A", "A"): 0.1})
        with pytest.raises(ValueError):
            two_pid_session(rho={("A", "B"): 1.2})

    def test_rho_sum_must_stay_below_one(self):
        with pytest.raises(ValueError):
            SessionDemand(
                name="s",
                uploads={"A": 1.0, "B": 1.0, "C": 1.0},
                downloads={"A": 1.0, "B": 1.0, "C": 1.0},
                rho={("A", "B"): 0.6, ("A", "C"): 0.5},
            )
        SessionDemand(
            name="s",
            uploads={"A": 1.0, "B": 1.0, "C": 1.0},
            downloads={"A": 1.0, "B": 1.0, "C": 1.0},
            rho={("A", "B"): 0.4, ("A", "C"): 0.5},
        )


class TestMatchingLp:
    def test_symmetric_session(self):
        opt, pattern = max_matching_throughput(two_pid_session())
        # Each side can upload 10 and download 10 -> total matched 20.
        assert opt == pytest.approx(20.0)
        assert pattern.total() == pytest.approx(20.0)

    def test_upload_limited(self):
        opt, _ = max_matching_throughput(two_pid_session(u1=1.0, u2=1.0))
        assert opt == pytest.approx(2.0)

    def test_download_limited(self):
        opt, _ = max_matching_throughput(two_pid_session(d1=3.0, d2=0.0))
        assert opt == pytest.approx(3.0)

    def test_empty_session(self):
        session = SessionDemand(name="s", uploads={}, downloads={})
        opt, pattern = max_matching_throughput(session)
        assert opt == 0.0
        assert pattern.total() == 0.0

    def test_respects_capacities(self):
        session = SessionDemand(
            name="s",
            uploads={"A": 5.0, "B": 7.0, "C": 3.0},
            downloads={"A": 4.0, "B": 6.0, "C": 9.0},
        )
        _, pattern = max_matching_throughput(session)
        for pid in session.pids:
            assert outgoing(pattern, pid) <= session.uploads[pid] + 1e-6
            assert incoming(pattern, pid) <= session.downloads[pid] + 1e-6


class TestMinCostLp:
    def test_prefers_cheap_pairs(self):
        session = SessionDemand(
            name="s",
            uploads={"A": 10.0, "B": 10.0, "C": 10.0},
            downloads={"A": 10.0, "B": 10.0, "C": 10.0},
        )
        pmap = view_of(
            ("A", "B", "C"),
            {
                ("A", "B"): 1.0, ("B", "A"): 1.0,
                ("A", "C"): 100.0, ("C", "A"): 100.0,
                ("B", "C"): 100.0, ("C", "B"): 100.0,
            },
        )
        pattern = min_cost_traffic(session, pmap, beta=0.5)
        cheap = pattern.flow("A", "B") + pattern.flow("B", "A")
        expensive = pattern.total() - cheap
        assert cheap >= expensive

    def test_throughput_floor_met(self):
        session = two_pid_session()
        opt, _ = max_matching_throughput(session)
        pattern = min_cost_traffic(session, pdistances(), beta=0.8, opt=opt)
        assert pattern.total() >= 0.8 * opt - 1e-6

    def test_beta_zero_allows_empty(self):
        pattern = min_cost_traffic(two_pid_session(), pdistances(), beta=0.0)
        assert pattern.total() == pytest.approx(0.0, abs=1e-6)

    def test_robustness_bound_enforced(self):
        session = SessionDemand(
            name="s",
            uploads={"A": 10.0, "B": 10.0, "C": 10.0},
            downloads={"A": 10.0, "B": 10.0, "C": 10.0},
            rho={("A", "C"): 0.3},
        )
        pmap = view_of(
            ("A", "B", "C"),
            {
                ("A", "B"): 1.0, ("B", "A"): 1.0,
                ("A", "C"): 100.0, ("C", "A"): 100.0,
                ("B", "C"): 1.0, ("C", "B"): 1.0,
            },
        )
        pattern = min_cost_traffic(session, pmap, beta=0.8)
        out_a = outgoing(pattern, "A")
        if out_a > 1e-6:
            assert pattern.flow("A", "C") >= 0.3 * out_a - 1e-6

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            min_cost_traffic(two_pid_session(), pdistances(), beta=1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_cost_never_exceeds_matching_pattern_cost(self, u, d, beta):
        """The min-cost pattern is never costlier than the throughput-optimal
        one at the same floor."""
        session = two_pid_session(u1=u, d1=d, u2=u, d2=d)
        pmap = pdistances(pab=2.0, pba=3.0)
        opt, matching = max_matching_throughput(session)
        cheap = min_cost_traffic(session, pmap, beta=beta, opt=opt)
        assert cheap.cost(pmap) <= matching.cost(pmap) + 1e-6


class TestSessionLpProperties:
    """Property tests: LP solutions always respect the acceptable set."""

    @staticmethod
    def sessions():
        return st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.floats(min_value=0.0, max_value=50.0),
                    min_size=n, max_size=n,
                ),
                st.lists(
                    st.floats(min_value=0.0, max_value=50.0),
                    min_size=n, max_size=n,
                ),
            )
        )

    @settings(max_examples=40, deadline=None)
    @given(sessions(), st.floats(min_value=0.0, max_value=1.0))
    def test_min_cost_respects_caps_and_floor(self, caps, beta):
        uploads, downloads = caps
        pids = [f"P{i}" for i in range(len(uploads))]
        session = SessionDemand(
            name="prop",
            uploads=dict(zip(pids, uploads)),
            downloads=dict(zip(pids, downloads)),
        )
        distances = {
            (a, b): float((i * 7 + j * 3) % 11 + 1)
            for i, a in enumerate(pids)
            for j, b in enumerate(pids)
            if a != b
        }
        pmap = view_of(tuple(pids), distances)
        opt, _ = max_matching_throughput(session)
        pattern = min_cost_traffic(session, pmap, beta=beta, opt=opt)
        for pid in pids:
            assert outgoing(pattern, pid) <= session.uploads[pid] + 1e-6
            assert incoming(pattern, pid) <= session.downloads[pid] + 1e-6
        assert pattern.total() >= beta * opt - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(sessions())
    def test_matching_opt_bounded_by_capacity_sums(self, caps):
        uploads, downloads = caps
        pids = [f"P{i}" for i in range(len(uploads))]
        session = SessionDemand(
            name="prop",
            uploads=dict(zip(pids, uploads)),
            downloads=dict(zip(pids, downloads)),
        )
        opt, pattern = max_matching_throughput(session)
        assert opt <= min(sum(uploads), sum(downloads)) + 1e-6
        assert pattern.total() == pytest.approx(opt, abs=1e-6)
