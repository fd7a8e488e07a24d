"""Tests for the portal resilience layer (no sockets, no wall clock).

Everything here runs on an injected clock, sleep, and seeded RNG against a
scriptable in-process portal stub -- backoff, breaker, stale-view, and
validation behaviour must be exactly reproducible.
"""

import random
from collections import deque

import pytest

from repro.apptracker.selection import P4PSelection, PeerInfo, RandomSelection
from repro.observability import ResilienceCounters
from repro.portal.client import (
    DiscoveryError,
    Integrator,
    PortalClientError,
    PortalStatus,
    PortalTransportError,
    discover_itracker,
)
from repro.portal.resilience import (
    BreakerState,
    CircuitBreaker,
    PortalUnavailable,
    ResilientPortalClient,
    RetryPolicy,
    ValidationPolicy,
    ViewValidationError,
    validate_view,
)
from tests.conftest import view_of


def make_view(scale=1.0, pids=("A", "B", "C"), intra=0.0):
    distances = {}
    for i, src in enumerate(pids):
        distances[(src, src)] = intra
        for j, dst in enumerate(pids):
            if src != dst:
                distances[(src, dst)] = scale * (1.0 + abs(i - j))
    return view_of(tuple(pids), distances)


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds):
        self.now += seconds


class StubPortal:
    """Scriptable portal backend.  Each script entry answers one fetch:

    ("ok", view, version) | ("transport", msg) | ("refuse", msg) |
    ("error", msg) | ("badparse", msg).  An empty script serves
    ``self.healthy`` with an auto-incrementing version.
    """

    def __init__(self, healthy=None):
        self.script = deque()
        self.healthy = healthy if healthy is not None else make_view()
        self.version = 1
        self.connects = 0

    def push(self, *entries):
        self.script.extend(entries)

    def factory(self, host, port, timeout=5.0):
        if self.script and self.script[0][0] == "refuse":
            entry = self.script.popleft()
            raise OSError(entry[1])
        self.connects += 1
        return _StubClient(self)


class _StubClient:
    def __init__(self, portal):
        self.portal = portal
        self.closed = False

    def _peek(self):
        if not self.portal.script:
            return ("ok", self.portal.healthy, self.portal.version)
        return self.portal.script[0]

    def get_version(self):
        entry = self._peek()
        if entry[0] == "transport":
            self.portal.script.popleft()
            raise PortalTransportError(entry[1])
        if entry[0] == "error":
            self.portal.script.popleft()
            raise PortalClientError(entry[1])
        if entry[0] == "ok":
            return entry[2]
        return self.portal.version

    def get_pdistances(self, pids=None):
        if not self.portal.script:
            return self.portal.healthy
        entry = self.portal.script.popleft()
        if entry[0] == "transport":
            raise PortalTransportError(entry[1])
        if entry[0] == "badparse":
            raise ValueError(entry[1])
        return entry[1]

    def close(self):
        self.closed = True


def make_client(portal, clock, **kwargs):
    kwargs.setdefault(
        "retry", RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)
    )
    kwargs.setdefault(
        "breaker", CircuitBreaker(failure_threshold=3, cooldown=30.0, clock=clock)
    )
    kwargs.setdefault("stale_ttl", 60.0)
    kwargs.setdefault("counters", ResilienceCounters())
    return ResilientPortalClient(
        "stub",
        0,
        clock=clock,
        sleep=clock.sleep,
        rng=random.Random(7),
        client_factory=portal.factory,
        **kwargs,
    )


class TestRetryPolicy:
    def test_delay_count_and_bounds(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0)
        delays = list(policy.delays(random.Random(1)))
        assert len(delays) == 4
        assert all(0.1 <= d <= 1.0 for d in delays)

    def test_deterministic_under_seed(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.05, max_delay=2.0)
        first = list(policy.delays(random.Random(42)))
        second = list(policy.delays(random.Random(42)))
        assert first == second

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trip_count == 1
        assert not breaker.allow()

    def test_half_open_probe_then_recovery(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        assert breaker.probe_count == 1
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED


class TestValidateView:
    def test_accepts_sane_view(self):
        validate_view(make_view())

    def test_rejects_non_finite(self):
        view = view_of(
            ("A", "B"),
            {
                ("A", "B"): float("inf"),
                ("B", "A"): 1.0,
                ("A", "A"): 0.0,
                ("B", "B"): 0.0,
            },
        )
        with pytest.raises(ViewValidationError, match="non-finite"):
            validate_view(view)

    def test_rejects_missing_rows(self):
        view = view_of(("A", "B"), {("A", "B"): 1.0})
        with pytest.raises(ViewValidationError, match="missing distance row"):
            validate_view(view)

    def test_rejects_intra_above_inter(self):
        view = make_view(intra=5.0)
        with pytest.raises(ViewValidationError, match="intra-PID"):
            validate_view(view)
        # ... unless the check is disabled (the UK DSL case of Sec. 8).
        validate_view(
            view, ValidationPolicy(require_intra_le_inter=False)
        )

    def test_rejects_pid_set_mismatch(self):
        policy = ValidationPolicy(expected_pids=("A", "B", "C", "D"))
        with pytest.raises(ViewValidationError, match="PID set mismatch"):
            validate_view(make_view(), policy)

    def test_rejects_empty_pid_set_unconditionally(self):
        empty = view_of((), {})
        with pytest.raises(ViewValidationError, match="empty PID set"):
            validate_view(empty)
        # Even with every optional check disabled: an empty view can only
        # degrade every session, so it is never acceptable.
        permissive = ValidationPolicy(
            require_finite=False,
            require_full_mesh=False,
            require_intra_le_inter=False,
            max_churn_factor=None,
        )
        with pytest.raises(ViewValidationError, match="empty PID set"):
            validate_view(empty, permissive)

    def test_rejects_negative_distance(self):
        # PDistanceMap itself refuses negatives at construction, so build
        # a valid view and scribble the shared distance matrix afterwards
        # (what a byzantine wire payload smuggled past parsing looks like).
        view = make_view()
        view.matrix[view.index["A"], view.index["B"]] = -3.0
        with pytest.raises(ViewValidationError, match="negative"):
            validate_view(view)

    def test_rejects_excess_churn(self):
        previous = make_view(scale=1.0)
        churned = make_view(scale=100.0)
        with pytest.raises(ViewValidationError, match="churn"):
            validate_view(
                churned, ValidationPolicy(max_churn_factor=10.0), previous=previous
            )
        # Mild drift passes.
        validate_view(
            make_view(scale=2.0),
            ValidationPolicy(max_churn_factor=10.0),
            previous=previous,
        )


class TestResilientPortalClient:
    def test_lazy_connect(self):
        portal = StubPortal()
        client = make_client(portal, FakeClock())
        assert portal.connects == 0
        client.get_view()
        assert portal.connects == 1

    def test_retries_transient_failure(self):
        portal = StubPortal()
        portal.push(("transport", "connection reset"))
        clock = FakeClock()
        client = make_client(portal, clock)
        snapshot = client.get_view()
        assert not snapshot.stale
        assert client.counters.retries == 1
        assert clock.sleeps  # backoff went through the injected sleep

    def test_backoff_is_deterministic(self):
        sleeps = []
        for _ in range(2):
            portal = StubPortal()
            portal.push(
                ("transport", "reset"), ("transport", "reset"), ("transport", "reset")
            )
            clock = FakeClock()
            client = make_client(
                portal,
                clock,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.5),
                breaker=CircuitBreaker(failure_threshold=10, clock=clock),
            )
            client.get_view()
            sleeps.append(tuple(clock.sleeps))
        assert sleeps[0] == sleeps[1] and len(sleeps[0]) == 3

    def test_reconnects_after_broken_socket(self):
        portal = StubPortal()
        portal.push(("transport", "reset"))
        client = make_client(portal, FakeClock())
        client.get_view()
        # first connection broke, retry opened a second one
        assert portal.connects == 2

    def test_stale_view_served_with_age(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock)
        fresh = client.get_view()
        assert not fresh.stale and fresh.version == 1
        clock.advance(20.0)
        portal.push(("transport", "down"), ("transport", "down"))
        snapshot = client.get_view()
        assert snapshot.stale
        assert snapshot.age == pytest.approx(20.0, abs=1.0)
        assert snapshot.view is fresh.view
        assert client.counters.stale_serves == 1

    def test_connect_refused_also_falls_back(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock)
        client.get_view()
        # The live socket breaks, and every reconnect is refused.
        portal.push(("transport", "reset"), ("refuse", "connection refused"))
        assert client.get_view().stale

    def test_unavailable_past_ttl(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock, stale_ttl=10.0)
        client.get_view()
        clock.advance(11.0)
        portal.push(("transport", "down"), ("transport", "down"))
        with pytest.raises(PortalUnavailable):
            client.get_view()
        assert client.counters.unavailable == 1

    def test_unavailable_when_never_fetched(self):
        portal = StubPortal()
        portal.push(("transport", "down"), ("transport", "down"))
        client = make_client(portal, FakeClock())
        with pytest.raises(PortalUnavailable):
            client.get_view()

    def test_breaker_opens_and_blocks_connections(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock)
        client.get_view()
        connects_before_outage = portal.connects
        portal.push(*[("transport", "down")] * 4)
        client.get_view()  # 2 failed attempts
        client.get_view()  # third failure trips the breaker mid-call
        assert client.breaker_state == "open"
        assert client.counters.breaker_trips == 1
        # While open, the stale view is served without touching the network.
        connects_when_open = portal.connects
        assert client.get_view().stale
        assert portal.connects == connects_when_open
        assert connects_when_open > connects_before_outage

    def test_half_open_probe_recovers(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock)
        client.get_view()
        portal.push(*[("transport", "down")] * 3)
        client.get_view()
        client.get_view()
        assert client.breaker_state == "open"
        portal.version = 2
        clock.advance(31.0)  # past the cooldown; portal healthy again
        snapshot = client.get_view()
        assert not snapshot.stale and snapshot.version == 2
        assert client.breaker_state == "closed"
        assert client.counters.breaker_probes >= 1

    def test_validation_rejection_falls_back_to_stale(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock)
        good = client.get_view()
        bad = view_of(("A", "B"), {("A", "B"): 1.0})
        portal.push(("ok", bad, 2), ("transport", "down"))
        snapshot = client.get_view()
        assert snapshot.stale and snapshot.view is good.view
        assert client.counters.validation_rejections == 1

    def test_topology_disagreeing_view_pins_to_stale_not_selector_crash(self):
        """A view whose PID map disagrees with the provisioned network map
        is rejected; the client pins to the stale cache and the selection
        plane keeps running on the last-known-good topology."""
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(
            portal, clock, validation=ValidationPolicy(expected_pids=("A", "B", "C"))
        )
        good = client.get_view()
        # The iTracker re-provisions its PID map; the client's network map
        # has not caught up, so the advertised PIDs no longer match.
        renamed = make_view(pids=("A", "B", "Z"))
        portal.push(("ok", renamed, 2), ("transport", "down"))
        snapshot = client.get_view()
        assert snapshot.stale and snapshot.view is good.view
        assert client.counters.validation_rejections == 1
        # The stale view still drives selection without an exception.
        peer = PeerInfo(peer_id=0, pid="A", as_number=7)
        candidates = [
            PeerInfo(peer_id=i, pid=pid, as_number=7)
            for i, pid in enumerate(["A", "B", "C"], start=1)
        ]
        selector = P4PSelection(
            pdistances={7: snapshot.view}, portal_health={7: "stale"}
        )
        chosen = selector.select(peer, candidates, 2, random.Random(3))
        assert len(chosen) == 2
        assert selector.native_fallbacks == 0

    def test_byzantine_parse_error_counts_as_validation(self):
        portal = StubPortal()
        client = make_client(portal, FakeClock())
        client.get_view()
        portal.push(("badparse", "negative p-distance for ('A', 'B')"))
        portal.push(("transport", "down"))
        assert client.get_view().stale
        assert client.counters.validation_rejections == 1

    def test_churn_rejected_against_last_good(self):
        portal = StubPortal()
        client = make_client(portal, FakeClock())
        client.get_view()
        portal.push(("ok", make_view(scale=1000.0), 2), ("transport", "down"))
        snapshot = client.get_view()
        assert snapshot.stale
        assert client.counters.validation_rejections == 1

    def test_server_error_response_not_retried(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock)
        client.get_view()
        portal.push(("error", "unknown key: 'SEAT'"))
        assert client.get_view().stale  # falls back, but...
        assert client.counters.retries == 0  # ...no retry storm
        assert client.breaker_state == "closed"  # and no breaker pressure

    def test_partial_view_restricted_locally(self):
        portal = StubPortal()
        client = make_client(portal, FakeClock())
        snapshot = client.get_view(pids=["A", "B"])
        assert set(snapshot.view.pids) == {"A", "B"}
        # The full view was cached, so a later outage still has fallback.
        portal.push(("transport", "down"), ("transport", "down"))
        assert set(client.get_view().view.pids) == {"A", "B", "C"}

    def test_get_pdistances_is_drop_in(self):
        portal = StubPortal()
        client = make_client(portal, FakeClock())
        view = client.get_pdistances()
        assert view.distance("A", "B") == 2.0


class TestIntegratorHealth:
    def test_tracks_ok_stale_unavailable(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock, stale_ttl=10.0)
        integrator = Integrator()
        integrator.add(7, client)

        views = integrator.views()
        assert 7 in views
        assert integrator.health[7].status is PortalStatus.OK

        portal.push(*[("transport", "down")] * 8)
        views = integrator.views()
        assert 7 in views  # stale but served
        assert integrator.health[7].status is PortalStatus.STALE
        assert integrator.health[7].stale_age is not None

        clock.advance(11.0)
        views = integrator.views()
        assert 7 not in views
        assert integrator.health[7].status is PortalStatus.UNAVAILABLE
        assert integrator.health[7].consecutive_failures >= 1
        assert integrator.status_map() == {7: "unavailable"}

    def test_breaker_state_surfaces(self):
        portal = StubPortal()
        clock = FakeClock()
        client = make_client(portal, clock)
        integrator = Integrator()
        integrator.add(9, client)
        integrator.views()
        assert integrator.health[9].breaker_state == "closed"


class TestSelectionFallback:
    def _peers(self):
        client = PeerInfo(peer_id=0, pid="A", as_number=7)
        candidates = [
            PeerInfo(peer_id=i, pid=pid, as_number=7)
            for i, pid in enumerate(["A", "A", "B", "B", "C", "C"], start=1)
        ]
        return client, candidates

    def test_unavailable_as_uses_native(self):
        client, candidates = self._peers()
        selector = P4PSelection(
            pdistances={7: make_view()}, portal_health={7: "unavailable"}
        )
        chosen = selector.select(client, candidates, 4, random.Random(11))
        reference = RandomSelection().select(
            client, candidates, 4, random.Random(11)
        )
        assert chosen == reference
        assert selector.native_fallbacks == 1

    def test_ok_and_stale_keep_guidance(self):
        client, candidates = self._peers()
        for status in ("ok", "stale"):
            selector = P4PSelection(
                pdistances={7: make_view()}, portal_health={7: status}
            )
            selector.select(client, candidates, 4, random.Random(11))
            assert selector.native_fallbacks == 0

    def test_no_health_map_behaves_as_before(self):
        client, candidates = self._peers()
        selector = P4PSelection(pdistances={7: make_view()})
        chosen = selector.select(client, candidates, 4, random.Random(11))
        assert len(chosen) == 4
        assert selector.native_fallbacks == 0


class TestCounters:
    def test_snapshot_and_reset(self):
        counters = ResilienceCounters()
        counters.retries = 2
        counters.stale_serves = 1
        snap = counters.snapshot()
        assert snap["retries"] == 2 and snap["stale_serves"] == 1
        counters.reset()
        assert all(value == 0 for value in counters.snapshot().values())


class TestDiscovery:
    def test_unknown_domain_raises_named_error(self, empty_srv_registry):
        with pytest.raises(DiscoveryError, match="nowhere.example"):
            discover_itracker("nowhere.example")
        # Still a PortalClientError, so existing handlers keep working.
        with pytest.raises(PortalClientError):
            discover_itracker("nowhere.example")
