"""Fault-injection tests: the portal survives everything Sec. 5.3 promises.

Real sockets, real server, faults injected by :class:`FaultyPortal`; every
test carries ``@pytest.mark.timeout`` so a framing bug can never hang the
suite.  The ladder test walks the full degradation story end to end:
healthy -> retry -> stale -> unavailable + native selection -> recovery.
"""

import random

import pytest

from repro.apptracker.selection import P4PSelection, PeerInfo, RandomSelection
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.observability import ResilienceCounters
from repro.network.library import abilene
from repro.portal.client import PortalClient, PortalClientError, PortalTransportError
from repro.portal.faults import (
    Fault,
    FaultKind,
    FaultSchedule,
    FaultyPortal,
    churn_values,
    drop_rows,
    negate_distances,
)
from repro.portal.resilience import (
    CircuitBreaker,
    PortalUnavailable,
    ResilientPortalClient,
    RetryPolicy,
)
from repro.portal.aserver import AsyncPortalServer
from tests.conftest import view_pairs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def itracker():
    return ITracker(
        topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
    )


@pytest.fixture
def stack(itracker):
    """(itracker, proxy) with a live server behind the fault proxy."""
    with AsyncPortalServer(itracker) as server:
        with FaultyPortal(server.address) as proxy:
            yield itracker, proxy


def resilient(proxy, clock, **kwargs):
    kwargs.setdefault(
        "retry",
        RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.05, attempt_timeout=2.0
        ),
    )
    kwargs.setdefault(
        "breaker", CircuitBreaker(failure_threshold=3, cooldown=30.0, clock=clock)
    )
    kwargs.setdefault("stale_ttl", 60.0)
    kwargs.setdefault("counters", ResilienceCounters())
    return ResilientPortalClient(
        *proxy.address,
        clock=clock,
        sleep=clock.sleep,
        rng=random.Random(7),
        **kwargs,
    )


@pytest.mark.timeout(30)
class TestProxyFaults:
    def test_pass_through_is_transparent(self, stack):
        itracker, proxy = stack
        with PortalClient(*proxy.address) as client:
            assert client.get_version() == itracker.version
            view = client.get_pdistances()
            local = itracker.get_pdistances()
            assert view.distance("SEAT", "NYCM") == pytest.approx(
                local.distance("SEAT", "NYCM")
            )

    def test_mid_frame_reset_absorbed_by_one_resend(self, stack):
        """A single reset is survived: the client reconnects and resends
        the frame exactly once (portal methods are idempotent reads)."""
        itracker, proxy = stack
        proxy.schedule.script[0] = Fault(FaultKind.RESET_MID_FRAME)
        with PortalClient(*proxy.address) as client:
            assert client.get_version() == itracker.version

    def test_mid_frame_reset_twice_is_transport_error(self, stack):
        _, proxy = stack
        proxy.schedule.script[0] = Fault(FaultKind.RESET_MID_FRAME)
        proxy.schedule.script[1] = Fault(FaultKind.RESET_MID_FRAME)
        with PortalClient(*proxy.address) as client:
            with pytest.raises(PortalTransportError, match="mid-frame"):
                client.get_version()

    def test_corrupt_frame_twice_is_transport_error(self, stack):
        _, proxy = stack
        proxy.schedule.script[0] = Fault(FaultKind.CORRUPT_FRAME)
        proxy.schedule.script[1] = Fault(FaultKind.CORRUPT_FRAME)
        with PortalClient(*proxy.address) as client:
            with pytest.raises(PortalTransportError):
                client.get_version()

    def test_truncated_frame_twice_is_transport_error(self, stack):
        _, proxy = stack
        proxy.schedule.script[0] = Fault(FaultKind.TRUNCATE_FRAME)
        proxy.schedule.script[1] = Fault(FaultKind.TRUNCATE_FRAME)
        with PortalClient(*proxy.address) as client:
            with pytest.raises(PortalTransportError):
                client.get_version()

    def test_error_response_is_not_transport(self, stack):
        _, proxy = stack
        proxy.schedule.script[0] = Fault(
            FaultKind.ERROR_RESPONSE, message="injected portal error"
        )
        with PortalClient(*proxy.address) as client:
            with pytest.raises(PortalClientError, match="injected portal error") as info:
                client.get_version()
            assert not isinstance(info.value, PortalTransportError)

    def test_latency_past_deadline_times_out(self, stack):
        _, proxy = stack
        proxy.schedule.script[0] = Fault(FaultKind.DELAY, delay=1.5)
        with PortalClient(*proxy.address, timeout=0.2) as client:
            with pytest.raises(PortalTransportError):
                client.get_version()

    def test_down_proxy_drops_connections(self, stack):
        _, proxy = stack
        proxy.down = True
        with pytest.raises((PortalTransportError, OSError)):
            with PortalClient(*proxy.address) as client:
                client.get_version()


@pytest.mark.timeout(30)
class TestByzantineViews:
    """Byzantine p-distance payloads are rejected by validation and never
    reach selection (the acceptance criterion verbatim)."""

    def _fetch_then_mutate(self, stack, mutator):
        itracker, proxy = stack
        with resilient(proxy, FakeClock()) as client:
            good = client.get_view()
            assert not good.stale
            # A new version forces a real re-fetch (the version cache would
            # otherwise shield the client from the mutated payload).
            itracker.refresh_topology()
            proxy.schedule.default = Fault(FaultKind.BYZANTINE, mutate=mutator)
            snapshot = client.get_view()
            proxy.schedule.default = Fault(FaultKind.PASS)
        return client, good, snapshot

    def test_negative_distances_rejected(self, stack):
        client, good, snapshot = self._fetch_then_mutate(stack, negate_distances)
        assert snapshot.stale and snapshot.view is good.view
        assert client.counters.validation_rejections >= 1

    def test_missing_rows_rejected(self, stack):
        client, good, snapshot = self._fetch_then_mutate(stack, drop_rows)
        assert snapshot.stale and snapshot.view is good.view
        assert client.counters.validation_rejections >= 1

    def test_high_churn_rejected(self, stack):
        client, good, snapshot = self._fetch_then_mutate(stack, churn_values(1000.0))
        assert snapshot.stale and snapshot.view is good.view
        assert client.counters.validation_rejections >= 1

    def test_a_pid_listed_twice_is_rejected_not_raised(self, stack):
        def duplicate_pid(result):
            return {"pids": result["pids"] + result["pids"][:1], "distances": result["distances"]}

        client, good, snapshot = self._fetch_then_mutate(stack, duplicate_pid)
        assert snapshot.stale and snapshot.view is good.view
        assert client.counters.validation_rejections >= 1

    def test_byzantine_with_no_baseline_is_unavailable(self, stack):
        _, proxy = stack
        proxy.schedule.default = Fault(FaultKind.BYZANTINE, mutate=negate_distances)
        with resilient(proxy, FakeClock()) as client:
            with pytest.raises(PortalUnavailable):
                client.get_view()
        assert client.counters.validation_rejections >= 1


@pytest.mark.timeout(60)
class TestDegradationLadder:
    def test_full_ladder(self, stack):
        """healthy -> retry-on-reset -> stale -> unavailable + native ->
        HALF_OPEN probe -> recovery, with counters matching each stage."""
        itracker, proxy = stack
        clock = FakeClock()
        counters = ResilienceCounters()
        with resilient(proxy, clock, counters=counters) as client:
            as_number = 11537

            # Stage 1: healthy fetch.
            fresh = client.get_view()
            assert not fresh.stale and fresh.version == itracker.version
            assert counters.retries == 0

            # Stage 2: transient mid-frame resets.  A single reset is absorbed
            # by the transport's reconnect-and-resend before the resilience
            # layer even notices; two consecutive resets exhaust the resend
            # and surface as one transport failure, consumed by one retry.
            seen = proxy.schedule.requests_seen
            proxy.schedule.script[seen] = Fault(FaultKind.RESET_MID_FRAME)
            proxy.schedule.script[seen + 1] = Fault(FaultKind.RESET_MID_FRAME)
            snapshot = client.get_view()
            assert not snapshot.stale
            assert counters.retries == 1
            assert client.breaker_state == "closed"

            # Stage 3: portal goes dark -> stale views (flagged, aged), breaker
            # trips after the failure threshold.
            proxy.down = True
            clock.advance(5.0)
            stale_1 = client.get_view()
            assert stale_1.stale and stale_1.age >= 5.0
            assert stale_1.view is snapshot.view
            assert counters.stale_serves == 1
            stale_2 = client.get_view()  # third consecutive failure -> trip
            assert stale_2.stale
            assert client.breaker_state == "open"
            assert counters.breaker_trips == 1
            # While open the stale view is served without touching the network.
            seen = proxy.schedule.requests_seen
            assert client.get_view().stale
            assert proxy.schedule.requests_seen == seen

            # Stage 4: stale TTL expires -> explicit PortalUnavailable, and
            # selection for that AS degrades to native.
            clock.advance(61.0)
            with pytest.raises(PortalUnavailable):
                client.get_view()
            assert counters.unavailable == 1
            selector = P4PSelection(
                pdistances={as_number: stale_2.view},
                portal_health={as_number: "unavailable"},
            )
            peer = PeerInfo(peer_id=0, pid="SEAT", as_number=as_number)
            candidates = [
                PeerInfo(peer_id=i, pid=pid, as_number=as_number)
                for i, pid in enumerate(
                    ["SEAT", "SEAT", "NYCM", "NYCM", "CHIN", "DNVR"], start=1
                )
            ]
            chosen = selector.select(peer, candidates, 4, random.Random(3))
            native = RandomSelection().select(peer, candidates, 4, random.Random(3))
            assert chosen == native
            assert selector.native_fallbacks == 1

            # Stage 5: portal returns -> HALF_OPEN probe closes the breaker and
            # fresh guidance resumes.
            proxy.down = False
            clock.advance(31.0)
            recovered = client.get_view()
            assert not recovered.stale
            assert client.breaker_state == "closed"
            assert counters.breaker_probes >= 1
            # one retry from stage 2's reset, one inside stage 3's first failed
            # fetch (the second fetch trips the breaker before its retry).
            assert counters.snapshot()["retries"] == 2
            assert counters.snapshot()["breaker_trips"] == 1
            assert counters.snapshot()["stale_serves"] >= 2
            assert counters.snapshot()["unavailable"] == 1


@pytest.mark.timeout(120)
class TestOutageScenario:
    def test_swarm_degrades_toward_native_and_recovers(self):
        from repro.simulator.outage import OutageScenarioResult, run_portal_outage

        result = run_portal_outage()
        # Everyone completes in all three runs: the outage never blocks the
        # swarm (iTrackers are off the critical path).
        for run in (result.healthy, result.degraded, result.native):
            assert len(run.completion_times) == 12

        # The health ladder appears in order: ok -> stale -> unavailable ->
        # ok (recovery).
        statuses = result.statuses()
        assert statuses[0] == "ok"
        assert "stale" in statuses
        assert "unavailable" in statuses[statuses.index("stale"):]
        assert statuses[-1] == "ok"

        # Telemetry matches the stages.
        assert result.counters["stale_serves"] > 0
        assert result.counters["breaker_trips"] >= 1
        assert result.counters["unavailable"] > 0
        assert result.counters["breaker_probes"] >= 1
        assert result.native_fallbacks > 0

        # Completion time degrades *toward* native: the degraded run sits
        # between always-guided P4P and never-guided native (deterministic
        # seeds; small tolerance for tie-breaking noise).
        healthy_t = result.healthy.mean_completion()
        degraded_t = result.degraded.mean_completion()
        native_t = result.native.mean_completion()
        assert degraded_t >= healthy_t * 0.95
        assert degraded_t <= max(native_t, healthy_t) * 1.25

        # Localization (backbone traffic) degrades the same way.
        healthy_bb = OutageScenarioResult.backbone_mbit(result.healthy)
        degraded_bb = OutageScenarioResult.backbone_mbit(result.degraded)
        native_bb = OutageScenarioResult.backbone_mbit(result.native)
        assert healthy_bb < native_bb
        assert healthy_bb * 0.95 <= degraded_bb <= native_bb * 1.1

        # The degraded run carries a Telemetry bundle driven by the *sim*
        # clock: its registry uptime is sim-seconds, not wall-seconds, and
        # the stale-age histogram observed sim-time view ages.
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.registry.uptime() > 60.0  # sim ran for minutes
        stale_age = telemetry.registry.get("p4p_sim_stale_age_seconds")
        assert stale_age.labels().count > 0
        assert stale_age.labels().sum > 0
        # The registry-backed resilience gauges are the same numbers the
        # result reports through the dataclass-compatible snapshot.
        resilience = {
            name: telemetry.registry.get(f"p4p_resilience_{name}").labels().value
            for name in ("stale_serves", "breaker_trips", "unavailable")
        }
        for name, value in resilience.items():
            assert value == result.counters[name]
        # Portal health gauge ends the run back at 0 (= "ok").
        health = telemetry.registry.get("p4p_sim_portal_health")
        assert health.labels().value == 0


class TestDualServerClients:
    """Regression: the whole client stack -- fault proxy, one-shot
    reconnect, resilient client -- works against the asyncio serving
    plane's severing/reset behaviour.  (The class name and the one
    ``async`` parameter date from when a threaded server ran beside it.)"""

    @staticmethod
    def make_server(itracker, **kwargs):
        return AsyncPortalServer(itracker, workers=2, **kwargs)

    @pytest.fixture(params=["async"])
    def dual_stack(self, itracker):
        with self.make_server(itracker) as server:
            with FaultyPortal(server.address) as proxy:
                yield itracker, proxy

    @pytest.mark.timeout(30)
    def test_proxy_pass_through(self, dual_stack):
        itracker, proxy = dual_stack
        with PortalClient(*proxy.address) as client:
            assert client.get_version() == itracker.version
            view = client.get_pdistances()
            local = itracker.get_pdistances()
            assert view_pairs(view) == view_pairs(local)

    @pytest.mark.timeout(30)
    def test_one_reset_absorbed_by_one_resend(self, dual_stack):
        itracker, proxy = dual_stack
        proxy.schedule.script[0] = Fault(FaultKind.RESET_MID_FRAME)
        with PortalClient(*proxy.address) as client:
            assert client.get_version() == itracker.version

    @pytest.mark.timeout(30)
    def test_two_resets_surface_as_transport_error(self, dual_stack):
        _, proxy = dual_stack
        proxy.schedule.script[0] = Fault(FaultKind.RESET_MID_FRAME)
        proxy.schedule.script[1] = Fault(FaultKind.RESET_MID_FRAME)
        with PortalClient(*proxy.address) as client:
            with pytest.raises(PortalTransportError):
                client.get_version()

    @pytest.mark.timeout(30)
    def test_resilient_client_retries_through_proxy(self, dual_stack):
        itracker, proxy = dual_stack
        clock = FakeClock()
        proxy.schedule.script[0] = Fault(FaultKind.RESET_MID_FRAME)
        client = resilient(proxy, clock)
        try:
            view = client.get_pdistances()
            assert view_pairs(view) == view_pairs(itracker.get_pdistances())
        finally:
            client.close()

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("kind", ["async"])
    def test_portal_client_survives_server_restart(self, kind, itracker):
        """One-shot reconnect: a server restart on the same port is
        absorbed by exactly one transparent resend."""
        server = self.make_server(itracker)
        host, port = server.address
        client = PortalClient(host, port)
        try:
            assert client.get_version() == itracker.version
            server.close()
            server = self.make_server(itracker, host=host, port=port)
            # the old socket is dead; the next call reconnects and resends
            assert client.get_version() == itracker.version
            assert view_pairs(client.get_pdistances()) == (
                view_pairs(itracker.get_pdistances())
            )
        finally:
            client.close()
            server.close()
