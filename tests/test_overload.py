"""Tests for the overload-control layer (no sockets, no wall clock).

Admission, CoDel shedding, brownout transitions, drain, the governor
facade, and the deterministic overload chaos scenario all run on injected
step clocks -- every behaviour here must be exactly reproducible.  The
socket-level integration of the same machinery lives in
``tests/test_portal_overload.py``.
"""

import dataclasses
import random

import pytest

from repro.observability import ResilienceCounters
from repro.portal.client import PortalBusyError
from repro.portal.overload import (
    STATE_BROWNOUT,
    STATE_DRAINING,
    STATE_NORMAL,
    STATE_SHEDDING,
    AdmissionController,
    AdmissionOutcome,
    BrownoutController,
    OverloadConfig,
    OverloadGovernor,
)
from repro.portal.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilientPortalClient,
    RetryPolicy,
)
from repro.simulator.overload import (
    OverloadScenarioSpec,
    default_overload_config,
    format_overload,
    p99_bound,
    run_overload,
)


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def config(**overrides):
    defaults = dict(
        enabled=True,
        inflight_budget=2,
        codel_target=0.05,
        codel_interval=0.1,
        retry_after=0.25,
        brownout_enter=0.5,
        brownout_exit=1.0,
        drain_timeout=1.0,
    )
    defaults.update(overrides)
    return OverloadConfig(**defaults)


class TestOverloadConfig:
    def test_validation_rejects_nonsense(self):
        for bad in (
            dict(inflight_budget=0),
            dict(codel_target=-1.0),
            dict(max_shed_level=0),
            dict(retry_after=0.0),
            dict(probe_interval=0.0),
            dict(max_connections=0),
            dict(idle_timeout=0.0),
            dict(frame_timeout=-1.0),
            dict(connection_request_budget=0),
            dict(brownout_enter=0.0),
            dict(drain_timeout=0.0),
        ):
            with pytest.raises(ValueError):
                config(**bad)

    def test_disabled_config_is_constructible_with_defaults(self):
        assert OverloadConfig(enabled=False).enabled is False


class TestAdmissionController:
    def test_admits_within_budget_then_sheds(self):
        clock = StepClock()
        ctl = AdmissionController(config(), clock=clock)
        assert ctl.try_admit(0.0) is AdmissionOutcome.ADMITTED
        assert ctl.try_admit(0.0) is AdmissionOutcome.ADMITTED
        # Budget full: the next arrival is shed outright, nothing waits.
        assert ctl.try_admit(0.0) is AdmissionOutcome.SHED_QUEUE
        assert ctl.inflight == 2
        ctl.release()
        assert ctl.try_admit(0.1) is AdmissionOutcome.ADMITTED

    def test_codel_shedding_enters_after_sustained_delay(self):
        clock = StepClock()
        ctl = AdmissionController(config(), clock=clock)
        assert not ctl.shedding()
        # One spike is not sustained delay.
        ctl.observe_delay(0.0, 0.2)
        assert not ctl.shedding()
        # Above target for a full interval: shedding engages.
        ctl.observe_delay(0.15, 0.2)
        assert ctl.shedding()
        # Progressive escalation: level grows with time spent shedding.
        assert ctl.shed_level(0.15) == 1
        assert ctl.shed_level(0.46) == 4
        assert ctl.shed_level(99.0) == config().max_shed_level
        # A below-target observation clears the state entirely.
        ctl.observe_delay(0.4, 0.01)
        assert not ctl.shedding()

    def test_shedding_admits_every_period_th_arrival(self):
        clock = StepClock()
        ctl = AdmissionController(config(inflight_budget=64), clock=clock)
        ctl.observe_delay(0.0, 0.2)
        ctl.observe_delay(0.15, 0.2)
        assert ctl.shedding()
        # Level 1 sheds every arrival whose counter is not a multiple of
        # 2: deterministic, so exactly half of a burst is admitted.
        outcomes = [ctl.try_admit(0.16) for _ in range(8)]
        admitted = [o for o in outcomes if o is AdmissionOutcome.ADMITTED]
        shed = [o for o in outcomes if o is AdmissionOutcome.SHED_CODEL]
        assert len(admitted) == 4 and len(shed) == 4
        # Direct admits do not clear the shedding state (only a real
        # below-target delay observation may -- the async lag probe).
        assert ctl.shedding()

    def test_drain_sheds_arrivals_and_empties_backlog(self):
        clock = StepClock()
        ctl = AdmissionController(config(), clock=clock)
        ctl.try_admit(0.0)
        ctl.start_drain()
        assert ctl.draining
        assert ctl.try_admit(0.1) is AdmissionOutcome.SHED_DRAIN
        assert ctl.inflight == 1
        ctl.release()
        assert ctl.inflight == 0
        assert ctl.wait_drained(timeout=0.1) is True


class TestBrownoutController:
    def test_enters_after_sustained_shedding_and_exits_after_clean(self):
        ctl = BrownoutController(config())
        assert ctl.update(0.0, shedding=True) is False
        assert ctl.update(0.4, shedding=True) is False
        assert ctl.update(0.5, shedding=True) is True  # sustained >= enter
        # Still active through a clean stretch shorter than the exit bar.
        assert ctl.update(0.6, shedding=False) is True
        assert ctl.update(1.5, shedding=False) is True
        assert ctl.update(1.6, shedding=False) is False  # sustained clean
        assert ctl.transitions == 2

    def test_shedding_resets_the_clean_timer(self):
        ctl = BrownoutController(config())
        ctl.update(0.0, shedding=True)
        ctl.update(0.5, shedding=True)
        assert ctl.active
        ctl.update(0.6, shedding=False)
        ctl.update(1.5, shedding=True)  # relapse: clean timer restarts
        ctl.update(1.6, shedding=False)
        assert ctl.update(2.5, shedding=False) is True
        assert ctl.update(2.7, shedding=False) is False

    def test_force_pins_the_state(self):
        ctl = BrownoutController(config())
        ctl.force(True)
        assert ctl.update(0.0, shedding=False) is True
        ctl.force(None)
        assert ctl.update(10.0, shedding=False) is True  # machine resumes
        assert ctl.update(11.1, shedding=False) is False


class TestOverloadGovernor:
    def test_state_machine_precedence(self):
        clock = StepClock()
        governor = OverloadGovernor(config(), clock=clock)
        assert governor.state() == STATE_NORMAL
        governor.observe_delay(0.2, now=0.0)
        governor.observe_delay(0.2, now=0.15)
        assert governor.state() == STATE_SHEDDING
        governor.force_brownout(True)
        assert governor.state() == STATE_BROWNOUT
        governor.start_drain()
        assert governor.state() == STATE_DRAINING

    def test_retry_after_hints_by_outcome(self):
        governor = OverloadGovernor(config(), clock=StepClock())
        base = config().retry_after
        assert governor.retry_after(AdmissionOutcome.SHED_CODEL) == base
        assert governor.retry_after(AdmissionOutcome.SHED_QUEUE) == 2 * base
        assert governor.retry_after(AdmissionOutcome.SHED_DRAIN) == max(
            base, config().drain_timeout
        )

    def test_connection_cap_accounting(self):
        governor = OverloadGovernor(
            config(max_connections=2), clock=StepClock()
        )
        assert governor.try_open_connection()
        assert governor.try_open_connection()
        assert not governor.try_open_connection()
        governor.connection_closed()
        assert governor.try_open_connection()
        assert governor.open_connections == 2

    def test_disabled_governor_admits_everything(self):
        governor = OverloadGovernor(
            OverloadConfig(enabled=False), clock=StepClock()
        )
        for _ in range(500):
            assert governor.admit() is AdmissionOutcome.ADMITTED
        governor.observe_delay(10.0, now=0.0)
        governor.observe_delay(10.0, now=1.0)
        assert governor.state() == STATE_NORMAL
        # ... except during drain, which sheds even when disabled.
        governor.start_drain()
        assert governor.admit() is AdmissionOutcome.SHED_DRAIN


class TestOverloadScenario:
    def test_invariants_hold_and_runs_are_bit_deterministic(self):
        spec = OverloadScenarioSpec()
        first = run_overload(spec)
        second = run_overload(spec)
        assert first.violations == ()
        assert first.digest == second.digest
        assert first.document == second.document

    def test_protected_sheds_while_unprotected_collapses(self):
        report = run_overload(OverloadScenarioSpec(seed=3))
        doc = report.document
        outcomes = doc["protected"]["outcomes"]
        assert outcomes.get("shed_codel", 0) + outcomes.get("shed_queue", 0) > 0
        assert doc["protected"]["breaker_trips"] == 0
        assert (
            doc["unprotected"]["latency_p99"]
            > 2 * doc["protected"]["latency_p99"]
        )
        goodput = doc["protected"]["goodput_qps"]
        assert goodput >= 0.7 * doc["spec"]["capacity_qps"]

    @pytest.mark.parametrize("multiple", [2.0, 4.0])
    def test_seeds_hold_every_invariant(self, multiple):
        for seed in range(10):
            report = run_overload(
                OverloadScenarioSpec(seed=seed, multiple=multiple)
            )
            assert report.violations == (), (seed, report.violations)

    @pytest.mark.parametrize("multiple", [2.0, 4.0])
    def test_disabled_protection_violates_the_invariants(self, multiple):
        """The planted regression: a governor that never sheds lets the
        loop's queue grow with the horizon, and the scenario says so."""
        spec = OverloadScenarioSpec(
            multiple=multiple,
            config=dataclasses.replace(default_overload_config(), enabled=False),
        )
        report = run_overload(spec)
        assert "bounded-admitted-p99" in {v.invariant for v in report.violations}
        assert report.document["protected"]["latency_p99"] > p99_bound(spec)

    @pytest.mark.parametrize("multiple", [2.0, 4.0])
    def test_protected_p99_is_flat_in_the_horizon(self, multiple):
        def p99s(duration):
            doc = run_overload(
                OverloadScenarioSpec(
                    multiple=multiple, duration=duration, drain_at=None
                )
            ).document
            return (
                doc["protected"]["latency_p99"],
                doc["unprotected"]["latency_p99"],
            )

        short_protected, short_unprotected = p99s(8.0)
        long_protected, long_unprotected = p99s(32.0)
        assert long_protected <= 2.0 * short_protected
        assert long_unprotected >= 3.0 * short_unprotected

    def test_drain_completes_within_bound(self):
        report = run_overload(OverloadScenarioSpec(seed=1))
        drain = report.document["protected"]["drain"]
        assert drain is not None and drain["completed"] is not None
        spec = OverloadScenarioSpec(seed=1)
        assert (
            drain["completed"] - drain["started"]
            <= spec.config.drain_timeout
        )

    def test_different_seeds_differ_and_no_drain_mode_works(self):
        with_drain = run_overload(OverloadScenarioSpec(seed=2))
        no_drain = run_overload(OverloadScenarioSpec(seed=2, drain_at=None))
        assert with_drain.digest != no_drain.digest
        assert no_drain.document["protected"]["drain"] is None
        assert no_drain.violations == ()

    def test_format_renders_verdict_and_digest(self):
        report = run_overload(OverloadScenarioSpec())
        text = format_overload(report)
        assert "all overload invariants hold" in text
        assert report.digest in text

    def test_spec_validation(self):
        for bad in (
            dict(capacity_qps=0.0),
            dict(multiple=-1.0),
            dict(duration=0.0),
            dict(goodput_floor=0.0),
            dict(drain_at=99.0),
        ):
            with pytest.raises(ValueError):
                OverloadScenarioSpec(**bad)


class _BusyScriptClient:
    """Stub PortalClient: raises PortalBusyError ``busy_first`` times,
    then answers get_version."""

    def __init__(self, script):
        self.script = script
        self.closed = False

    def get_version(self):
        if self.script:
            raise self.script.pop(0)
        return 7

    def close(self):
        self.closed = True


class TestResilienceBusyHandling:
    """Satellite regression: shed/busy responses are not faults -- the
    breaker must not flap, the connection must not be discarded, and the
    backoff must honor the server's hint."""

    def _client(self, script, **kwargs):
        clock = StepClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        stub = _BusyScriptClient(script)
        counters = ResilienceCounters()
        client = ResilientPortalClient(
            "portal.test",
            1,
            retry=RetryPolicy(max_attempts=6, base_delay=0.2),
            breaker=CircuitBreaker(failure_threshold=2, clock=clock),
            clock=clock,
            sleep=sleep,
            rng=random.Random(42),
            counters=counters,
            client_factory=lambda *a, **k: stub,
            **kwargs,
        )
        return client, stub, counters, sleeps, clock

    def test_busy_storm_never_trips_the_breaker(self):
        script = [PortalBusyError("shed", retry_after=0.05) for _ in range(4)]
        client, stub, counters, sleeps, _ = self._client(script)
        assert client.get_version() == 7
        assert client.breaker.state is BreakerState.CLOSED
        assert client.breaker.trip_count == 0
        assert counters.busy_backoffs == 4
        assert counters.retries == 0
        # The connection was never discarded: one stub, never closed.
        assert not stub.closed
        # Backoff honors the hint, jittered into [0.5, 1.5] * hint.
        assert len(sleeps) == 4
        assert all(0.025 <= pause <= 0.075 for pause in sleeps)

    def test_busy_without_hint_uses_the_retry_schedule(self):
        script = [PortalBusyError("shed", retry_after=None)]
        client, _, counters, sleeps, _ = self._client(script)
        assert client.get_version() == 7
        assert counters.busy_backoffs == 1
        # The decorrelated-jitter draw is uniform in [0.2, 0.6]; the busy
        # branch then jitters it multiplicatively in [0.5, 1.5].
        assert 0.1 <= sleeps[0] <= 0.9

    def test_busy_exhausting_attempts_propagates(self):
        script = [PortalBusyError("shed", retry_after=0.01) for _ in range(9)]
        client, _, counters, _, _ = self._client(script)
        with pytest.raises(PortalBusyError):
            client.get_version()
        assert client.breaker.trip_count == 0

    def test_counters_snapshot_includes_busy_backoffs(self):
        counters = ResilienceCounters()
        counters.busy_backoffs = 3
        assert counters.snapshot()["busy_backoffs"] == 3
