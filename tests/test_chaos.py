"""Chaos-harness tests: the PR's acceptance criteria, asserted in CI.

Runs the seeded crash/restart/partition/corruption scenario of
:mod:`repro.simulator.chaos` and asserts the survivability invariants:

* a killed-and-restarted iTracker resumes the exact persisted price
  vector with a strictly higher ``(epoch, version)`` (no price reset);
* with the primary partitioned, the failover client serves from the
  standby with bounded staleness and zero selector exceptions;
* the faulted run's MLU re-converges to within epsilon of the fault-free
  twin;
* everything is bit-deterministic under a fixed seed.

All tests carry the ``chaos`` marker (dedicated CI job) and a SIGALRM
timeout so a hung socket can never stall the suite.
"""

import io
import tempfile

import pytest

from repro.simulator.chaos import (
    ChaosEvent,
    ChaosEventKind,
    ChaosSchedule,
    format_chaos,
    run_chaos,
)
from repro.tools.cli import main as cli_main

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]

SEED = 11


@pytest.fixture(scope="module")
def with_state():
    return run_chaos(seed=SEED, with_state=True)


@pytest.fixture(scope="module")
def without_state():
    return run_chaos(seed=SEED, with_state=False)


class TestKillAndRestart:
    def test_all_invariants_hold_with_state(self, with_state):
        assert with_state.violations == []

    def test_restored_prices_match_pre_crash_iterate(self, with_state):
        assert with_state.restored_price_gap is not None
        assert with_state.restored_price_gap == pytest.approx(0.0, abs=1e-9)

    def test_identity_stays_monotone_across_restart(self, with_state):
        identities = [
            (obs.epoch, obs.version)
            for obs in with_state.observations
            if obs.status == "ok" and obs.epoch is not None
        ]
        assert identities == sorted(identities)
        # The restart is visible as an epoch boundary, not a reset.
        assert identities[-1][0] > identities[0][0]

    def test_mlu_reconverges_to_fault_free_twin(self, with_state):
        assert with_state.reconverged(epsilon=0.15)
        assert len(with_state.chaotic.completion_times) == len(
            with_state.baseline.completion_times
        )

    def test_torn_wal_did_not_prevent_recovery(self, with_state):
        kinds = [event.kind for event in with_state.events]
        assert ChaosEventKind.CORRUPT_WAL in kinds
        assert ChaosEventKind.RESTART in kinds
        assert not any(
            v.invariant == "price-reset" for v in with_state.violations
        )


class TestFailover:
    def test_selection_plane_never_sees_an_exception(self, with_state):
        assert with_state.selector_exceptions == 0
        assert with_state.native_fallbacks == 0

    def test_guidance_stays_fresh_through_crash_and_partition(self, with_state):
        assert with_state.statuses() == ["ok"]

    def test_standby_actually_served(self, with_state):
        endpoints = {obs.active_endpoint for obs in with_state.observations}
        assert endpoints == {0, 1}

    def test_staleness_is_bounded(self, with_state):
        assert not any(
            v.invariant == "stale-age" for v in with_state.violations
        )
        for obs in with_state.observations:
            if obs.origin_staleness is not None:
                # Standby staleness never exceeds one sync interval plus
                # the longest outage the schedule inflicts.
                assert obs.origin_staleness <= 60.0


class TestAmnesiacRestart:
    """The run the state store exists to prevent: restart without disk."""

    def test_primary_regression_is_recorded(self, without_state):
        invariants = {v.invariant for v in without_state.violations}
        assert "primary-version-regression" in invariants

    def test_standby_guard_keeps_readers_monotone(self, without_state):
        """Readers never observe the regression -- the standby refuses to
        apply a state delta that would roll its follower back."""
        invariants = {v.invariant for v in without_state.violations}
        assert "version-regression" not in invariants

    def test_no_restored_price_gap_to_speak_of(self, without_state):
        assert without_state.restored_price_gap is None  # nothing restored


class TestDeterminism:
    def test_identical_seed_identical_run(self, with_state):
        rerun = run_chaos(seed=SEED, with_state=True)
        assert [
            (o.time, o.status, o.epoch, o.version, o.stale, o.mlu)
            for o in rerun.observations
        ] == [
            (o.time, o.status, o.epoch, o.version, o.stale, o.mlu)
            for o in with_state.observations
        ]
        assert [
            (v.time, v.invariant) for v in rerun.violations
        ] == [(v.time, v.invariant) for v in with_state.violations]

    def test_seeded_schedule_is_reproducible(self):
        a = ChaosSchedule.seeded(SEED)
        b = ChaosSchedule.seeded(SEED)
        assert [(e.time, e.kind) for e in a] == [(e.time, e.kind) for e in b]
        assert len(a) == 5

    def test_schedule_orders_events(self):
        schedule = ChaosSchedule(
            [
                ChaosEvent(20.0, ChaosEventKind.RESTART),
                ChaosEvent(10.0, ChaosEventKind.CRASH),
            ]
        )
        assert [e.kind for e in schedule] == [
            ChaosEventKind.CRASH,
            ChaosEventKind.RESTART,
        ]

    def test_negative_event_time_rejected(self):
        with pytest.raises(ValueError):
            ChaosEvent(-1.0, ChaosEventKind.CRASH)


class TestReport:
    def test_format_mentions_every_section(self, with_state):
        text = format_chaos(with_state)
        for needle in ("chaos schedule", "mean active MLU", "health ladder",
                       "restored price gap", "invariants: all held"):
            assert needle in text

    def test_violations_are_listed(self, without_state):
        text = format_chaos(without_state)
        assert "INVARIANT VIOLATIONS" in text
        assert "primary-version-regression" in text


class TestCli:
    def test_chaos_subcommand_exits_zero_when_invariants_hold(self):
        out = io.StringIO()
        assert cli_main(["chaos", "--seed", str(SEED)], out=out) == 0
        assert "invariants: all held" in out.getvalue()

    def test_chaos_subcommand_exits_nonzero_on_violation(self):
        out = io.StringIO()
        assert cli_main(["chaos", "--seed", str(SEED), "--no-state"], out=out) == 1
        assert "INVARIANT VIOLATIONS" in out.getvalue()


class TestStateDir:
    def test_default_state_dir_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_chaos()
        assert list(tmp_path.iterdir()) == []
