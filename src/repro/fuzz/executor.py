"""Execute one ScenarioSpec through every applicable oracle.

The executor is the fuzzer's judgement layer.  Given a spec it runs:

* the **differential oracle** -- the spec's explicit lockstep schedule
  through :func:`repro.simulator.differential.run_schedule` (scalar vs
  vectorized engines, full observable-state comparison after every op);
* the **chaos oracle** -- the spec's fault schedule through
  :func:`repro.simulator.chaos.run_chaos`, then judges the reported
  invariant violations: any violation kind outside the expected set is a
  failure, and -- the consistency direction -- an amnesiac schedule whose
  observations *show* a primary identity regression but whose harness
  recorded no violation is equally a failure (the detector went blind);
* the **view oracle** -- a p-distance view pushed through the spec's
  byzantine mutator chain, asserting ``validate_view`` acceptance
  consistency: pristine views are accepted, known-poisonous mutations
  (negative distances, missing rows, beyond-policy churn) are rejected,
  rejection happens only via :class:`ViewValidationError`, and the
  verdict is stable across re-evaluation;
* the **universal invariants** -- no oracle may crash (any exception
  that is not the oracle's own verdict type is a finding), and the cheap
  oracles are executed twice so a nondeterministic run is itself a
  failure.

Each run also emits a **coverage** set -- which invariant checks, chaos
event kinds, engine code paths (full-solve / incremental / incremental
over several components / compaction), health-ladder states, failover
endpoints, and rejection categories the run reached -- which is what
drives corpus retention in the fuzzer.

**Planted regressions** (:data:`PLANTS`) let the tests and the CI smoke
job prove the whole pipeline end to end: each plant wraps one layer with
a known-bad behaviour (a vectorized engine that drops tight rate caps; one
whose arrivals join components without merging their flows; a validation
policy that stops requiring full-mesh views) that the fuzzer must
re-discover, minimize, and replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import PDistanceMap
from repro.observability import NULL_TELEMETRY
from repro.portal import faults, protocol
from repro.portal.resilience import ValidationPolicy, ViewValidationError, validate_view
from repro.simulator.chaos import ChaosEventKind, run_chaos
from repro.simulator.differential import (
    DivergenceError,
    run_schedule,
)
from repro.simulator.tcp import VectorizedFlowNetwork
from repro.fuzz.spec import ScenarioSpec

#: Named, deliberately-broken behaviours the fuzzer must catch.
PLANTS: Tuple[str, ...] = (
    "vector-cap-ignored",
    "vector-merge-skipped",
    "view-accept-missing-rows",
)

#: Rate caps below this threshold are silently dropped by the
#: ``vector-cap-ignored`` plant -- tight caps are exactly the regime the
#: historical int64-truncation bug hid in.
_PLANT_CAP_THRESHOLD = 2.5

_VIEW_MUTATORS = {
    "negate": faults.negate_distances,
    "drop-rows": faults.drop_rows,
    "churn-mild": faults.churn_values(3.0),
    "churn-wild": faults.churn_values(50.0),
}

#: Mutations validate_view (or the wire parser) must refuse outright.
_MUST_REJECT = frozenset({"negate", "drop-rows", "churn-wild"})

#: Violation kinds an amnesiac (RESTART_CLEAN) schedule is *expected* to
#: produce -- they are the detector working, not a bug.
_AMNESIA_KINDS = frozenset({"version-regression", "primary-version-regression"})


class _CapDroppingVector(VectorizedFlowNetwork):
    """The ``vector-cap-ignored`` planted regression."""

    def start_flow(self, links, size, meta=None, rate_cap=None):
        if rate_cap is not None and rate_cap < _PLANT_CAP_THRESHOLD:
            rate_cap = None
        return super().start_flow(links, size, meta=meta, rate_cap=rate_cap)


class _MergeSkippingVector(VectorizedFlowNetwork):
    """The ``vector-merge-skipped`` planted regression: an arrival joining
    two components relabels their links but drops one side's flows from
    the joined component, so its later solves miss them."""

    def _merge(self, keep, other):
        self._comp_slots[other] = set()
        return super()._merge(keep, other)


#: Engine plants by name; several combine into one subclass.
_VECTOR_PLANTS = {
    "vector-cap-ignored": _CapDroppingVector,
    "vector-merge-skipped": _MergeSkippingVector,
}


@dataclass(frozen=True)
class OracleFailure:
    """One confirmed oracle verdict against a spec."""

    oracle: str  # differential | chaos | view | universal
    kind: str  # coarse signature, stable under minimization
    detail: str

    @property
    def signature(self) -> Tuple[str, str]:
        return (self.oracle, self.kind)

    def to_json(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class RunOutcome:
    """Everything one execution observed."""

    coverage: FrozenSet[str]
    failures: Tuple[OracleFailure, ...]
    digest: str
    stats: Dict[str, Any]

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def signatures(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(failure.signature for failure in self.failures)


def _digest(coverage: Iterable[str], failures: Iterable[OracleFailure], stats: Dict) -> str:
    document = {
        "coverage": sorted(coverage),
        "failures": [failure.to_json() for failure in failures],
        "stats": stats,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Executor:
    """Runs specs against every applicable oracle, deterministically."""

    def __init__(
        self,
        plants: Iterable[str] = (),
        telemetry=NULL_TELEMETRY,
        chaos_enabled: bool = True,
        reconvergence_epsilon: float = 0.5,
    ) -> None:
        self.plants = frozenset(plants)
        unknown = self.plants - set(PLANTS)
        if unknown:
            raise ValueError(
                f"unknown plants {sorted(unknown)}; one of: {', '.join(PLANTS)}"
            )
        self.chaos_enabled = chaos_enabled
        self.reconvergence_epsilon = reconvergence_epsilon
        registry = telemetry.registry
        self._executions = registry.counter(
            "p4p_fuzz_oracle_executions_total",
            "Oracle executions by the scenario fuzzer.",
            labelnames=("oracle",),
        )
        self._failures = registry.counter(
            "p4p_fuzz_oracle_failures_total",
            "Oracle failures observed by the scenario fuzzer.",
            labelnames=("oracle",),
        )
        self._crashes = registry.counter(
            "p4p_fuzz_oracle_crashes_total",
            "Oracle executions that raised instead of returning a verdict "
            "(each one also becomes a crash:* finding).",
            labelnames=("oracle",),
        )

    # -- public entry point --------------------------------------------------

    def run(self, spec: ScenarioSpec) -> RunOutcome:
        coverage: List[str] = []
        failures: List[OracleFailure] = []
        stats: Dict[str, Any] = {}

        if spec.differential is not None:
            first = self._run_differential(spec, coverage, failures, stats)
            second = self._run_differential(spec, [], [], {})
            if first != second:
                failures.append(
                    OracleFailure(
                        "universal",
                        "nondeterministic",
                        "differential oracle digests differ across re-run: "
                        f"{first} vs {second}",
                    )
                )
        if spec.view is not None:
            first = self._run_view(spec, coverage, failures, stats)
            second = self._run_view(spec, [], [], {})
            if first != second:
                failures.append(
                    OracleFailure(
                        "universal",
                        "nondeterministic",
                        f"view oracle verdicts differ across re-run: {first} vs {second}",
                    )
                )
        if spec.chaos is not None and self.chaos_enabled:
            self._run_chaos(spec, coverage, failures, stats)

        for failure in failures:
            self._failures.labels(oracle=failure.oracle).inc()
        return RunOutcome(
            coverage=frozenset(coverage),
            failures=tuple(failures),
            digest=_digest(coverage, failures, stats),
            stats=stats,
        )

    # -- differential oracle -------------------------------------------------

    def _run_differential(
        self,
        spec: ScenarioSpec,
        coverage: List[str],
        failures: List[OracleFailure],
        stats: Dict[str, Any],
    ) -> str:
        """Run the lockstep schedule; returns a digest for the re-run check."""
        self._executions.labels(oracle="differential").inc()
        diff = spec.differential
        assert diff is not None
        planted = tuple(
            cls for name, cls in _VECTOR_PLANTS.items() if name in self.plants
        )
        factory = type("PlantedVector", planted, {}) if planted else None
        coverage.append(f"diff:regime:{diff.regime}")
        local: Dict[str, Any] = {}
        try:
            report = run_schedule(
                diff.capacities,
                diff.ops,
                regime=diff.regime,
                vector_factory=factory,
                label=f"spec={spec.digest()[:12]}",
            )
        except DivergenceError as exc:
            failures.append(
                OracleFailure("differential", "divergence", str(exc))
            )
            local = {"diverged": True, "context": exc.context}
        except Exception as exc:  # the universal no-crash invariant
            self._crashes.labels(oracle="differential").inc()
            failures.append(
                OracleFailure(
                    "differential", f"crash:{type(exc).__name__}", repr(exc)
                )
            )
            local = {"crashed": repr(exc)}
        else:
            engine_stats = report.stats
            for kind in set(report.op_kinds):
                coverage.append(f"diff:op:{kind}")
            if engine_stats.full_solves:
                coverage.append("diff:path:full")
            if engine_stats.incremental_solves:
                coverage.append("diff:path:incremental")
            if engine_stats.multi_closure_solves:
                coverage.append("diff:path:multi-closure")
            if engine_stats.compactions:
                coverage.append("diff:path:compaction")
            if report.capped_flows:
                coverage.append("diff:capped")
            if report.linkless_flows:
                coverage.append("diff:linkless")
            if report.pops:
                coverage.append("diff:pops")
            local = {
                "steps": report.steps,
                "full_solves": engine_stats.full_solves,
                "incremental_solves": engine_stats.incremental_solves,
                "compactions": engine_stats.compactions,
                "pops": report.pops,
            }
        stats["differential"] = local
        return _digest([], [], local)

    # -- view-validation oracle ----------------------------------------------

    def _base_view(self, spec: ScenarioSpec) -> PDistanceMap:
        tracker = ITracker(
            topology=spec.topology.build(),
            config=ITrackerConfig(mode=PriceMode.HOP_COUNT),
        )
        return tracker.get_pdistances()

    def _view_policy(self) -> ValidationPolicy:
        if "view-accept-missing-rows" in self.plants:
            return ValidationPolicy(require_full_mesh=False)
        return ValidationPolicy()

    @staticmethod
    def _categorize(problems: List[str]) -> List[str]:
        categories = []
        for problem in problems:
            if "empty PID set" in problem:
                categories.append("empty")
            elif "PID set mismatch" in problem:
                categories.append("pid-mismatch")
            elif "non-finite or negative" in problem:
                categories.append("negative")
            elif "missing distance row" in problem:
                categories.append("missing-row")
            elif "intra-PID" in problem:
                categories.append("intra")
            elif "churn" in problem:
                categories.append("churn")
            else:
                categories.append("other")
        return sorted(set(categories))

    def _run_view(
        self,
        spec: ScenarioSpec,
        coverage: List[str],
        failures: List[OracleFailure],
        stats: Dict[str, Any],
    ) -> str:
        """One acceptance-consistency pass; returns a verdict digest."""
        self._executions.labels(oracle="view").inc()
        view_spec = spec.view
        assert view_spec is not None
        policy = self._view_policy()
        local: Dict[str, Any] = {"mutators": list(view_spec.mutators)}
        try:
            base = self._base_view(spec)
            document = protocol.pdistance_to_wire(base)
            for name in view_spec.mutators:
                coverage.append(f"view:mutator:{name}")
                document = _VIEW_MUTATORS[name](document)
            verdict, categories = self._judge_view(document, base, policy)
        except Exception as exc:
            self._crashes.labels(oracle="view").inc()
            failures.append(
                OracleFailure("view", f"crash:{type(exc).__name__}", repr(exc))
            )
            stats["view"] = {"crashed": repr(exc)}
            return _digest([], [], stats["view"])
        local["verdict"] = verdict
        local["categories"] = categories
        if verdict == "accepted":
            coverage.append("view:accepted")
        else:
            for category in categories:
                coverage.append(f"view:rejected:{category}")
        must_reject = _MUST_REJECT.intersection(view_spec.mutators)
        if must_reject and verdict == "accepted":
            failures.append(
                OracleFailure(
                    "view",
                    "byzantine-accepted",
                    "validate_view accepted a view mutated by "
                    f"{sorted(must_reject)} (policy {policy!r})",
                )
            )
        if not view_spec.mutators and verdict != "accepted":
            failures.append(
                OracleFailure(
                    "view",
                    "pristine-rejected",
                    f"unmutated view rejected: {categories}",
                )
            )
        stats["view"] = local
        return _digest([], [], local)

    def _judge_view(
        self,
        document: Dict[str, Any],
        previous: PDistanceMap,
        policy: ValidationPolicy,
    ) -> Tuple[str, List[str]]:
        try:
            view = protocol.pdistance_from_wire(document)
        except protocol.ProtocolError:
            return "rejected", ["parse"]
        except ValueError:
            return "rejected", ["parse"]
        try:
            validate_view(view, policy, previous=previous)
        except ViewValidationError as exc:
            return "rejected", self._categorize(list(exc.problems))
        return "accepted", []

    # -- chaos oracle ----------------------------------------------------------

    def _fault_schedule_factory(self, spec: ScenarioSpec):
        chaos_spec = spec.chaos
        assert chaos_spec is not None
        if not chaos_spec.byzantine:
            return None
        mutators = [_VIEW_MUTATORS[name] for name in chaos_spec.byzantine]

        def chained(result: Dict[str, Any]) -> Dict[str, Any]:
            for mutate in mutators:
                result = mutate(result)
            return result

        def factory() -> faults.FaultSchedule:
            return faults.FaultSchedule(
                default=faults.Fault(faults.FaultKind.BYZANTINE, mutate=chained)
            )

        return factory

    def _run_chaos(
        self,
        spec: ScenarioSpec,
        coverage: List[str],
        failures: List[OracleFailure],
        stats: Dict[str, Any],
    ) -> None:
        self._executions.labels(oracle="chaos").inc()
        chaos_spec = spec.chaos
        work = spec.workload
        assert chaos_spec is not None
        local: Dict[str, Any] = {}
        try:
            result = run_chaos(
                topology=spec.topology.build(),
                n_peers=work.n_peers,
                schedule=chaos_spec.events,
                stale_ttl=chaos_spec.stale_ttl,
                breaker_cooldown=chaos_spec.breaker_cooldown,
                tracker_interval=work.tracker_interval,
                until=work.until,
                placement_seed=work.placement_seed,
                fault_schedule_factory=self._fault_schedule_factory(spec),
                rng_seed=work.rng_seed,
                file_mbit=work.file_mbit,
                neighbors=work.neighbors,
                join_window=work.join_window,
            )
        except Exception as exc:
            self._crashes.labels(oracle="chaos").inc()
            failures.append(
                OracleFailure("chaos", f"crash:{type(exc).__name__}", repr(exc))
            )
            stats["chaos"] = {"crashed": repr(exc)}
            return

        amnesiac = chaos_spec.events.amnesiac
        for event in chaos_spec.events:
            coverage.append(f"chaos:event:{event.kind.value}")
        for status in result.statuses():
            coverage.append(f"chaos:status:{status}")
        endpoints = sorted(
            {
                obs.active_endpoint
                for obs in result.observations
                if obs.active_endpoint is not None
            }
        )
        for endpoint in endpoints:
            coverage.append(f"chaos:endpoint:{endpoint}")
        violation_kinds = sorted({v.invariant for v in result.violations})
        for kind in violation_kinds:
            coverage.append(f"chaos:violation:{kind}")
        for name in chaos_spec.byzantine:
            coverage.append(f"chaos:byz:{name}")
        if result.restored_price_gap is not None:
            coverage.append("chaos:restored-gap")
        reconverged = result.reconverged(self.reconvergence_epsilon)
        coverage.append(f"chaos:reconverged:{reconverged}")

        allowed = _AMNESIA_KINDS if amnesiac else frozenset()
        unexpected = [v for v in result.violations if v.invariant not in allowed]
        if unexpected:
            worst = unexpected[0]
            failures.append(
                OracleFailure(
                    "chaos",
                    f"unexpected-violation:{worst.invariant}",
                    f"{len(unexpected)} unexpected violation(s); first at "
                    f"t={worst.time:.1f}: {worst.invariant}: {worst.detail}",
                )
            )
        if amnesiac and self._regression_visible(result.observations):
            detected = _AMNESIA_KINDS.intersection(violation_kinds)
            if not detected:
                failures.append(
                    OracleFailure(
                        "chaos",
                        "amnesia-undetected",
                        "observations show a primary (epoch, version) regression "
                        "but the harness recorded no amnesia violation",
                    )
                )
        if self._expect_reconvergence(chaos_spec) and not reconverged:
            failures.append(
                OracleFailure(
                    "chaos",
                    "no-reconvergence",
                    "faulted run's mean active MLU "
                    f"{result.mean_active_mlu('chaotic'):.4f} vs baseline "
                    f"{result.mean_active_mlu('baseline'):.4f} "
                    f"(epsilon {self.reconvergence_epsilon:g}); completions "
                    f"{len(result.chaotic.completion_times)} vs "
                    f"{len(result.baseline.completion_times)}",
                )
            )
        local = {
            "violations": violation_kinds,
            "statuses": result.statuses(),
            "endpoints": endpoints,
            "reconverged": reconverged,
            "completions": [
                len(result.baseline.completion_times),
                len(result.chaotic.completion_times),
            ],
            # The first invariant-violating tick's causal trace tree (all
            # spans run on the simulation clock, so this is deterministic
            # and digest-safe); None when no invariant tripped.
            "violation_trace": (
                result.violation_traces[0] if result.violation_traces else None
            ),
        }
        stats["chaos"] = local

    @staticmethod
    def _regression_visible(observations) -> bool:
        """Independent recomputation of the primary-identity invariant.

        The harness's own detector walks the same ticks; if our replay of
        the observation stream sees a strictly-decreasing consecutive
        pair the harness must have recorded a violation -- anything else
        means the detector went blind.
        """
        last: Optional[Tuple[int, int]] = None
        for obs in observations:
            if obs.primary_epoch is None or obs.primary_version is None:
                continue
            identity = (obs.primary_epoch, obs.primary_version)
            if last is not None and identity < last:
                return True
            last = identity
        return False

    @staticmethod
    def _expect_reconvergence(chaos_spec) -> bool:
        """Only demand MLU re-convergence when the schedule recovers.

        A schedule that leaves the primary dead or partitioned (or that
        restarts it amnesiac, or poisons it byzantine) is *allowed* to
        end degraded; demanding convergence there would report working
        degradation as a bug.
        """
        if chaos_spec.byzantine or chaos_spec.events.amnesiac:
            return False
        events = list(chaos_spec.events)
        crashes = [e for e in events if e.kind is ChaosEventKind.CRASH]
        for crash in crashes:
            if not any(
                e.kind is ChaosEventKind.RESTART and e.time > crash.time
                for e in events
            ):
                return False
        partitions = [e for e in events if e.kind is ChaosEventKind.PARTITION_START]
        for start in partitions:
            if not any(
                e.kind is ChaosEventKind.PARTITION_END and e.time > start.time
                for e in events
            ):
                return False
        return True
