"""The coverage-guided scenario fuzzer: seed, mutate, execute, retain.

One :class:`Fuzzer` run is a deterministic loop:

1. execute a fixed **seed corpus** (lockstep schedules across all engine
   regimes, single-mutator byzantine views, recoverable and amnesiac
   chaos schedules) so every oracle starts with baseline coverage;
2. each iteration, pick a **parent** from the corpus (chaos-bearing
   parents at a bounded fraction -- they cost ~100x a differential run),
   apply 1..``max_mutations`` seeded mutations, and execute the child
   through every applicable oracle;
3. **retain** the child when it reached coverage no earlier spec reached;
4. on an oracle failure, **confirm** it with a second execution, shrink
   it with the delta-debugging :class:`~repro.fuzz.minimizer.Minimizer`,
   and record a :class:`Finding` (one per failure signature).

Determinism: the only RNG is ``random.Random(config.seed)``, executors
re-run cheap oracles to self-check, and the report exposes a
``determinism_digest`` -- two runs with the same config must produce the
same digest bit for bit (the CI smoke job and the self-tests both assert
this).  Setting ``time_budget`` trades that away: the wall clock then
decides how many iterations happen.

Findings serialize as **fixtures** -- minimized spec + expected failure
signature + the plants that were active -- which ``replay_fixture``
re-executes; every fixture under ``tests/fixtures/fuzz/`` is replayed by
the regression suite forever after.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.observability import NULL_TELEMETRY
from repro.simulator.chaos import ChaosSchedule
from repro.simulator.differential import ENGINE_REGIMES, random_schedule
from repro.fuzz.corpus import Corpus, CorpusEntry, CoverageMap
from repro.fuzz.executor import Executor, OracleFailure, PLANTS, RunOutcome
from repro.fuzz.minimizer import Minimizer
from repro.fuzz.mutators import mutate
from repro.fuzz.spec import (
    BYZANTINE_MUTATORS,
    ChaosSpec,
    DifferentialSpec,
    ScenarioSpec,
    ViewSpec,
    WorkloadSpec,
)

#: Format written for new fixtures.  /2 added the optional ``trace`` key
#: (the violating tick's causal trace tree); /1 fixtures stay loadable.
FIXTURE_FORMAT = "p4p-fuzz-fixture/2"
FIXTURE_FORMATS = ("p4p-fuzz-fixture/1", "p4p-fuzz-fixture/2")


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    iterations: int = 200
    time_budget: Optional[float] = None  # seconds; None = iteration-bound only
    corpus_dir: Optional[str] = None
    plants: Tuple[str, ...] = ()
    chaos_enabled: bool = True
    chaos_fraction: float = 0.15
    max_mutations: int = 3
    minimize: bool = True
    minimizer_budget: int = 200

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        unknown = set(self.plants) - set(PLANTS)
        if unknown:
            raise ValueError(f"unknown plants {sorted(unknown)}")
        if not 0.0 <= self.chaos_fraction <= 1.0:
            raise ValueError("chaos_fraction must be in [0, 1]")


@dataclass(frozen=True)
class Finding:
    """One unique failure signature, with its minimized reproducer."""

    failure: OracleFailure
    spec: ScenarioSpec  # as first discovered
    minimized: ScenarioSpec
    iteration: int
    confirmed: bool
    minimizer_executions: int
    #: Causal trace tree of the first invariant-violating tick observed
    #: while confirming the failure (chaos oracle only; None otherwise) --
    #: the minimized reproducer ships with its own causal explanation.
    trace: Optional[Dict[str, Any]] = None

    def to_fixture(self, config: FuzzConfig) -> Dict[str, Any]:
        document = {
            "format": FIXTURE_FORMAT,
            "spec": self.minimized.to_json(),
            "expect": {"oracle": self.failure.oracle, "kind": self.failure.kind},
            "plants": sorted(config.plants),
            "provenance": {
                "fuzzer_seed": config.seed,
                "iteration": self.iteration,
                "original_digest": self.spec.digest(),
                "minimizer_executions": self.minimizer_executions,
                "detail": self.failure.detail,
            },
        }
        if self.trace is not None:
            document["trace"] = self.trace
        return document


@dataclass
class FuzzReport:
    config: FuzzConfig
    iterations_run: int = 0
    seed_specs: int = 0
    duplicates_skipped: int = 0
    coverage: CoverageMap = field(default_factory=CoverageMap)
    corpus: Corpus = field(default_factory=Corpus)
    findings: Tuple[Finding, ...] = ()
    elapsed: float = 0.0  # informational; excluded from the digest

    @property
    def failed(self) -> bool:
        return bool(self.findings)

    def determinism_digest(self) -> str:
        """Content hash of everything a deterministic run must reproduce."""
        document = {
            "iterations": self.iterations_run,
            "coverage": sorted(self.coverage.keys),
            "corpus": self.corpus.digests(),
            "findings": [
                {
                    "oracle": f.failure.oracle,
                    "kind": f.failure.kind,
                    "minimized": f.minimized.digest(),
                }
                for f in self.findings
            ],
        }
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        lines = [
            "p4p scenario fuzzer: seed={} iterations={} ({} seed specs, "
            "{} duplicates skipped)".format(
                self.config.seed,
                self.iterations_run,
                self.seed_specs,
                self.duplicates_skipped,
            ),
            f"coverage: {len(self.coverage)} keys; corpus: {len(self.corpus)} retained",
        ]
        if self.config.plants:
            lines.append("plants active: " + ", ".join(sorted(self.config.plants)))
        if self.findings:
            lines.append(f"FINDINGS ({len(self.findings)}):")
            for finding in self.findings:
                shrunk = _spec_size(finding.spec), _spec_size(finding.minimized)
                lines.append(
                    f"  [{finding.failure.oracle}/{finding.failure.kind}] "
                    f"iteration {finding.iteration}, "
                    f"minimized {shrunk[0]} -> {shrunk[1]} elements "
                    f"({finding.minimizer_executions} executions), "
                    f"spec {finding.minimized.digest()[:12]}"
                )
                lines.append(f"    {finding.failure.detail}")
        else:
            lines.append("findings: none (all oracles held)")
        lines.append(f"determinism digest: {self.determinism_digest()}")
        return "\n".join(lines)


def _spec_size(spec: ScenarioSpec) -> int:
    """Rough element count (sections + list lengths) for shrink reporting."""
    size = len(spec.sections)
    if spec.differential is not None:
        size += len(spec.differential.ops) + len(spec.differential.capacities)
    if spec.chaos is not None:
        size += len(spec.chaos.events) + len(spec.chaos.byzantine)
    if spec.view is not None:
        size += len(spec.view.mutators)
    return size


class Fuzzer:
    def __init__(
        self,
        config: FuzzConfig,
        telemetry=NULL_TELEMETRY,
        clock=time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self.executor = Executor(
            plants=config.plants,
            telemetry=telemetry,
            chaos_enabled=config.chaos_enabled,
        )
        registry = telemetry.registry
        self._iterations = registry.counter(
            "p4p_fuzz_iterations_total", "Fuzzer iterations executed."
        )
        self._retained = registry.counter(
            "p4p_fuzz_retained_total", "Specs retained into the corpus."
        )
        self._findings = registry.counter(
            "p4p_fuzz_findings_total",
            "Unique failure signatures discovered.",
            labelnames=("oracle",),
        )
        self._minimizer_executions = registry.counter(
            "p4p_fuzz_minimizer_executions_total",
            "Executor runs spent inside the minimizer.",
        )
        self._corpus_size = registry.gauge(
            "p4p_fuzz_corpus_size", "Current corpus size."
        )
        self._coverage_keys = registry.gauge(
            "p4p_fuzz_coverage_keys", "Distinct coverage keys observed."
        )

    # -- the fixed seed corpus -----------------------------------------------

    def seed_specs(self) -> List[ScenarioSpec]:
        """Deterministic starting points covering every oracle."""
        specs: List[ScenarioSpec] = []
        regimes = sorted(ENGINE_REGIMES)
        for index in range(4):
            capacities, ops = random_schedule(1000 + index, n_events=30)
            specs.append(
                ScenarioSpec(
                    differential=DifferentialSpec(
                        capacities=tuple(capacities),
                        ops=tuple(ops),
                        regime=regimes[index % len(regimes)],
                    )
                )
            )
        specs.append(ScenarioSpec(view=ViewSpec(mutators=())))
        for name in BYZANTINE_MUTATORS:
            specs.append(ScenarioSpec(view=ViewSpec(mutators=(name,))))
        # A combined spec so mutation can move between cheap sections.
        capacities, ops = random_schedule(1099, n_events=30)
        specs.append(
            ScenarioSpec(
                differential=DifferentialSpec(
                    capacities=tuple(capacities), ops=tuple(ops)
                ),
                view=ViewSpec(mutators=("churn-mild",)),
            )
        )
        if self.config.chaos_enabled:
            short = WorkloadSpec(until=2000.0)
            specs.append(
                ScenarioSpec(
                    workload=short,
                    chaos=ChaosSpec(events=ChaosSchedule.seeded(201, horizon=100.0)),
                )
            )
            specs.append(
                ScenarioSpec(
                    workload=short,
                    chaos=ChaosSpec(
                        events=ChaosSchedule.seeded(202, horizon=100.0, with_state=False)
                    ),
                )
            )
            specs.append(
                ScenarioSpec(
                    workload=short,
                    chaos=ChaosSpec(
                        events=ChaosSchedule.seeded(203, horizon=100.0),
                        byzantine=("churn-mild",),
                    ),
                )
            )
        return specs

    # -- the main loop ---------------------------------------------------------

    def run(self) -> FuzzReport:
        config = self.config
        rng = random.Random(config.seed)
        report = FuzzReport(config=config)
        started = self.clock()
        executed: Dict[str, str] = {}  # spec digest -> outcome digest
        seen_signatures: set = set()
        findings: List[Finding] = []

        def out_of_time() -> bool:
            return (
                config.time_budget is not None
                and self.clock() - started >= config.time_budget
            )

        def process(spec: ScenarioSpec, iteration: int) -> None:
            outcome = self.executor.run(spec)
            executed[spec.digest()] = outcome.digest
            self._iterations.inc()
            new_keys = report.coverage.observe(outcome.coverage, iteration)
            if new_keys or len(report.corpus) == 0:
                if report.corpus.add(
                    CorpusEntry(
                        spec=spec,
                        coverage=outcome.coverage,
                        new_keys=new_keys,
                        iteration=iteration,
                    )
                ):
                    self._retained.inc()
            self._corpus_size.set(len(report.corpus))
            self._coverage_keys.set(len(report.coverage))
            for failure in outcome.failures:
                if failure.signature in seen_signatures:
                    continue
                seen_signatures.add(failure.signature)
                findings.append(self._investigate(spec, failure, iteration))
                self._findings.labels(oracle=failure.oracle).inc()

        seeds = self.seed_specs()
        report.seed_specs = len(seeds)
        iteration = 0
        for spec in seeds:
            if iteration >= config.iterations or out_of_time():
                break
            process(spec, iteration)
            iteration += 1

        while iteration < config.iterations and not out_of_time():
            parent = report.corpus.choose(rng, config.chaos_fraction)
            if parent is None:
                break
            child, _applied = mutate(
                parent, rng, rounds=rng.randint(1, config.max_mutations)
            )
            iteration += 1
            if child.digest() in executed:
                report.duplicates_skipped += 1
                self._iterations.inc()
                continue
            process(child, iteration - 1)

        report.iterations_run = iteration
        report.findings = tuple(findings)
        report.elapsed = self.clock() - started
        if config.corpus_dir:
            self._persist(report)
        return report

    def _investigate(
        self, spec: ScenarioSpec, failure: OracleFailure, iteration: int
    ) -> Finding:
        """Confirm a failure on a fresh execution, then minimize it."""
        confirmation = self.executor.run(spec)
        confirmed = failure.signature in confirmation.signatures()
        minimized = spec
        executions = 0
        if confirmed and self.config.minimize:
            minimizer = Minimizer(
                self.executor, max_executions=self.config.minimizer_budget
            )
            result = minimizer.minimize(spec, failure.signature)
            minimized = result.spec
            executions = result.executions
            self._minimizer_executions.inc(result.executions)
        trace = confirmation.stats.get("chaos", {}).get("violation_trace")
        return Finding(
            failure=failure,
            spec=spec,
            minimized=minimized,
            iteration=iteration,
            confirmed=confirmed,
            minimizer_executions=executions,
            trace=trace,
        )

    # -- persistence -----------------------------------------------------------

    def _persist(self, report: FuzzReport) -> None:
        base = self.config.corpus_dir
        assert base is not None
        corpus_dir = os.path.join(base, "corpus")
        findings_dir = os.path.join(base, "findings")
        os.makedirs(corpus_dir, exist_ok=True)
        os.makedirs(findings_dir, exist_ok=True)
        for entry in report.corpus.entries:
            path = os.path.join(corpus_dir, entry.spec.digest()[:16] + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry.spec.to_json(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        for index, finding in enumerate(report.findings):
            name = "{:03d}-{}-{}.json".format(
                index, finding.failure.oracle, finding.failure.kind.replace(":", "-")
            )
            with open(os.path.join(findings_dir, name), "w", encoding="utf-8") as handle:
                json.dump(finding.to_fixture(self.config), handle, indent=2, sort_keys=True)
                handle.write("\n")
        with open(os.path.join(base, "coverage.json"), "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "determinism_digest": report.determinism_digest(),
                    "first_seen": report.coverage.to_json(),
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")


# -- fixtures ---------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A checked-in minimized reproducer: spec + expected signature."""

    spec: ScenarioSpec
    expect: Tuple[str, str]
    plants: Tuple[str, ...]
    provenance: Dict[str, Any]
    #: Optional attached causal trace tree (format /2); replay ignores it
    #: (the expect signature is what replays assert), it exists for humans
    #: debugging the fixture.
    trace: Optional[Dict[str, Any]] = None

    @classmethod
    def from_json(cls, document: Any) -> "Fixture":
        if not isinstance(document, dict):
            raise ValueError("fixture must be an object")
        if document.get("format") not in FIXTURE_FORMATS:
            raise ValueError(
                f"unsupported fixture format {document.get('format')!r}; "
                f"expected one of {FIXTURE_FORMATS!r}"
            )
        unknown = set(document) - {
            "format", "spec", "expect", "plants", "provenance", "trace",
        }
        if unknown:
            raise ValueError(f"fixture has unknown keys {sorted(unknown)}")
        trace = document.get("trace")
        if trace is not None and not isinstance(trace, dict):
            raise ValueError("fixture trace must be an object when present")
        expect = document.get("expect")
        if (
            not isinstance(expect, dict)
            or set(expect) != {"oracle", "kind"}
            or not all(isinstance(v, str) for v in expect.values())
        ):
            raise ValueError("fixture expect must be {'oracle': str, 'kind': str}")
        plants = document.get("plants", [])
        if not isinstance(plants, list):
            raise ValueError("fixture plants must be a list")
        unknown_plants = set(plants) - set(PLANTS)
        if unknown_plants:
            raise ValueError(f"fixture references unknown plants {sorted(unknown_plants)}")
        return cls(
            spec=ScenarioSpec.from_json(document.get("spec")),
            expect=(expect["oracle"], expect["kind"]),
            plants=tuple(plants),
            provenance=dict(document.get("provenance") or {}),
            trace=trace,
        )


def load_fixture(path: str) -> Fixture:
    with open(path, "r", encoding="utf-8") as handle:
        return Fixture.from_json(json.load(handle))


def replay_fixture(
    fixture: Fixture,
    extra_plants: Tuple[str, ...] = (),
    telemetry=NULL_TELEMETRY,
) -> Tuple[bool, RunOutcome]:
    """Re-execute a fixture; True when the expected failure reproduces."""
    executor = Executor(
        plants=tuple(set(fixture.plants) | set(extra_plants)), telemetry=telemetry
    )
    outcome = executor.run(fixture.spec)
    return fixture.expect in outcome.signatures(), outcome
