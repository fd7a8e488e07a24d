"""Delta-debugging minimizer for failing scenario specs.

A raw failing spec out of the mutation loop routinely carries three
oracle sections, dozens of schedule ops, and a synthetic topology -- none
of which may matter.  ``Minimizer`` shrinks it while preserving the
exact failure signature ``(oracle, kind)``:

1. **section pruning** -- drop whole oracle sections that are not needed
   to reproduce;
2. **list reduction** -- classic ddmin (complement removal with
   progressively finer chunks) over the differential op list, the chaos
   event list, and the byzantine mutator chains;
3. **scalar simplification** -- snap the workload, topology, and chaos
   timing knobs back to their defaults wherever the failure
   survives it.

Passes repeat to a fixed point under an execution budget; every
candidate execution goes through the same :class:`~repro.fuzz.executor.
Executor` (same plants, same determinism guarantees), and results are
memoized by spec digest so re-visited candidates are free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulator.chaos import ChaosSchedule
from repro.fuzz.executor import Executor
from repro.fuzz.spec import ScenarioSpec, TopologySpec, WorkloadSpec


@dataclass(frozen=True)
class MinimizationResult:
    spec: ScenarioSpec
    executions: int
    budget_exhausted: bool


class Minimizer:
    """Shrink a failing spec while keeping its failure signature."""

    def __init__(self, executor: Executor, max_executions: int = 200) -> None:
        self.executor = executor
        self.max_executions = max_executions

    def minimize(
        self, spec: ScenarioSpec, signature: Tuple[str, str]
    ) -> MinimizationResult:
        self._signature = signature
        self._verdicts: Dict[str, bool] = {}
        self._executions = 0
        if not self._fails(spec):
            # Not reproducible under this executor -- nothing to shrink.
            return MinimizationResult(spec, self._executions, False)
        current = spec
        while True:
            before = current.digest()
            current = self._prune_sections(current)
            current = self._reduce_lists(current)
            current = self._simplify_scalars(current)
            if current.digest() == before or self._exhausted:
                break
        return MinimizationResult(current, self._executions, self._exhausted)

    # -- oracle plumbing -----------------------------------------------------

    @property
    def _exhausted(self) -> bool:
        return self._executions >= self.max_executions

    def _fails(self, spec: ScenarioSpec) -> bool:
        digest = spec.digest()
        if digest in self._verdicts:
            return self._verdicts[digest]
        if self._exhausted:
            return False  # conservative: keep the last known-failing spec
        self._executions += 1
        outcome = self.executor.run(spec)
        verdict = self._signature in outcome.signatures()
        self._verdicts[digest] = verdict
        return verdict

    def _try(self, build: Callable[[], Optional[ScenarioSpec]]) -> Optional[ScenarioSpec]:
        """Build a candidate (None/invalid -> reject) and test it."""
        try:
            candidate = build()
        except ValueError:
            return None
        if candidate is None:
            return None
        return candidate if self._fails(candidate) else None

    # -- pass 1: whole sections ----------------------------------------------

    def _prune_sections(self, spec: ScenarioSpec) -> ScenarioSpec:
        for section in spec.sections:
            if len(spec.sections) <= 1:
                break
            candidate = self._try(lambda s=section: spec.without(s))
            if candidate is not None:
                spec = candidate
        return spec

    # -- pass 2: ddmin over lists --------------------------------------------

    def _ddmin(
        self,
        items: List,
        rebuild: Callable[[List], Optional[ScenarioSpec]],
        spec: ScenarioSpec,
    ) -> ScenarioSpec:
        """Classic complement-removal ddmin; returns the reduced spec."""
        granularity = 2
        while len(items) >= 1 and not self._exhausted:
            chunk = max(1, len(items) // granularity)
            reduced = False
            start = 0
            while start < len(items):
                remaining = items[:start] + items[start + chunk:]
                candidate = self._try(lambda r=remaining: rebuild(list(r)))
                if candidate is not None:
                    items = remaining
                    spec = candidate
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
                start += chunk
            if not reduced:
                if chunk == 1:
                    break
                granularity = min(granularity * 2, max(len(items), 2))
        return spec

    def _reduce_lists(self, spec: ScenarioSpec) -> ScenarioSpec:
        if spec.differential is not None:
            diff = spec.differential

            def rebuild_ops(ops: List) -> Optional[ScenarioSpec]:
                if not ops:
                    return None
                return replace(
                    spec, differential=replace(spec.differential, ops=tuple(ops))
                )

            spec = self._ddmin(list(diff.ops), rebuild_ops, spec)
        if spec.chaos is not None:

            def rebuild_events(events: List) -> Optional[ScenarioSpec]:
                return replace(
                    spec, chaos=replace(spec.chaos, events=ChaosSchedule(events))
                )

            spec = self._ddmin(list(spec.chaos.events), rebuild_events, spec)

            def rebuild_byzantine(names: List) -> Optional[ScenarioSpec]:
                return replace(
                    spec, chaos=replace(spec.chaos, byzantine=tuple(names))
                )

            spec = self._ddmin(list(spec.chaos.byzantine), rebuild_byzantine, spec)
        if spec.view is not None:

            def rebuild_mutators(names: List) -> Optional[ScenarioSpec]:
                if not names:
                    return None  # a pristine view is a different scenario
                return replace(spec, view=replace(spec.view, mutators=tuple(names)))

            spec = self._ddmin(list(spec.view.mutators), rebuild_mutators, spec)
        return spec

    # -- pass 3: scalar defaults ---------------------------------------------

    def _simplify_scalars(self, spec: ScenarioSpec) -> ScenarioSpec:
        candidates: List[Callable[[], Optional[ScenarioSpec]]] = [
            lambda: replace(spec, topology=TopologySpec())
            if spec.topology != TopologySpec()
            else None,
            lambda: replace(spec, workload=WorkloadSpec())
            if spec.workload != WorkloadSpec()
            else None,
        ]
        if spec.workload != WorkloadSpec():
            # Individual workload knobs, for when the wholesale reset fails.
            defaults = WorkloadSpec()
            for field_name in (
                "until",
                "n_peers",
                "file_mbit",
                "neighbors",
                "join_window",
                "tracker_interval",
                "rng_seed",
                "placement_seed",
            ):
                default_value = getattr(defaults, field_name)
                if getattr(spec.workload, field_name) != default_value:
                    candidates.append(
                        lambda f=field_name, v=default_value: replace(
                            spec, workload=replace(spec.workload, **{f: v})
                        )
                    )
        if spec.chaos is not None:
            defaults = {"stale_ttl": 30.0, "breaker_cooldown": 10.0}
            for field_name, default_value in defaults.items():
                if getattr(spec.chaos, field_name) != default_value:
                    candidates.append(
                        lambda f=field_name, v=default_value: replace(
                            spec, chaos=replace(spec.chaos, **{f: v})
                        )
                    )
        if spec.differential is not None and spec.differential.regime != "adaptive":
            candidates.append(
                lambda: replace(
                    spec, differential=replace(spec.differential, regime="adaptive")
                )
            )
        if spec.differential is not None:
            candidates.append(lambda: self._trim_capacities(spec))
        for build in candidates:
            if self._exhausted:
                break
            candidate = self._try(build)
            if candidate is not None:
                spec = candidate
                # Rebuild downstream candidates against the new spec on the
                # next fixed-point round rather than chaining stale closures.
                break
        return spec

    @staticmethod
    def _trim_capacities(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
        """Drop trailing links no op references (indices stay valid)."""
        diff = spec.differential
        assert diff is not None
        highest = -1
        for op in diff.ops:
            for link in op.get("links", ()):
                highest = max(highest, link)
        keep = max(highest + 1, 1)
        if keep >= len(diff.capacities):
            return None
        return replace(
            spec, differential=replace(diff, capacities=diff.capacities[:keep])
        )
