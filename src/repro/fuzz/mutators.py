"""The seeded mutation pool: small deterministic perturbations of a spec.

Every mutator is a pure function ``(spec, rng) -> ScenarioSpec | None``
returning ``None`` when it does not apply to the given spec (e.g. a
fault-schedule mutation on a spec with no chaos section).  All
randomness comes from the caller's seeded ``random.Random``, so the same
(parent, rng-state) pair always yields the same child; all numeric
perturbations are clamped into the spec layer's safe envelope and then
re-validated by the dataclass constructors -- a mutator can never emit
an invalid spec.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulator.chaos import ChaosEvent, ChaosEventKind, ChaosSchedule
from repro.simulator.differential import ENGINE_REGIMES
from repro.fuzz.spec import (
    BYZANTINE_MUTATORS,
    ScenarioSpec,
    TOPOLOGY_FAMILIES,
    TopologySpec,
    ViewSpec,
)

Mutation = Callable[[ScenarioSpec, random.Random], Optional[ScenarioSpec]]

_EVENT_TIME_MAX = 500.0


def _clamp(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


def _clamp_int(value: int, low: int, high: int) -> int:
    return int(min(max(value, low), high))


# -- topology -------------------------------------------------------------------


def grow_topology(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    topo = spec.topology
    if topo.family != "synthetic":
        # Escalate a library topology into the parameterized synthetic
        # family so subsequent grows/shrinks have a knob to turn.
        return replace(
            spec,
            topology=TopologySpec(
                family="synthetic", seed=topo.seed, n_pops=8, n_hubs=3
            ),
        )
    n_pops = _clamp_int(topo.n_pops + rng.randint(1, 4), 4, 24)
    n_hubs = _clamp_int(topo.n_hubs + (1 if rng.random() < 0.3 else 0), 3, 6)
    return replace(
        spec, topology=replace(topo, n_pops=max(n_pops, n_hubs), n_hubs=n_hubs)
    )


def shrink_topology(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    topo = spec.topology
    if topo.family != "synthetic":
        return None
    n_pops = _clamp_int(topo.n_pops - rng.randint(1, 4), 4, 24)
    if n_pops <= topo.n_hubs:
        return replace(spec, topology=TopologySpec(family="abilene", seed=topo.seed))
    return replace(spec, topology=replace(topo, n_pops=n_pops))


def reseed_topology(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    family = TOPOLOGY_FAMILIES[rng.randrange(len(TOPOLOGY_FAMILIES))]
    return replace(
        spec,
        topology=replace(spec.topology, family=family, seed=rng.randrange(2**16)),
    )


# -- traffic / workload ---------------------------------------------------------


def skew_traffic(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    work = spec.workload
    choice = rng.randrange(5)
    if choice == 0:
        work = replace(
            work, n_peers=_clamp_int(work.n_peers + rng.choice([-4, -2, 2, 4]), 4, 24)
        )
    elif choice == 1:
        work = replace(
            work, file_mbit=float(_clamp(work.file_mbit * rng.choice([0.5, 2.0]), 4.0, 64.0))
        )
    elif choice == 2:
        work = replace(
            work, neighbors=_clamp_int(work.neighbors + rng.choice([-2, 2]), 3, 10)
        )
    elif choice == 3:
        work = replace(
            work,
            join_window=float(
                _clamp(work.join_window * rng.choice([0.5, 2.0]), 20.0, 300.0)
            ),
        )
    else:
        work = replace(
            work,
            tracker_interval=float(
                _clamp(work.tracker_interval + rng.choice([-2.0, 2.0]), 2.0, 10.0)
            ),
        )
    return replace(spec, workload=work)


def reseed_workload(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    return replace(
        spec,
        workload=replace(
            spec.workload,
            rng_seed=rng.randrange(2**16),
            placement_seed=rng.randrange(2**16),
        ),
    )


# -- chaos fault schedule -------------------------------------------------------

_INSERTABLE = (
    ChaosEventKind.CRASH,
    ChaosEventKind.RESTART,
    ChaosEventKind.RESTART_CLEAN,
    ChaosEventKind.PARTITION_START,
    ChaosEventKind.PARTITION_END,
    ChaosEventKind.CORRUPT_WAL,
)


def _with_events(spec: ScenarioSpec, events: List[ChaosEvent]) -> ScenarioSpec:
    assert spec.chaos is not None
    return replace(spec, chaos=replace(spec.chaos, events=ChaosSchedule(events)))


def insert_fault_event(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    if spec.chaos is None:
        return None
    events = list(spec.chaos.events)
    if len(events) >= 12:
        return None
    kind = _INSERTABLE[rng.randrange(len(_INSERTABLE))]
    when = round(rng.uniform(1.0, min(_EVENT_TIME_MAX, spec.workload.until / 8)), 1)
    events.append(ChaosEvent(when, kind))
    return _with_events(spec, events)


def drop_fault_event(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    if spec.chaos is None or len(spec.chaos.events) == 0:
        return None
    events = list(spec.chaos.events)
    events.pop(rng.randrange(len(events)))
    return _with_events(spec, events)


def shift_fault_event(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    if spec.chaos is None or len(spec.chaos.events) == 0:
        return None
    events = list(spec.chaos.events)
    index = rng.randrange(len(events))
    event = events[index]
    when = round(_clamp(event.time + rng.uniform(-20.0, 20.0), 0.0, _EVENT_TIME_MAX), 1)
    events[index] = ChaosEvent(when, event.kind)
    return _with_events(spec, events)


def duplicate_fault_event(
    spec: ScenarioSpec, rng: random.Random
) -> Optional[ScenarioSpec]:
    if spec.chaos is None or not 0 < len(spec.chaos.events) < 12:
        return None
    events = list(spec.chaos.events)
    event = events[rng.randrange(len(events))]
    when = round(_clamp(event.time + rng.uniform(1.0, 15.0), 0.0, _EVENT_TIME_MAX), 1)
    events.append(ChaosEvent(when, event.kind))
    return _with_events(spec, events)


def toggle_amnesia(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    """Swap one RESTART <-> RESTART_CLEAN: the amnesiac-consistency axis."""
    if spec.chaos is None:
        return None
    events = list(spec.chaos.events)
    candidates = [
        i
        for i, e in enumerate(events)
        if e.kind in (ChaosEventKind.RESTART, ChaosEventKind.RESTART_CLEAN)
    ]
    if not candidates:
        return None
    index = candidates[rng.randrange(len(candidates))]
    event = events[index]
    flipped = (
        ChaosEventKind.RESTART_CLEAN
        if event.kind is ChaosEventKind.RESTART
        else ChaosEventKind.RESTART
    )
    events[index] = ChaosEvent(event.time, flipped)
    return _with_events(spec, events)


def toggle_byzantine(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    """Add/remove a byzantine behaviour on whichever sections can carry one."""
    targets: List[str] = []
    if spec.chaos is not None:
        targets.append("chaos")
    if spec.view is not None:
        targets.append("view")
    if not targets:
        return None
    target = targets[rng.randrange(len(targets))]
    section = getattr(spec, target)
    names = list(section.mutators if target == "view" else section.byzantine)
    name = BYZANTINE_MUTATORS[rng.randrange(len(BYZANTINE_MUTATORS))]
    if name in names:
        names.remove(name)
    elif len(names) < 4:
        names.append(name)
    if target == "view":
        if not names:
            return None  # keep the view section meaningful
        return replace(spec, view=ViewSpec(mutators=tuple(names)))
    return replace(spec, chaos=replace(section, byzantine=tuple(names)))


# -- differential schedule ------------------------------------------------------


def _with_diff(
    spec: ScenarioSpec, capacities: Tuple[float, ...], ops: Tuple[dict, ...]
) -> Optional[ScenarioSpec]:
    assert spec.differential is not None
    if not ops:
        return None
    return replace(
        spec,
        differential=replace(spec.differential, capacities=capacities, ops=ops),
    )


def extend_diff_schedule(
    spec: ScenarioSpec, rng: random.Random
) -> Optional[ScenarioSpec]:
    diff = spec.differential
    if diff is None or len(diff.ops) >= 256:
        return None
    n_links = len(diff.capacities)
    ops = list(diff.ops)
    for _ in range(rng.randint(1, 6)):
        action = rng.random()
        if action < 0.55:
            k = rng.randint(0, min(4, n_links))
            ops.append(
                {
                    "op": "arrive",
                    "links": rng.sample(range(n_links), k),
                    "size": round(rng.uniform(0.5, 8.0), 3),
                    "cap": (
                        round(rng.uniform(0.5, 30.0), 3) if rng.random() < 0.5 else None
                    ),
                }
            )
        elif action < 0.70:
            ops.append({"op": "abort", "flow": rng.randrange(max(len(ops), 1))})
        else:
            idle = round(rng.uniform(0.0, 1.0), 3) if rng.random() < 0.3 else None
            ops.append({"op": "advance", "idle": idle})
    return _with_diff(spec, diff.capacities, tuple(ops))


def trim_diff_schedule(
    spec: ScenarioSpec, rng: random.Random
) -> Optional[ScenarioSpec]:
    diff = spec.differential
    if diff is None or len(diff.ops) <= 1:
        return None
    ops = list(diff.ops)
    ops.pop(rng.randrange(len(ops)))
    return _with_diff(spec, diff.capacities, tuple(ops))


def perturb_diff_values(
    spec: ScenarioSpec, rng: random.Random
) -> Optional[ScenarioSpec]:
    diff = spec.differential
    if diff is None:
        return None
    arrivals = [i for i, op in enumerate(diff.ops) if op["op"] == "arrive"]
    if not arrivals:
        return None
    ops = [dict(op) for op in diff.ops]
    index = arrivals[rng.randrange(len(arrivals))]
    if rng.random() < 0.5:
        ops[index]["size"] = round(
            _clamp(ops[index]["size"] * rng.choice([0.25, 4.0]), 0.01, 64.0), 3
        )
    else:
        ops[index]["cap"] = (
            None if ops[index].get("cap") is not None else round(rng.uniform(0.5, 4.0), 3)
        )
    return _with_diff(spec, diff.capacities, tuple(ops))


def add_diff_link(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    diff = spec.differential
    if diff is None or len(diff.capacities) >= 16:
        return None
    capacities = tuple(diff.capacities) + (round(rng.uniform(1.0, 50.0), 3),)
    return _with_diff(spec, capacities, diff.ops)


def swap_diff_regime(spec: ScenarioSpec, rng: random.Random) -> Optional[ScenarioSpec]:
    diff = spec.differential
    if diff is None:
        return None
    regimes = sorted(ENGINE_REGIMES)
    others = [r for r in regimes if r != diff.regime]
    return replace(
        spec, differential=replace(diff, regime=others[rng.randrange(len(others))])
    )


#: The pool, in a fixed registration order (iteration order matters for
#: determinism: mutator choice is ``rng.randrange(len(MUTATORS))``).
MUTATORS: Dict[str, Mutation] = {
    "grow-topology": grow_topology,
    "shrink-topology": shrink_topology,
    "reseed-topology": reseed_topology,
    "skew-traffic": skew_traffic,
    "reseed-workload": reseed_workload,
    "insert-fault-event": insert_fault_event,
    "drop-fault-event": drop_fault_event,
    "shift-fault-event": shift_fault_event,
    "duplicate-fault-event": duplicate_fault_event,
    "toggle-amnesia": toggle_amnesia,
    "toggle-byzantine": toggle_byzantine,
    "extend-diff-schedule": extend_diff_schedule,
    "trim-diff-schedule": trim_diff_schedule,
    "perturb-diff-values": perturb_diff_values,
    "add-diff-link": add_diff_link,
    "swap-diff-regime": swap_diff_regime,
}

_NAMES = tuple(MUTATORS)


def mutate(
    spec: ScenarioSpec, rng: random.Random, rounds: int = 1
) -> Tuple[ScenarioSpec, Tuple[str, ...]]:
    """Apply up to ``rounds`` applicable mutations; returns (child, names).

    Inapplicable picks are skipped (bounded retries so the walk cannot
    stall); the returned child may equal the parent if nothing applied.
    """
    applied: List[str] = []
    current = spec
    for _ in range(rounds):
        for _attempt in range(8):
            name = _NAMES[rng.randrange(len(_NAMES))]
            child = MUTATORS[name](current, rng)
            if child is not None:
                current = child
                applied.append(name)
                break
    return current, tuple(applied)
