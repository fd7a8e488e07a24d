"""ScenarioSpec: one fuzzable scenario, fully described as JSON.

A spec bundles everything one fuzzer execution needs -- a topology
recipe, a swarm/traffic workload, and up to three oracle sections:

* ``differential`` -- an explicit lockstep schedule for the
  scalar-vs-vectorized engine oracle
  (:mod:`repro.simulator.differential`);
* ``chaos`` -- a fault-event schedule plus optional byzantine portal
  mutators for the crash/restart/partition invariants
  (:mod:`repro.simulator.chaos`);
* ``view`` -- a byzantine mutator chain for the ``validate_view``
  acceptance-consistency oracle
  (:mod:`repro.portal.resilience`).

Every field is validated on construction *and* on :meth:`ScenarioSpec.
from_json`, with explicit bounds (the "safe envelope") so mutation can
never wander into scenarios that are merely expensive or degenerate
rather than interesting.  ``to_json``/``from_json`` round-trip exactly;
:meth:`ScenarioSpec.digest` is the canonical content hash used for
corpus filenames and determinism checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.network.generators import US_METROS, isp_a, synthetic_isp
from repro.network.library import abilene
from repro.network.topology import Topology
from repro.simulator.chaos import ChaosSchedule
from repro.simulator.differential import ENGINE_REGIMES, validate_schedule

SPEC_FORMAT = "p4p-fuzz-spec/1"

#: Byzantine portal/view mutator names a spec may reference; the executor
#: maps them to the payload mutators in :mod:`repro.portal.faults`.
BYZANTINE_MUTATORS: Tuple[str, ...] = (
    "negate",  # all distances negative: must die at parse
    "drop-rows",  # missing full-mesh rows: must die in validate_view
    "churn-mild",  # x3 churn: inside the default x10 policy, acceptable
    "churn-wild",  # x50 churn: beyond policy, must be rejected
)

TOPOLOGY_FAMILIES: Tuple[str, ...] = ("abilene", "isp_a", "synthetic")

_BOUNDS = {
    "n_pops": (4, 24),
    "n_hubs": (3, 6),
    "n_peers": (4, 24),
    "file_mbit": (4.0, 64.0),
    "neighbors": (3, 10),
    "join_window": (20.0, 300.0),
    "tracker_interval": (2.0, 10.0),
    "until": (1000.0, 8000.0),
    "stale_ttl": (10.0, 60.0),
    "breaker_cooldown": (5.0, 25.0),
    "event_time": (0.0, 500.0),
}


def _check_range(name: str, value: Any, integral: bool = False) -> None:
    low, high = _BOUNDS[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if integral and not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not math.isfinite(value) or not low <= value <= high:
        raise ValueError(f"{name}={value!r} outside safe envelope [{low}, {high}]")


def _check_seed(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**31:
        raise ValueError(f"{name} must be an int in [0, 2^31), got {value!r}")


@dataclass(frozen=True)
class TopologySpec:
    """A deterministic topology recipe (never a pickled topology)."""

    family: str = "abilene"
    seed: int = 1
    n_pops: int = 6
    n_hubs: int = 3

    def __post_init__(self) -> None:
        if self.family not in TOPOLOGY_FAMILIES:
            raise ValueError(
                f"unknown topology family {self.family!r}; "
                f"one of: {', '.join(TOPOLOGY_FAMILIES)}"
            )
        _check_seed("topology seed", self.seed)
        _check_range("n_pops", self.n_pops, integral=True)
        _check_range("n_hubs", self.n_hubs, integral=True)
        if self.n_pops < self.n_hubs:
            raise ValueError("n_pops must be >= n_hubs")

    def build(self) -> Topology:
        if self.family == "abilene":
            return abilene()
        if self.family == "isp_a":
            return isp_a(seed=self.seed)
        return synthetic_isp(
            name=f"fuzz-{self.n_pops}x{self.n_hubs}-{self.seed}",
            n_pops=self.n_pops,
            metros=US_METROS,
            n_hubs=self.n_hubs,
            as_number=64999,
            seed=self.seed,
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "seed": self.seed,
            "n_pops": self.n_pops,
            "n_hubs": self.n_hubs,
        }

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "TopologySpec":
        _require_keys("topology", document, {"family", "seed", "n_pops", "n_hubs"})
        return cls(**document)


@dataclass(frozen=True)
class WorkloadSpec:
    """Swarm/traffic shape for the chaos oracle's simulation runs."""

    n_peers: int = 6
    placement_seed: int = 3
    rng_seed: int = 5
    file_mbit: float = 16.0
    neighbors: int = 6
    join_window: float = 100.0
    tracker_interval: float = 5.0
    until: float = 4000.0

    def __post_init__(self) -> None:
        _check_range("n_peers", self.n_peers, integral=True)
        _check_seed("placement_seed", self.placement_seed)
        _check_seed("rng_seed", self.rng_seed)
        _check_range("file_mbit", self.file_mbit)
        _check_range("neighbors", self.neighbors, integral=True)
        _check_range("join_window", self.join_window)
        _check_range("tracker_interval", self.tracker_interval)
        _check_range("until", self.until)

    def to_json(self) -> Dict[str, Any]:
        return {
            "n_peers": self.n_peers,
            "placement_seed": self.placement_seed,
            "rng_seed": self.rng_seed,
            "file_mbit": self.file_mbit,
            "neighbors": self.neighbors,
            "join_window": self.join_window,
            "tracker_interval": self.tracker_interval,
            "until": self.until,
        }

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "WorkloadSpec":
        _require_keys(
            "workload",
            document,
            {
                "n_peers",
                "placement_seed",
                "rng_seed",
                "file_mbit",
                "neighbors",
                "join_window",
                "tracker_interval",
                "until",
            },
        )
        return cls(**document)


@dataclass(frozen=True)
class DifferentialSpec:
    """An explicit lockstep schedule for the engine differential oracle."""

    capacities: Tuple[float, ...]
    ops: Tuple[Dict[str, Any], ...]
    regime: str = "adaptive"

    def __post_init__(self) -> None:
        validate_schedule(self.capacities, self.ops)
        if self.regime not in ENGINE_REGIMES:
            raise ValueError(
                f"unknown regime {self.regime!r}; "
                f"one of: {', '.join(sorted(ENGINE_REGIMES))}"
            )

    def to_json(self) -> Dict[str, Any]:
        return {
            "capacities": list(self.capacities),
            "ops": [dict(op) for op in self.ops],
            "regime": self.regime,
        }

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "DifferentialSpec":
        _require_keys("differential", document, {"capacities", "ops", "regime"})
        capacities = document["capacities"]
        ops = document["ops"]
        if not isinstance(capacities, list) or not isinstance(ops, list):
            raise ValueError("differential capacities/ops must be lists")
        return cls(
            capacities=tuple(capacities),
            ops=tuple(ops),
            regime=document["regime"],
        )


def _check_mutators(names: Tuple[str, ...]) -> None:
    for name in names:
        if name not in BYZANTINE_MUTATORS:
            raise ValueError(
                f"unknown byzantine mutator {name!r}; "
                f"one of: {', '.join(BYZANTINE_MUTATORS)}"
            )
    if len(names) > 4:
        raise ValueError("at most 4 byzantine mutators per spec")


@dataclass(frozen=True)
class ChaosSpec:
    """Fault schedule + optional byzantine proxy for the chaos oracle."""

    events: ChaosSchedule
    stale_ttl: float = 30.0
    breaker_cooldown: float = 10.0
    byzantine: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.events, ChaosSchedule):
            raise ValueError("events must be a ChaosSchedule")
        for event in self.events:
            low, high = _BOUNDS["event_time"]
            if not low <= event.time <= high:
                raise ValueError(
                    f"event time {event.time!r} outside safe envelope [{low}, {high}]"
                )
        _check_range("stale_ttl", self.stale_ttl)
        _check_range("breaker_cooldown", self.breaker_cooldown)
        _check_mutators(self.byzantine)

    def to_json(self) -> Dict[str, Any]:
        return {
            "events": self.events.to_json(),
            "stale_ttl": self.stale_ttl,
            "breaker_cooldown": self.breaker_cooldown,
            "byzantine": list(self.byzantine),
        }

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "ChaosSpec":
        _require_keys(
            "chaos", document, {"events", "stale_ttl", "breaker_cooldown", "byzantine"}
        )
        byzantine = document["byzantine"]
        if not isinstance(byzantine, list):
            raise ValueError("chaos byzantine must be a list of mutator names")
        return cls(
            events=ChaosSchedule.from_json(document["events"]),
            stale_ttl=document["stale_ttl"],
            breaker_cooldown=document["breaker_cooldown"],
            byzantine=tuple(byzantine),
        )


@dataclass(frozen=True)
class ViewSpec:
    """A byzantine mutator chain for the validate_view oracle."""

    mutators: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_mutators(self.mutators)

    def to_json(self) -> Dict[str, Any]:
        return {"mutators": list(self.mutators)}

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "ViewSpec":
        _require_keys("view", document, {"mutators"})
        mutators = document["mutators"]
        if not isinstance(mutators, list):
            raise ValueError("view mutators must be a list of names")
        return cls(mutators=tuple(mutators))


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete fuzzable scenario; at least one oracle section set."""

    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    differential: Optional[DifferentialSpec] = None
    chaos: Optional[ChaosSpec] = None
    view: Optional[ViewSpec] = None

    def __post_init__(self) -> None:
        if self.differential is None and self.chaos is None and self.view is None:
            raise ValueError("spec needs at least one oracle section")

    @property
    def sections(self) -> Tuple[str, ...]:
        present = []
        for name in ("differential", "chaos", "view"):
            if getattr(self, name) is not None:
                present.append(name)
        return tuple(present)

    def without(self, section: str) -> "ScenarioSpec":
        """A copy with one oracle section removed (minimizer helper)."""
        if section not in ("differential", "chaos", "view"):
            raise ValueError(f"unknown section {section!r}")
        return replace(self, **{section: None})

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": SPEC_FORMAT,
            "topology": self.topology.to_json(),
            "workload": self.workload.to_json(),
            "differential": (
                self.differential.to_json() if self.differential is not None else None
            ),
            "chaos": self.chaos.to_json() if self.chaos is not None else None,
            "view": self.view.to_json() if self.view is not None else None,
        }

    @classmethod
    def from_json(cls, document: Any) -> "ScenarioSpec":
        if not isinstance(document, dict):
            raise ValueError(f"spec must be an object, got {type(document).__name__}")
        if document.get("format") != SPEC_FORMAT:
            raise ValueError(
                f"unsupported spec format {document.get('format')!r}; "
                f"expected {SPEC_FORMAT!r}"
            )
        _require_keys(
            "spec",
            document,
            {"format", "topology", "workload", "differential", "chaos", "view"},
        )
        return cls(
            topology=TopologySpec.from_json(document["topology"]),
            workload=WorkloadSpec.from_json(document["workload"]),
            differential=(
                DifferentialSpec.from_json(document["differential"])
                if document["differential"] is not None
                else None
            ),
            chaos=(
                ChaosSpec.from_json(document["chaos"])
                if document["chaos"] is not None
                else None
            ),
            view=(
                ViewSpec.from_json(document["view"])
                if document["view"] is not None
                else None
            ),
        )

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


def _require_keys(label: str, document: Dict[str, Any], allowed: set) -> None:
    if not isinstance(document, dict):
        raise ValueError(f"{label} must be an object, got {type(document).__name__}")
    unknown = set(document) - allowed
    if unknown:
        raise ValueError(f"{label} has unknown keys {sorted(unknown)}")
    missing = allowed - set(document)
    if missing:
        raise ValueError(f"{label} missing keys {sorted(missing)}")
