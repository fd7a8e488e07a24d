"""Deterministic overload chaos scenario for the portal serving plane.

A flash crowd is an *open-loop* arrival process: peers joining a swarm do
not slow down because the portal is slow (PAPER.md Sec. 5's
``get_pdistance``-per-join traffic), so offered load past capacity turns
into unbounded queueing delay unless the server sheds explicitly.  This
module replays exactly the admission/brownout/drain state machines the
server mounts (:mod:`repro.portal.overload` on an injected step clock --
the same objects, not a model of them) against a model of where the
server is congested: its event loop.  Every request waits its turn in
one FIFO; the governor decides it when the loop reaches it, an admitted
request then holds the loop for ``1 / capacity_qps`` seconds and a shed
costs nothing (the busy frame is cheap).  A lag probe waits in the same
FIFO and feeds its own wait to the CoDel signal, as the server's
per-worker probe does.  An *unprotected* twin -- M/D/1, every request
eventually served -- sees the identical arrivals.  Invariants:

* **bounded admitted p99** -- the p99 latency of *served* requests stays
  within :func:`p99_bound`, which depends on the spec and the control
  law's constants but not on the horizon;
* **goodput floor** -- served throughput before the drain stays at or
  above ``goodput_floor`` of capacity: shedding pays for itself;
* **breaker non-flapping** -- a client classifying ``busy`` frames as
  non-failures never trips its circuit breaker, no matter the shed rate;
* **unprotected collapse** -- the twin's p99 is well past the protected
  one (the load really is past capacity);
* **monotone drain** -- once :meth:`~repro.portal.overload.
  OverloadGovernor.start_drain` fires, the backlog never grows and
  reaches zero within ``drain_timeout``.

Determinism is the point: everything runs on simulation time (the event
heap *is* the clock), every random draw comes from one seeded RNG, and
:func:`run_overload` hashes its canonical result document -- two runs
with one seed must produce identical digests bit for bit (the CI smoke
job diffs a double run).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.portal.overload import (
    AdmissionOutcome,
    OverloadConfig,
    OverloadGovernor,
)
from repro.portal.resilience import CircuitBreaker
from repro.workloads.loadgen import percentile

#: Event-kind ordering at equal timestamps: a completion frees the loop
#: before the drain flips state before new work joins the FIFO -- fixed
#: so ties on the heap cannot reorder between runs.
_COMPLETION, _DRAIN, _ENQUEUE = 0, 1, 2
#: What waits in the loop's FIFO.
_REQUEST, _PROBE = 0, 1


def default_overload_config() -> OverloadConfig:
    """The scenario's protected-server configuration: a control law
    quick enough that 2x capacity visibly sheds within a few simulated
    seconds, and brownout/drain bounds tight enough that they bite."""
    return OverloadConfig(
        enabled=True,
        codel_target=0.03,
        codel_interval=0.1,
        retry_after=0.25,
        brownout_enter=0.4,
        brownout_exit=0.8,
        drain_timeout=2.0,
    )


@dataclass(frozen=True)
class OverloadScenarioSpec:
    """One seeded overload scenario: everything the replay needs."""

    seed: int = 0
    #: The event loop's service rate (requests/second): every admitted
    #: request holds the loop for ``1 / capacity_qps`` seconds.
    capacity_qps: float = 200.0
    #: Offered load as a multiple of capacity (the 2x of the acceptance
    #: criteria).
    multiple: float = 2.0
    #: Seconds of scheduled arrivals.
    duration: float = 8.0
    #: Simulation time at which the graceful drain starts (None: never).
    drain_at: Optional[float] = 6.0
    #: Served-throughput floor, as a fraction of capacity.
    goodput_floor: float = 0.7
    config: OverloadConfig = field(default_factory=default_overload_config)

    def __post_init__(self) -> None:
        if self.capacity_qps <= 0:
            raise ValueError("capacity_qps must be positive")
        if self.multiple <= 0:
            raise ValueError("multiple must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 < self.goodput_floor <= 1:
            raise ValueError("goodput_floor must be in (0, 1]")
        if self.drain_at is not None and not 0 < self.drain_at < self.duration:
            raise ValueError("drain_at must fall inside the duration")

    @property
    def service_time(self) -> float:
        """Loop time one admitted request holds."""
        return 1.0 / self.capacity_qps


def p99_bound(spec: OverloadScenarioSpec) -> float:
    """The served-p99 bound the control law must hold at ``spec``.

    A served request waits behind at most the work that arrived since
    the loop last ran below ``codel_target``: ``multiple`` seconds of
    loop time per second.  That stretch ends within ``level + 2`` CoDel
    intervals, where ``level`` is the first shed level whose admitted
    share ``multiple / 2**level`` is under capacity -- one interval to
    confirm the delay, ``level - 1`` to escalate, two for the probe
    seeing onset and relief behind the backlog it measures.  The bound
    does not grow with the horizon; an unprotected loop's delay does.

    Over seeds 0-9 the default control law stays at or under 0.85 of
    this bound from 1.1x to 10x capacity.  At 12x it fails: one probe
    under target clears shedding entirely, and the admitted share then
    exceeds capacity.
    """
    level = math.floor(math.log2(max(spec.multiple, 1.0))) + 1
    return spec.multiple * spec.config.codel_interval * (level + 2)


@dataclass(frozen=True)
class Violation:
    invariant: str
    detail: str


@dataclass(frozen=True)
class OverloadReport:
    """What one scenario replay measured, plus its invariant verdicts."""

    document: Dict[str, Any]
    violations: Tuple[Violation, ...]
    digest: str


def _poisson_arrivals(rng: random.Random, rate: float, horizon: float) -> List[float]:
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            return arrivals
        arrivals.append(t)


def _unprotected_latencies(arrivals: List[float], service_time: float) -> List[float]:
    """FIFO M/D/1 with an unbounded queue: what the same arrival process
    does to a loop with no admission control (every request eventually
    served, queueing delay growing with the horizon)."""
    free = 0.0
    latencies: List[float] = []
    for at in arrivals:
        free = max(at, free) + service_time
        latencies.append(free - at)
    return latencies


def run_overload(spec: OverloadScenarioSpec) -> OverloadReport:
    """Replay one seeded overload scenario; see the module docstring."""
    rng = random.Random(spec.seed)
    arrivals = _poisson_arrivals(
        rng, spec.capacity_qps * spec.multiple, spec.duration
    )
    service = spec.service_time
    config = spec.config

    now = [0.0]
    governor = OverloadGovernor(config, telemetry=None, clock=lambda: now[0])
    # The client's view of the shed storm: busy frames feed the breaker
    # *neither* success nor failure (the resilience-layer contract), so
    # trip_count staying zero is the non-flapping invariant.
    breaker = CircuitBreaker(failure_threshold=5, clock=lambda: now[0])

    # Arrivals are already in time order, so the list is a valid heap.
    events: List[Tuple[float, int, int, Any]] = [
        (at, _ENQUEUE, seq, _REQUEST) for seq, at in enumerate(arrivals)
    ]
    seq = len(events)

    def push(at: float, kind: int, item: Any) -> None:
        nonlocal seq
        heapq.heappush(events, (at, kind, seq, item))
        seq += 1

    if spec.drain_at is not None:
        push(spec.drain_at, _DRAIN, None)
    # The probe task starts with the loop: its first timer fires one
    # probe interval in.
    push(config.probe_interval, _ENQUEUE, _PROBE)

    fifo: Deque[Tuple[int, float]] = deque()
    busy = False
    # Requests neither shed nor served yet; the probe re-arms only
    # while some remain, so the event heap runs dry.
    pending = len(arrivals)
    outcome_counts: Dict[str, int] = {}
    served_latencies: List[float] = []
    served_completions: List[float] = []
    state_peaks = {governor.state()}
    drain_started: Optional[float] = None
    drain_completed: Optional[float] = None
    drain_backlog_grew = False
    backlog_at_drain = 0

    def run_loop() -> None:
        """Work through the FIFO until an admitted request holds the loop."""
        nonlocal busy, pending
        while not busy and fifo:
            item, enqueued = fifo.popleft()
            if item == _PROBE:
                governor.observe_delay(now[0] - enqueued, now=now[0])
                if pending:
                    push(now[0] + config.probe_interval, _ENQUEUE, _PROBE)
                continue
            outcome = governor.admit(now[0])
            outcome_counts[outcome.value] = outcome_counts.get(outcome.value, 0) + 1
            if outcome is AdmissionOutcome.ADMITTED:
                busy = True
                push(now[0] + service, _COMPLETION, enqueued)
            else:
                # A busy frame: the well-behaved client backs off without
                # recording a breaker failure.
                pending -= 1

    while events:
        at, kind, _, item = heapq.heappop(events)
        now[0] = at
        if kind == _ENQUEUE:
            fifo.append((item, at))
        elif kind == _COMPLETION:
            governor.release()
            busy = False
            pending -= 1
            served_latencies.append(at - item)
            served_completions.append(at)
            breaker.record_success()
        else:  # _DRAIN
            governor.start_drain()
            drain_started = at
            backlog_at_drain = governor.admission.inflight
        run_loop()
        state_peaks.add(governor.state())
        if drain_started is not None:
            backlog = governor.admission.inflight
            if backlog > backlog_at_drain:
                drain_backlog_grew = True
            backlog_at_drain = min(backlog_at_drain, backlog)
            if backlog == 0 and drain_completed is None:
                drain_completed = at

    unprotected = _unprotected_latencies(arrivals, service)
    goodput_window = drain_started if drain_started is not None else spec.duration
    served_in_window = sum(1 for done in served_completions if done <= goodput_window)
    goodput = served_in_window / goodput_window
    admitted_p99 = percentile(sorted(served_latencies), 0.99)
    unprotected_p99 = percentile(sorted(unprotected), 0.99)
    latency_bound = p99_bound(spec)

    violations: List[Violation] = []

    def check(invariant: str, ok: bool, detail: str) -> None:
        if not ok:
            violations.append(Violation(invariant=invariant, detail=detail))

    check(
        "bounded-admitted-p99",
        admitted_p99 <= latency_bound,
        f"admitted p99 {admitted_p99:.6f}s exceeds bound {latency_bound:.6f}s",
    )
    check(
        "goodput-floor",
        goodput >= spec.goodput_floor * spec.capacity_qps,
        f"goodput {goodput:.1f} qps below "
        f"{spec.goodput_floor:.0%} of capacity {spec.capacity_qps} qps",
    )
    check(
        "breaker-non-flapping",
        breaker.trip_count == 0,
        f"busy storm tripped the breaker {breaker.trip_count} time(s)",
    )
    check(
        "unprotected-collapse",
        unprotected_p99 > 2.0 * max(admitted_p99, service),
        f"unprotected p99 {unprotected_p99:.6f}s did not collapse vs "
        f"protected {admitted_p99:.6f}s -- the load is not past capacity",
    )
    if drain_started is not None:
        check(
            "monotone-drain",
            not drain_backlog_grew,
            "backlog grew after drain started",
        )
        check(
            "drain-completes",
            drain_completed is not None
            and drain_completed - drain_started <= config.drain_timeout + 1e-9,
            f"drain started at {drain_started:.3f}s did not empty the "
            f"backlog within {config.drain_timeout}s "
            f"(completed: {drain_completed})",
        )

    document: Dict[str, Any] = {
        "spec": {
            "seed": spec.seed,
            "capacity_qps": spec.capacity_qps,
            "multiple": spec.multiple,
            "duration": spec.duration,
            "drain_at": spec.drain_at,
            "goodput_floor": spec.goodput_floor,
            "codel_target": config.codel_target,
            "codel_interval": config.codel_interval,
            "probe_interval": config.probe_interval,
            "service_time": round(service, 9),
            "p99_bound": round(latency_bound, 9),
        },
        "arrivals": len(arrivals),
        "protected": {
            "outcomes": dict(sorted(outcome_counts.items())),
            "served": len(served_latencies),
            "goodput_qps": round(goodput, 6),
            "latency_p50": round(
                percentile(sorted(served_latencies), 0.50), 9
            ),
            "latency_p99": round(admitted_p99, 9),
            "breaker_trips": breaker.trip_count,
            "states_seen": sorted(state_peaks),
            "drain": (
                None
                if drain_started is None
                else {
                    "started": round(drain_started, 9),
                    "completed": (
                        None
                        if drain_completed is None
                        else round(drain_completed, 9)
                    ),
                }
            ),
        },
        "unprotected": {
            "served": len(unprotected),
            "latency_p50": round(percentile(sorted(unprotected), 0.50), 9),
            "latency_p99": round(unprotected_p99, 9),
        },
        "violations": [
            {"invariant": v.invariant, "detail": v.detail} for v in violations
        ],
    }
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    document["digest"] = digest
    return OverloadReport(
        document=document, violations=tuple(violations), digest=digest
    )


def format_overload(report: OverloadReport) -> str:
    """Human-readable render of one :class:`OverloadReport`."""
    doc = report.document
    protected = doc["protected"]
    unprotected = doc["unprotected"]
    lines = [
        f"overload scenario seed={doc['spec']['seed']} "
        f"({doc['spec']['multiple']:g}x capacity, {doc['arrivals']} arrivals)",
        f"  protected:   served {protected['served']:>6}  "
        f"goodput {protected['goodput_qps']:8.1f} qps  "
        f"p99 {protected['latency_p99'] * 1000.0:8.3f}ms "
        f"(bound {doc['spec']['p99_bound'] * 1000.0:.0f}ms)  "
        f"breaker trips {protected['breaker_trips']}",
        f"  unprotected: served {unprotected['served']:>6}  "
        f"p99 {unprotected['latency_p99'] * 1000.0:8.3f}ms",
        f"  outcomes: {protected['outcomes']}",
    ]
    if protected["drain"] is not None:
        drain = protected["drain"]
        completed = drain["completed"]
        lines.append(
            f"  drain: started {drain['started']:.3f}s, "
            + (
                "never completed"
                if completed is None
                else f"completed {completed:.3f}s"
            )
        )
    if report.violations:
        lines.append("  VIOLATIONS:")
        lines.extend(
            f"    {v.invariant}: {v.detail}" for v in report.violations
        )
    else:
        lines.append("  all overload invariants hold")
    lines.append(f"  digest {report.digest}")
    return "\n".join(lines)
