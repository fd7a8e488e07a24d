"""Open-loop portal load generator.

Drives a portal server with a seeded open-loop workload: request
arrivals are a Poisson process that does *not* wait for responses, so a
slow server
accumulates queueing delay instead of silently throttling the offered
load -- the difference between measuring latency and measuring the
generator (the coordinated-omission trap).

The generator is split into three pieces so determinism is testable
without sockets:

* :func:`build_schedule` -- pure function from a :class:`LoadSpec` to the
  complete request schedule (arrival time, connection, method, params,
  churn flags).  Same seed, same schedule, byte for byte.
* :func:`run` / :func:`drive` -- the asyncio driver: one task per
  connection, requests pipelined at their scheduled times, a FIFO reader
  matching responses, per-request latency measured from *scheduled*
  arrival to completion (queueing included, per open-loop convention).
  Connection churn closes and reopens the socket at seeded points.
* :func:`simulate` -- a step-clock executor over the same schedule (each
  connection is a FIFO server with fixed service time), so scheduling +
  summary statistics are regression-testable with no I/O and no clock.

``p4p-repro loadtest`` wraps this against an
:class:`~repro.portal.aserver.AsyncPortalServer`; the measured record is
``BENCHMARK.json``'s ``portal-*`` workloads.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.portal import protocol

#: Default method mix: view reads dominate (the paper's read-mostly
#: portal), with version polls, policy fetches, and ALTO interop reads.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("get_pdistances", 0.60),
    ("get_version", 0.25),
    ("get_policy", 0.10),
    ("get_alto_costmap", 0.05),
)

#: Request outcome classes (what the overload benchmark aggregates by).
OUTCOME_SERVED = "served"
OUTCOME_SHED = "shed"  #: busy frame: admission/brownout shedding
OUTCOME_DEADLINE = "deadline_exceeded"
OUTCOME_ERROR = "error"  #: any other error response
OUTCOME_CONNECT_REFUSED = "connect_refused"
OUTCOME_SEVERED = "severed"  #: connection died before the response


def classify_response(response: Dict[str, Any]) -> str:
    """Which outcome class one response frame belongs to.

    Shed (``busy``) and deadline frames are *not* generic errors: under
    overload they are the server working as designed, and conflating
    them with faults is exactly what hides a collapse (or fakes one).
    """
    if "error" not in response:
        return OUTCOME_SERVED
    if response.get("busy"):
        return OUTCOME_SHED
    if response.get("deadline_exceeded"):
        return OUTCOME_DEADLINE
    return OUTCOME_ERROR


@dataclass(frozen=True)
class LoadSpec:
    """One workload: everything :func:`build_schedule` needs, and nothing
    the transport provides."""

    connections: int = 50
    rate: float = 500.0  #: offered load, requests/second across all connections
    duration: float = 5.0  #: seconds of scheduled arrivals
    seed: int = 0
    method_mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    churn: float = 0.0  #: P(a request is preceded by a reconnect)
    pids_fraction: float = 0.3  #: P(a view read restricts to a PID subset)
    pid_pool: Tuple[str, ...] = ()  #: PIDs to draw restricted subsets from
    pids_max: int = 0  #: max PIDs per restricted subset (0: half the pool)

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if not self.method_mix:
            raise ValueError("method_mix must not be empty")


@dataclass(frozen=True)
class ScheduledRequest:
    at: float  #: scheduled arrival, seconds from workload start
    connection: int
    method: str
    params: Dict[str, Any]
    reconnect: bool = False  #: churn: reopen the connection before sending


def build_schedule(spec: LoadSpec) -> List[ScheduledRequest]:
    """The complete seeded schedule, in arrival order.

    Pure: two calls with equal specs return equal schedules, which is the
    contract that makes A/B server comparisons apples-to-apples and the
    determinism test meaningful.
    """
    import random

    rng = random.Random(spec.seed)
    total = sum(weight for _, weight in spec.method_mix)
    cumulative: List[Tuple[float, str]] = []
    acc = 0.0
    for method, weight in spec.method_mix:
        acc += weight / total
        cumulative.append((acc, method))
    schedule: List[ScheduledRequest] = []
    t = 0.0
    while True:
        t += rng.expovariate(spec.rate)
        if t >= spec.duration:
            break
        pick = rng.random()
        method = next(m for edge, m in cumulative if pick <= edge)
        params: Dict[str, Any] = {}
        if method in ("get_pdistances", "get_alto_costmap") and spec.pid_pool:
            if rng.random() < spec.pids_fraction:
                cap = spec.pids_max or max(1, len(spec.pid_pool) // 2)
                k = rng.randint(1, min(cap, len(spec.pid_pool)))
                params["pids"] = rng.sample(spec.pid_pool, k)
        schedule.append(
            ScheduledRequest(
                at=t,
                connection=rng.randrange(spec.connections),
                method=method,
                params=params,
                reconnect=spec.churn > 0 and rng.random() < spec.churn,
            )
        )
    return schedule


# -- summary ---------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class LoadSummary:
    """What one load-test run measured."""

    requests: int
    errors: int
    elapsed: float  #: wall time from first scheduled arrival to last completion
    qps: float
    p50: float
    p90: float
    p99: float
    reconnects: int = 0
    by_method: Dict[str, int] = field(default_factory=dict)
    #: Per-outcome breakdown: ``{outcome: {count, [p50, p90, p99]}}``
    #: (percentiles only for outcomes that have completions).
    outcomes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Served (non-error, non-shed) completions per second -- the number
    #: an overloaded server is judged by.
    goodput: float = 0.0

    def to_document(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "elapsed_seconds": round(self.elapsed, 6),
            "qps": round(self.qps, 3),
            "goodput_qps": round(self.goodput, 3),
            "latency_seconds": {
                "p50": round(self.p50, 6),
                "p90": round(self.p90, 6),
                "p99": round(self.p99, 6),
            },
            "reconnects": self.reconnects,
            "by_method": dict(sorted(self.by_method.items())),
            "outcomes": {
                outcome: dict(stats)
                for outcome, stats in sorted(self.outcomes.items())
            },
        }


def summarize(
    latencies: Sequence[float],
    elapsed: float,
    errors: int = 0,
    reconnects: int = 0,
    by_method: Optional[Dict[str, int]] = None,
    outcome_counts: Optional[Dict[str, int]] = None,
    outcome_latencies: Optional[Dict[str, Sequence[float]]] = None,
) -> LoadSummary:
    ordered = sorted(latencies)
    elapsed = max(elapsed, 1e-9)
    counts = dict(outcome_counts or {})
    per_outcome = {
        outcome: sorted(values)
        for outcome, values in (outcome_latencies or {}).items()
    }
    if not counts and not per_outcome and ordered:
        # Callers predating outcome classification (and the idealized
        # simulator, which never sheds): every completion served.
        counts = {OUTCOME_SERVED: len(ordered)}
        per_outcome = {OUTCOME_SERVED: ordered}
    outcomes: Dict[str, Dict[str, Any]] = {}
    for outcome in sorted(set(counts) | set(per_outcome)):
        values = per_outcome.get(outcome, [])
        stats: Dict[str, Any] = {"count": counts.get(outcome, len(values))}
        if values:
            stats["p50"] = round(percentile(values, 0.50), 6)
            stats["p90"] = round(percentile(values, 0.90), 6)
            stats["p99"] = round(percentile(values, 0.99), 6)
        outcomes[outcome] = stats
    served = outcomes.get(OUTCOME_SERVED, {}).get("count", 0)
    return LoadSummary(
        requests=len(ordered),
        errors=errors,
        elapsed=elapsed,
        qps=len(ordered) / elapsed,
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p99=percentile(ordered, 0.99),
        reconnects=reconnects,
        by_method=dict(by_method or {}),
        outcomes=outcomes,
        goodput=served / elapsed,
    )


# -- deterministic step-clock executor ------------------------------------


def simulate(spec: LoadSpec, service_time: float = 0.001) -> LoadSummary:
    """Execute the schedule against an idealized server, no I/O, no clock.

    Each connection is a FIFO queue with fixed per-request service time:
    a request starts at ``max(arrival, previous completion on the same
    connection)`` and its open-loop latency is ``completion - arrival``.
    Deterministic to the last bit -- the regression anchor for scheduling
    and summary arithmetic.
    """
    schedule = build_schedule(spec)
    last_done: Dict[int, float] = {}
    latencies: List[float] = []
    by_method: Dict[str, int] = {}
    reconnects = 0
    finish = 0.0
    for request in schedule:
        start = max(request.at, last_done.get(request.connection, 0.0))
        done = start + service_time
        last_done[request.connection] = done
        latencies.append(done - request.at)
        by_method[request.method] = by_method.get(request.method, 0) + 1
        reconnects += request.reconnect
        finish = max(finish, done)
    return summarize(latencies, elapsed=finish, reconnects=reconnects, by_method=by_method)


# -- asyncio driver --------------------------------------------------------


def _segments(
    requests: Sequence[ScheduledRequest],
) -> List[List[ScheduledRequest]]:
    """Split one connection's requests at churn boundaries: each segment
    is served by one socket lifetime."""
    segments: List[List[ScheduledRequest]] = []
    current: List[ScheduledRequest] = []
    for request in requests:
        if request.reconnect and current:
            segments.append(current)
            current = []
        current.append(request)
    if current:
        segments.append(current)
    return segments


class _ConnState:
    """Mutable per-run accumulators shared by the connection tasks."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.errors = 0
        self.reconnects = 0
        self.by_method: Dict[str, int] = {}
        self.outcome_counts: Dict[str, int] = {}
        self.outcome_latencies: Dict[str, List[float]] = {}
        self.last_completion = 0.0

    def record(self, method: str, latency: float, outcome: str, done: float) -> None:
        self.latencies.append(latency)
        self.by_method[method] = self.by_method.get(method, 0) + 1
        self.errors += outcome == OUTCOME_ERROR
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1
        self.outcome_latencies.setdefault(outcome, []).append(latency)
        self.last_completion = max(self.last_completion, done)

    def count_failures(self, outcome: str, n: int) -> None:
        """Requests that never completed (refused connect, severed mid-run):
        counted by outcome, no latency sample to record."""
        if n > 0:
            self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + n


#: Connect retries per socket: a server mid-churn (or a full accept
#: backlog during the initial connect burst) refuses transiently.
CONNECT_ATTEMPTS = 8


async def _connect(address: Tuple[str, int]):
    last: Optional[BaseException] = None
    for attempt in range(CONNECT_ATTEMPTS):
        try:
            return await asyncio.open_connection(*address)
        except (ConnectionError, OSError) as exc:
            last = exc
            await asyncio.sleep(0.1 * (attempt + 1))
    assert last is not None
    raise last


async def _run_segment(
    address: Tuple[str, int],
    segment: Sequence[ScheduledRequest],
    t0: float,
    state: _ConnState,
    clock,
) -> None:
    try:
        reader, writer = await _connect(address)
    except (ConnectionError, OSError):
        # A capped/draining/closed server refuses the connect even after
        # the retries: the whole segment's requests never happened.
        state.count_failures(OUTCOME_CONNECT_REFUSED, len(segment))
        return
    inflight: Deque[ScheduledRequest] = deque()
    completed = 0

    async def read_loop() -> None:
        nonlocal completed
        for _ in range(len(segment)):
            framed = await protocol.aread_frame_ex(reader)
            if framed is None:
                raise ConnectionError("server closed mid-run")
            response, _ = framed
            request = inflight.popleft()
            done = clock() - t0
            state.record(
                request.method, done - request.at, classify_response(response), done
            )
            completed += 1

    async def write_loop() -> None:
        for request in segment:
            delay = t0 + request.at - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            inflight.append(request)
            writer.write(
                protocol.encode_frame(
                    {"method": request.method, "params": request.params}
                )
            )
            await writer.drain()

    writes = asyncio.ensure_future(write_loop())
    reads = asyncio.ensure_future(read_loop())
    try:
        await asyncio.gather(writes, reads)
    except (ConnectionError, OSError):
        # Severed mid-run (request-budget recycle, timeout governance, a
        # drain/close): everything unanswered on this socket is severed.
        for task in (writes, reads):
            task.cancel()
        await asyncio.gather(writes, reads, return_exceptions=True)
        state.count_failures(OUTCOME_SEVERED, len(segment) - completed)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def drive(
    spec: LoadSpec,
    address: Tuple[str, int],
    schedule: Optional[Sequence[ScheduledRequest]] = None,
) -> LoadSummary:
    """Run the workload against a live portal; returns the measurements.

    Open-loop: each request is written at its scheduled time whether or
    not earlier responses have arrived (pipelined on its connection), and
    latency runs from the scheduled arrival to response completion.
    """
    if schedule is None:
        schedule = build_schedule(spec)
    per_connection: Dict[int, List[ScheduledRequest]] = {}
    for request in schedule:
        per_connection.setdefault(request.connection, []).append(request)
    state = _ConnState()
    clock = time.perf_counter
    t0 = clock()

    async def connection_task(requests: List[ScheduledRequest]) -> None:
        segments = _segments(requests)
        state.reconnects += max(0, len(segments) - 1)
        for segment in segments:
            await _run_segment(address, segment, t0, state, clock)

    tasks = [
        asyncio.ensure_future(connection_task(requests))
        for requests in per_connection.values()
    ]
    failures = 0
    for result in await asyncio.gather(*tasks, return_exceptions=True):
        if isinstance(result, BaseException):
            failures += 1
    return summarize(
        state.latencies,
        elapsed=state.last_completion,
        errors=state.errors + failures,
        reconnects=state.reconnects,
        by_method=state.by_method,
        outcome_counts=state.outcome_counts,
        outcome_latencies=state.outcome_latencies,
    )


def run(
    spec: LoadSpec,
    address: Tuple[str, int],
    schedule: Optional[Sequence[ScheduledRequest]] = None,
) -> LoadSummary:
    """Synchronous entry point: :func:`drive` in a private event loop."""
    return asyncio.run(drive(spec, address, schedule=schedule))


def format_summary(name: str, summary: LoadSummary) -> str:
    doc = summary.to_document()
    latency = doc["latency_seconds"]
    shed = doc["outcomes"].get(OUTCOME_SHED, {}).get("count", 0)
    return (
        f"{name:<10} {doc['qps']:10.1f} qps  "
        f"goodput {doc['goodput_qps']:10.1f}  "
        f"p50 {latency['p50'] * 1000.0:8.3f}ms  "
        f"p99 {latency['p99'] * 1000.0:8.3f}ms  "
        f"{doc['requests']} reqs  {doc['errors']} errors  "
        f"{shed} shed  {doc['reconnects']} reconnects"
    )


def dump_json(document: Dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True, indent=2)
