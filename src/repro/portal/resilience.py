"""Portal resilience: retry, circuit breaking, stale views, validation.

The paper's operational premise (Sec. 4, Sec. 5.3) is that iTrackers are
*off the critical path*: appTrackers keep making peer-selection decisions
when a portal is slow, down, or returning garbage, degrade to native
selection, and recover when the portal returns.  This module supplies the
machinery:

* :class:`RetryPolicy` -- exponential backoff with decorrelated jitter,
  per-attempt and overall deadlines;
* :class:`CircuitBreaker` -- CLOSED -> OPEN after N consecutive transport
  failures -> HALF_OPEN probe after a cooldown;
* :func:`validate_view` -- sanity pass over a fetched p-distance view
  (finite, non-negative, full mesh, intra <= inter, bounded churn) so a
  buggy or byzantine iTracker cannot poison selection;
* :class:`ResilientPortalClient` -- wraps :class:`~repro.portal.client.
  PortalClient` with lazy connect/reconnect, retries, validation, and a
  *stale-view fallback*: the last good view is served (flagged, with age)
  while the portal is unreachable, up to a TTL, past which callers get an
  explicit :class:`PortalUnavailable` and selection falls back to native.

Everything is deterministic under an injected clock, sleep, and RNG so
simulations and unit tests reproduce exactly (no wall-clock coupling).
"""

from __future__ import annotations

import enum
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pdistance import PDistanceMap
from repro.observability import NULL_REGISTRY, ResilienceCounters
from repro.portal.protocol import ProtocolError
from repro.portal.client import (
    PortalBusyError,
    PortalClient,
    PortalClientError,
    PortalTransportError,
)

Clock = Callable[[], float]
SleepFn = Callable[[float], None]


class PortalUnavailable(PortalClientError):
    """No fresh view could be fetched and no usable stale view remains."""


class ViewValidationError(PortalClientError):
    """A fetched p-distance view failed the sanity checks."""

    def __init__(self, problems: Sequence[str]) -> None:
        super().__init__("invalid p-distance view: " + "; ".join(problems))
        self.problems: Tuple[str, ...] = tuple(problems)


# -- retry policy ---------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with decorrelated jitter and deadlines.

    ``delays`` yields the sleep before each retry: the first is uniform in
    ``[base_delay, base_delay * multiplier]`` and each subsequent draw is
    uniform in ``[base_delay, previous * multiplier]``, capped at
    ``max_delay`` -- the "decorrelated jitter" scheme, which avoids both
    thundering herds and lock-step doubling.

    ``attempt_timeout`` bounds one RPC (it becomes the socket timeout);
    ``overall_deadline`` bounds the whole retried operation including
    backoff sleeps.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 3.0
    attempt_timeout: float = 5.0
    overall_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")

    def delays(self, rng: random.Random) -> Iterator[float]:
        """Backoff delays for retries 1..max_attempts-1 (deterministic for a
        seeded ``rng``)."""
        previous = self.base_delay
        for _ in range(self.max_attempts - 1):
            delay = min(
                self.max_delay,
                rng.uniform(self.base_delay, max(self.base_delay, previous) * self.multiplier),
            )
            previous = delay
            yield delay


# -- circuit breaker ------------------------------------------------------------


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trip after ``failure_threshold`` consecutive failures; probe after
    ``cooldown`` seconds.

    State machine: CLOSED counts consecutive failures and opens at the
    threshold; OPEN rejects calls until ``cooldown`` has elapsed on the
    injected clock, then HALF_OPEN admits a single probe -- success closes
    the breaker, failure re-opens it (restarting the cooldown).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self.trip_count = 0
        self.probe_count = 0

    @property
    def state(self) -> BreakerState:
        self._maybe_half_open()
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = BreakerState.HALF_OPEN

    def allow(self) -> bool:
        """May a call proceed now?  Entering HALF_OPEN counts as a probe."""
        self._maybe_half_open()
        if self._state is BreakerState.OPEN:
            return False
        if self._state is BreakerState.HALF_OPEN:
            self.probe_count += 1
        return True

    def record_success(self) -> None:
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._maybe_half_open()
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
        elif (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
            self.trip_count += 1


# -- p-distance validation ------------------------------------------------------


@dataclass(frozen=True)
class ValidationPolicy:
    """Which sanity checks :func:`validate_view` applies.

    ``max_churn_factor`` bounds per-version value churn: against the last
    accepted view, any pair whose distance grows or shrinks by more than
    this factor (among pairs both positive) is rejected -- the Sec. 4
    security discussion's defence against a buggy or malicious iTracker
    steering traffic with wild price swings.
    """

    require_finite: bool = True
    require_full_mesh: bool = True
    require_intra_le_inter: bool = True
    max_churn_factor: Optional[float] = 10.0
    expected_pids: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.max_churn_factor is not None and self.max_churn_factor < 1:
            raise ValueError("max_churn_factor must be >= 1")


def validate_view(
    view: PDistanceMap,
    policy: ValidationPolicy = ValidationPolicy(),
    previous: Optional[PDistanceMap] = None,
) -> None:
    """Raise :class:`ViewValidationError` unless ``view`` passes the checks.

    Checks: a non-empty PID set (unconditional), then, each gated by
    ``policy``: all distances finite and non-negative; full mesh over the
    advertised PIDs (no missing rows);
    intra-PID distance no larger than the smallest inter-PID distance from
    the same source (the paper's default cost ordering); PID set equal to
    the expected network map; churn versus ``previous`` bounded by
    ``max_churn_factor``.
    """
    problems: List[str] = []
    if not view.pids:
        # An empty PID set is never a usable view: selection over it can
        # only degrade every session, so pin to the stale cache instead.
        problems.append("empty PID set")
    if policy.expected_pids is not None and set(view.pids) != set(policy.expected_pids):
        missing = set(policy.expected_pids) - set(view.pids)
        extra = set(view.pids) - set(policy.expected_pids)
        problems.append(
            f"PID set mismatch (missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    matrix = view.matrix
    n = len(view.pids)
    given = ~np.isnan(matrix)
    off_diagonal = ~np.eye(n, dtype=bool)
    inter = given & off_diagonal
    if policy.require_finite:
        pair = view.first(given & ~(np.isfinite(matrix) & (matrix >= 0)))
        if pair is not None:
            value = view.distance(*pair)
            problems.append(f"non-finite or negative distance {value!r} for {pair}")
    holes = ~given & off_diagonal
    if policy.require_full_mesh and holes.any():
        src, dst = divmod(int(np.argmax(holes)), n)  # the first in PID order
        problems.append(f"missing distance row ({view.pids[src]}, {view.pids[dst]})")
    if policy.require_intra_le_inter and not problems:
        cheapest = np.where(inter, matrix, np.inf).min(axis=1, initial=np.inf)
        intra = np.where(np.isnan(matrix.diagonal()), 0.0, matrix.diagonal())  # absent: 0
        above = np.flatnonzero(intra > cheapest + 1e-12)
        if len(above):
            problems.append(
                f"intra-PID distance for {view.pids[above[0]]} exceeds its cheapest inter-PID"
            )
    if (
        policy.max_churn_factor is not None
        and previous is not None
        and not problems
    ):
        factor = policy.max_churn_factor
        mine = [i for i, pid in enumerate(view.pids) if pid in previous.index]
        theirs = [previous.index[view.pids[i]] for i in mine]
        old = np.full_like(matrix, np.nan)  # ``previous`` over this view's PIDs
        old[np.ix_(mine, mine)] = previous.matrix[np.ix_(theirs, theirs)]
        compared = given & (old > 0) & (matrix > 0)
        pair = view.first(compared & ((matrix > old * factor) | (matrix < old / factor)))
        if pair is not None:
            was, now = previous.distance(*pair), view.distance(*pair)
            problems.append(f"churn for {pair}: {was:.6g} -> {now:.6g} exceeds x{factor:g}")
    if problems:
        raise ViewValidationError(problems)


# -- the resilient client -------------------------------------------------------


@dataclass(frozen=True)
class ViewSnapshot:
    """A p-distance view plus its provenance, as served to the integrator."""

    view: PDistanceMap
    version: Optional[int]
    fetched_at: float
    stale: bool = False
    age: float = 0.0
    #: Restart generation of the serving iTracker; ``(epoch, version)``
    #: is the fully monotone price-state identity (a crash-restored
    #: portal bumps both; an amnesiac one resets both -- detectable).
    epoch: int = 0
    #: The *server's* advertised staleness when the serving portal is a
    #: standby replica (seconds behind its primary); None from a primary.
    origin_staleness: Optional[float] = None


class ResilientPortalClient:
    """A :class:`PortalClient` that survives portal faults.

    * **Lazy connect / reconnect** -- no socket is opened until the first
      call; a broken socket is discarded and the next attempt reconnects.
    * **Retry** -- transport failures are retried per ``retry`` (backoff
      sleeps go through the injected ``sleep``; deadlines through
      ``clock``).
    * **Circuit breaking** -- consecutive transport failures trip
      ``breaker``; while OPEN no connection is attempted at all.
    * **Validation** -- every fetched full view passes
      :func:`validate_view` before being accepted; rejected views count as
      failures.
    * **Stale fallback** -- the last accepted view is kept with its version
      and fetch time; while the portal is unreachable (or the breaker is
      open) it is served flagged ``stale`` with its age, up to
      ``stale_ttl`` seconds, after which :class:`PortalUnavailable` is
      raised so callers degrade to native selection (Sec. 5.3).

    ``counters`` (a :class:`repro.observability.ResilienceCounters`)
    receives retry/trip/stale/rejection telemetry when provided.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        stale_ttl: float = 120.0,
        validation: Optional[ValidationPolicy] = None,
        clock: Clock = time.monotonic,
        sleep: Optional[SleepFn] = None,
        rng: Optional[random.Random] = None,
        counters: Optional[ResilienceCounters] = None,
        client_factory: Callable[..., PortalClient] = PortalClient,
        tracer: Optional[Any] = None,
        deadline_budget: Optional[float] = None,
    ) -> None:
        if stale_ttl < 0:
            raise ValueError("stale_ttl must be >= 0")
        if deadline_budget is not None and deadline_budget <= 0:
            raise ValueError("deadline_budget must be positive when set")
        self._address = (host, port)
        self.retry = retry or RetryPolicy()
        self._clock = clock
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self.stale_ttl = stale_ttl
        self.validation = validation or ValidationPolicy()
        self._sleep: SleepFn = sleep if sleep is not None else time.sleep
        # Deterministic by default (replayable simulations, DET001): seed
        # from the portal address, so each client's jitter stream is
        # reproducible yet decorrelated across different portals.
        self._rng = rng if rng is not None else random.Random(f"p4p:{host}:{port}")
        self.counters = (
            counters if counters is not None else ResilienceCounters(NULL_REGISTRY)
        )
        #: Optional :class:`repro.observability.Tracer`: resilience
        #: decisions (retries, backoff, breaker rejections, stale serves)
        #: become span events on the active trace, and the underlying
        #: :class:`PortalClient` inherits it so each RPC is a child span.
        self.tracer = tracer
        #: When set, every request frame carries this ``deadline`` budget
        #: (seconds) so an overloaded server abandons work this client
        #: has already given up on.
        self.deadline_budget = deadline_budget
        self._client_factory = client_factory
        self._client: Optional[PortalClient] = None
        self._last_good: Optional[ViewSnapshot] = None

    # -- connection management ---------------------------------------------

    def _ensure_client(self) -> PortalClient:
        if self._client is None:
            try:
                self._client = self._client_factory(
                    *self._address, timeout=self.retry.attempt_timeout
                )
                self.counters.reconnects += 1
            except OSError as exc:
                raise PortalTransportError(f"connect failed: {exc}") from exc
            if self.tracer is not None:
                self._client.tracer = self.tracer
            if self.deadline_budget is not None:
                self._client.deadline = self.deadline_budget
        return self._client

    def _discard_client(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def close(self) -> None:
        self._discard_client()

    def __enter__(self) -> "ResilientPortalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def breaker_state(self) -> str:
        return self.breaker.state.value

    @property
    def last_good(self) -> Optional[ViewSnapshot]:
        return self._last_good

    # -- tracing helpers ----------------------------------------------------

    def _event(self, name: str, **attributes: Any) -> None:
        """Record a resilience decision on the active span, if tracing."""
        if self.tracer is not None:
            self.tracer.event(name, **attributes)


    # -- retried invocation -------------------------------------------------

    def _invoke(self, operation: Callable[[PortalClient], Any]) -> Any:
        """Run ``operation`` with lazy connect, retry, and breaker checks.

        Only transport failures are retried; a server error *response* is
        deterministic and propagates immediately (without counting against
        the breaker).
        """
        if not self.breaker.allow():
            self._event("breaker-open")
            raise PortalTransportError("circuit breaker is open")
        deadline = (
            self._clock() + self.retry.overall_deadline
            if self.retry.overall_deadline is not None
            else None
        )
        delays = self.retry.delays(self._rng)
        attempt = 0
        while True:
            attempt += 1
            try:
                result = operation(self._ensure_client())
            except PortalBusyError as exc:
                # Overload shedding is the server *working as designed*,
                # not a fault: the connection stays up, the breaker sees
                # neither success nor failure (so shedding can never
                # cascade into breaker-open -> stale-serve flapping), and
                # the backoff honors the server's hint -- jittered, so a
                # synchronized busy wave doesn't return in lock-step.
                delay = next(delays, None)
                if delay is None:
                    raise
                pause = exc.retry_after if exc.retry_after is not None else delay
                pause *= self._rng.uniform(0.5, 1.5)
                if deadline is not None and self._clock() + pause > deadline:
                    raise
                self.counters.busy_backoffs += 1
                self._event("busy-backoff", attempt=attempt, delay=pause)
                self._sleep(pause)
                continue
            except PortalTransportError as exc:
                self._discard_client()
                self.breaker.record_failure()
                delay = next(delays, None)
                if delay is None or not self.breaker.allow():
                    raise
                if deadline is not None and self._clock() + delay > deadline:
                    raise PortalTransportError(
                        f"overall deadline exceeded: {exc}"
                    ) from exc
                self.counters.retries += 1
                self._event("retry", attempt=attempt, error=type(exc).__name__)
                self._event("backoff", delay=delay)
                self._sleep(delay)
                continue
            self.breaker.record_success()
            return result

    # -- pass-through interface methods -------------------------------------

    def get_version(self) -> int:
        return self._invoke(lambda client: client.get_version())

    def get_policy(self):
        return self._invoke(lambda client: client.get_policy())

    def get_capabilities(self, requester: str, **filters: Any):
        return self._invoke(
            lambda client: client.get_capabilities(requester, **filters)
        )

    def lookup_pid(self, ip: str) -> Tuple[str, int]:
        return self._invoke(lambda client: client.lookup_pid(ip))

    # -- the resilient view fetch -------------------------------------------

    def get_view(self, pids: Optional[Sequence[str]] = None) -> ViewSnapshot:
        """The freshest usable view, possibly stale (then flagged with age).

        Fetches the *full* view (partial fetches bypass the portal's version
        cache and would starve the stale fallback -- see
        :meth:`PortalClient.get_pdistances`), validates it, and restricts it
        locally when ``pids`` is given.  Raises :class:`PortalUnavailable`
        when no fresh view can be fetched and the stale one is absent or
        past :attr:`stale_ttl`.
        """
        # Span names stay literal at the tracer call site (TEL001 audits
        # the span catalog statically, like metric names).
        span_cm = (
            nullcontext()
            if self.tracer is None
            else self.tracer.trace("resilient.get_view")
        )
        with span_cm:
            try:
                snapshot = self.fetch_fresh()
            except PortalClientError as exc:
                snapshot = self._stale_or_raise(exc)
            if pids is not None:
                snapshot = replace(
                    snapshot, view=snapshot.view.restricted_to(list(pids))
                )
            return snapshot

    def get_pdistances(self, pids: Optional[Sequence[str]] = None) -> PDistanceMap:
        """Drop-in :meth:`PortalClient.get_pdistances`, resilience included."""
        return self.get_view(pids=pids).view

    def fetch_fresh(self) -> ViewSnapshot:
        """Fetch + validate a fresh full view, no stale fallback.

        This is the building block multi-endpoint failover composes: a
        :class:`~repro.portal.replication.FailoverPortalClient` tries
        ``fetch_fresh`` on every replica before settling for anyone's
        stale view.  Raises :class:`PortalClientError` on any failure.
        """

        def fetch(client: PortalClient) -> Tuple[PDistanceMap, int, int, Optional[float]]:
            # Prefer the full version document (epoch + replica staleness);
            # fall back to the bare version for minimal client stand-ins.
            info_fn = getattr(client, "get_version_info", None)
            if info_fn is not None:
                info = info_fn()
                version = int(info["version"])
                epoch = int(info.get("epoch", 0))
                staleness = info.get("staleness")
            else:
                version, epoch, staleness = client.get_version(), 0, None
            try:
                view = client.get_pdistances()
            except (ValueError, ProtocolError) as exc:
                # e.g. negative distances rejected by PDistanceMap itself,
                # or a document that lists a PID twice: classify as a
                # validation failure, not a crash.
                raise ViewValidationError([str(exc)]) from exc
            return view, version, epoch, staleness

        span_cm = (
            nullcontext()
            if self.tracer is None
            else self.tracer.trace("resilient.fetch")
        )
        try:
            with span_cm:
                view, version, epoch, staleness = self._invoke(fetch)
                previous = self._last_good.view if self._last_good else None
                validate_view(view, self.validation, previous=previous)
        except ViewValidationError:
            self.counters.validation_rejections += 1
            self.breaker.record_failure()
            self._event("validation-rejected")
            raise
        now = self._clock()
        snapshot = ViewSnapshot(
            view=view,
            version=version,
            fetched_at=now,
            epoch=epoch,
            origin_staleness=staleness,
        )
        self._last_good = snapshot
        self.counters.breaker_trips = self.breaker.trip_count
        self.counters.breaker_probes = self.breaker.probe_count
        return snapshot

    def stale_snapshot(self) -> Optional[ViewSnapshot]:
        """The last accepted view flagged stale with its age, if within
        :attr:`stale_ttl`; ``None`` when absent or expired.  Serving it
        counts as a stale serve."""
        if self._last_good is None:
            return None
        age = self._clock() - self._last_good.fetched_at
        if age > self.stale_ttl:
            return None
        self.counters.stale_serves += 1
        self._event("stale-serve", age=age)
        return replace(self._last_good, stale=True, age=age)

    def _stale_or_raise(self, cause: PortalClientError) -> ViewSnapshot:
        self.counters.breaker_trips = self.breaker.trip_count
        self.counters.breaker_probes = self.breaker.probe_count
        snapshot = self.stale_snapshot()
        if snapshot is not None:
            return snapshot
        self.counters.unavailable += 1
        raise PortalUnavailable(
            f"portal {self._address[0]}:{self._address[1]} unavailable and "
            f"stale view {'expired' if self._last_good else 'absent'}: {cause}"
        ) from cause
