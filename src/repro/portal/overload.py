"""Overload control for the portal serving plane.

The paper's portal must answer ``get_pdistance`` for every joining peer
(Sec. 5), and the roadmap's north star is "heavy traffic from millions
of users" -- an *open-loop* arrival process: peers do not slow down
because the portal is slow, so offered load past capacity turns into
unbounded queueing delay unless the server sheds work explicitly.  This
module is the decision layer the portal server mounts:

* :class:`AdmissionController` -- a bounded inflight budget with
  CoDel-style adaptive shedding.  The controller watches *queueing
  delay* (the event loop's scheduling lag), not queue length: once the
  observed delay stays above ``codel_target`` for ``codel_interval``
  seconds the controller enters a shedding state and drops a
  deterministically increasing fraction of arrivals (1/2, then 3/4,
  7/8, ... -- the CoDel control law's "drop harder while still above
  target" shape) until the delay falls back under target.  Shed
  requests are answered with a structured ``busy`` frame carrying
  ``retry_after`` -- cheap to produce, so shedding *restores* capacity
  instead of consuming it.

* :class:`BrownoutController` -- sustained shedding escalates to
  *brownout*: the serving plane keeps answering view reads from the
  last published snapshot without re-aggregation and disables expensive
  non-view methods, trading freshness for availability; a sustained
  clean interval ends the brownout.

* :class:`OverloadGovernor` -- the facade a server holds: admission +
  brownout + connection governance accounting + graceful drain, with
  the telemetry (``p4p_overload_state``, ``p4p_portal_admission_total``,
  ``p4p_portal_deadline_exceeded_total``,
  ``p4p_portal_connection_rejects_total``) wired once.

Everything runs on an injected clock and is deterministic given the
sequence of (now, delay) observations -- the overload chaos scenario
(:mod:`repro.simulator.overload`) replays the exact state machines on a
step clock against a modelled event loop, bit-for-bit.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Optional

Clock = Callable[[], float]

#: Methods disabled during brownout: expensive non-view reads whose loss
#: degrades operations, not guidance (view reads and version polls keep
#: working; ``get_metrics`` stays up on purpose -- operators need
#: telemetry *most* during an overload event).
DEFAULT_BROWNOUT_METHODS: FrozenSet[str] = frozenset(
    {"get_state_delta", "get_alto_networkmap"}
)


@dataclass(frozen=True)
class OverloadConfig:
    """Everything the overload layer needs to know, in one immutable bag.

    The defaults are deliberately generous: a server constructed without
    an explicit config (``enabled=False``) behaves exactly like the
    pre-overload-control code paths, which is what keeps the conformance
    suite byte-identical at low load.
    """

    enabled: bool = True
    #: Concurrent dispatches allowed before arrivals are shed (on the
    #: server a bookkeeping bound: the loop serializes dispatch anyway).
    inflight_budget: int = 64
    #: CoDel target: tolerable standing queueing delay.
    codel_target: float = 0.05
    #: CoDel interval: delay must stay above target this long before
    #: shedding starts (and shedding escalates once per interval).
    codel_interval: float = 0.1
    #: Cap on the shed-fraction escalation: level n sheds (2^n - 1)/2^n.
    max_shed_level: int = 6
    #: Base retry hint (seconds) carried by busy frames.
    retry_after: float = 0.5
    #: Event-loop lag probe period for the async server.
    probe_interval: float = 0.02
    #: Established-connection cap (None: uncapped).
    max_connections: Optional[int] = None
    #: Sever a connection idle longer than this (None: never).
    idle_timeout: Optional[float] = None
    #: A started frame must arrive in full within this budget
    #: (slow-reader / slowloris defence; None: unbounded).
    frame_timeout: Optional[float] = None
    #: Recycle a connection after this many requests (None: never).
    connection_request_budget: Optional[int] = None
    #: Sustained shedding for this long enters brownout.
    brownout_enter: float = 0.5
    #: Sustained clean running for this long exits brownout.
    brownout_exit: float = 1.0
    #: Methods answered with ``busy`` while brownout is active.
    brownout_methods: FrozenSet[str] = DEFAULT_BROWNOUT_METHODS
    #: Default bound on :meth:`OverloadGovernor.wait_drained`.
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.inflight_budget < 1:
            raise ValueError("inflight_budget must be >= 1")
        if self.codel_target <= 0 or self.codel_interval <= 0:
            raise ValueError("codel target/interval must be positive")
        if self.max_shed_level < 1:
            raise ValueError("max_shed_level must be >= 1")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be positive")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        for name in ("max_connections", "connection_request_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 when set")
        for name in ("idle_timeout", "frame_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.brownout_enter <= 0 or self.brownout_exit <= 0:
            raise ValueError("brownout enter/exit must be positive")
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")


class AdmissionOutcome(str, enum.Enum):
    """What happened to one arrival at the admission gate."""

    ADMITTED = "admitted"
    SHED_QUEUE = "shed_queue"  #: inflight budget spent
    SHED_CODEL = "shed_codel"  #: adaptive shedding (delay above target)
    SHED_DRAIN = "shed_drain"  #: server is draining
    SHED_BROWNOUT = "shed_brownout"  #: method disabled during brownout

    @property
    def shed(self) -> bool:
        return self is not AdmissionOutcome.ADMITTED


class AdmissionController:
    """A bounded inflight budget plus CoDel-style adaptive shedding.

    Thread-safe; every time-dependent decision takes ``now`` explicitly
    (or reads the injected clock), so the same controller runs live
    under threads and replayed on a step clock.
    """

    def __init__(
        self, config: OverloadConfig, clock: Clock = time.monotonic
    ) -> None:
        self.config = config
        self.clock = clock
        self._cv = threading.Condition()
        self._inflight = 0
        self._draining = False
        # CoDel state: when did the observed delay first exceed target
        # (None: currently below), and since when are we shedding.
        self._first_above: Optional[float] = None
        self._shedding_since: Optional[float] = None
        self._shed_arrivals = 0

    # -- introspection ------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    def shedding(self) -> bool:
        return self._shedding_since is not None

    def shed_level(self, now: float) -> int:
        """Current escalation level: sheds ``(2^level - 1) / 2^level``."""
        if self._shedding_since is None:
            return 0
        elapsed = now - self._shedding_since
        level = 1 + int(elapsed / self.config.codel_interval)
        return min(level, self.config.max_shed_level)

    # -- the CoDel delay signal --------------------------------------------

    def observe_delay(self, now: float, delay: float) -> None:
        """Feed one queueing-delay sample (event-loop lag, or a replayed wait)."""
        with self._cv:
            self._observe_locked(now, delay)

    def _observe_locked(self, now: float, delay: float) -> None:
        if not self.config.enabled:
            return
        if delay >= self.config.codel_target:
            if self._first_above is None:
                self._first_above = now
            elif (
                self._shedding_since is None
                and now - self._first_above >= self.config.codel_interval
            ):
                self._shedding_since = now
                self._shed_arrivals = 0
        else:
            self._first_above = None
            self._shedding_since = None

    # -- admission ----------------------------------------------------------

    def try_admit(self, now: Optional[float] = None) -> AdmissionOutcome:
        """Admit or shed one arrival; nothing ever waits for a slot (the
        server: nothing may block the event loop)."""
        if now is None:
            now = self.clock()
        with self._cv:
            return self._try_admit_locked(now)

    def _try_admit_locked(self, now: float) -> AdmissionOutcome:
        if self._draining:
            return AdmissionOutcome.SHED_DRAIN
        if not self.config.enabled:
            self._inflight += 1
            return AdmissionOutcome.ADMITTED
        if self._shedding_since is not None:
            # Progressive shed: admit every 2^level-th arrival, shed the
            # rest.  Deterministic (counter-based) so replays are exact.
            self._shed_arrivals += 1
            period = 1 << self.shed_level(now)
            if self._shed_arrivals % period != 0:
                return AdmissionOutcome.SHED_CODEL
        if self._inflight >= self.config.inflight_budget:
            return AdmissionOutcome.SHED_QUEUE
        # No synthetic zero-delay sample here: the server's congestion
        # lives in the event loop's run queue, not in slot occupancy,
        # and only its lag probe may clear the CoDel state.
        self._inflight += 1
        return AdmissionOutcome.ADMITTED

    def release(self) -> None:
        """One admitted request finished; wake a drain waiter if any."""
        with self._cv:
            self._inflight -= 1
            self._cv.notify_all()

    # -- drain ---------------------------------------------------------------

    def start_drain(self) -> None:
        with self._cv:
            self._draining = True
            self._cv.notify_all()

    def wait_drained(self, timeout: float) -> bool:
        """Block until no admitted work is left or ``timeout`` elapses.

        Uses the *wall* clock for the wait itself (condition variables
        cannot wait on a simulated clock); the simulator checks drain
        bounds on its own event times instead.
        """
        deadline = time.monotonic() + timeout
        with self._cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(timeout=remaining)
            return True


class BrownoutController:
    """NORMAL <-> BROWNOUT, driven by how long shedding persists.

    Shedding sustained for ``brownout_enter`` seconds activates
    brownout; a clean (non-shedding) stretch of ``brownout_exit``
    seconds deactivates it.  ``force()`` pins the state for operator
    intervention and tests.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.active = False
        self.transitions = 0
        self._shed_since: Optional[float] = None
        self._clear_since: Optional[float] = None
        self._forced: Optional[bool] = None

    def force(self, active: Optional[bool]) -> None:
        """Pin brownout on/off (None returns control to the machine)."""
        self._forced = active
        if active is not None:
            self.active = active

    def update(self, now: float, shedding: bool) -> bool:
        if self._forced is not None:
            return self.active
        if shedding:
            self._clear_since = None
            if self._shed_since is None:
                self._shed_since = now
            elif (
                not self.active
                and now - self._shed_since >= self.config.brownout_enter
            ):
                self.active = True
                self.transitions += 1
        else:
            self._shed_since = None
            if self.active:
                if self._clear_since is None:
                    self._clear_since = now
                elif now - self._clear_since >= self.config.brownout_exit:
                    self.active = False
                    self._clear_since = None
                    self.transitions += 1
        return self.active


#: ``p4p_overload_state`` gauge values.
STATE_NORMAL = 0
STATE_SHEDDING = 1
STATE_BROWNOUT = 2
STATE_DRAINING = 3


@dataclass
class _ConnAccounting:
    """Connection-governance counters shared across workers."""

    open_connections: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class OverloadGovernor:
    """The overload facade one server holds: admission + brownout +
    connection governance + drain, with telemetry wired once.

    ``telemetry`` may be a real bundle or the null bundle; instruments
    are registered either way (the null registry no-ops them), so the
    request path never branches on telemetry presence.
    """

    def __init__(
        self,
        config: OverloadConfig,
        telemetry: Optional[Any] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config
        if clock is None:
            clock = telemetry.clock if telemetry is not None else time.monotonic
        self.clock = clock
        self.admission = AdmissionController(config, clock=clock)
        self.brownout = BrownoutController(config)
        self._conns = _ConnAccounting()
        if telemetry is not None:
            registry = telemetry.registry
            self._state_gauge = registry.gauge(
                "p4p_overload_state",
                "Serving-plane overload state: 0 normal, 1 shedding, "
                "2 brownout, 3 draining.",
            ).labels()
            self._admissions = registry.counter(
                "p4p_portal_admission_total",
                "Admission decisions, by outcome.",
                ("outcome",),
            )
            self._deadline_drops = registry.counter(
                "p4p_portal_deadline_exceeded_total",
                "Requests abandoned because their deadline passed before "
                "dispatch.",
            ).labels()
            self._conn_rejects = registry.counter(
                "p4p_portal_connection_rejects_total",
                "Connections severed by governance, by reason kind.",
                ("kind",),
            )
        else:
            self._state_gauge = None
            self._admissions = None
            self._deadline_drops = None
            self._conn_rejects = None

    # -- state --------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def draining(self) -> bool:
        return self.admission.draining

    @property
    def brownout_active(self) -> bool:
        return self.brownout.active

    def force_brownout(self, active: Optional[bool]) -> None:
        self.brownout.force(active)
        self._publish_state()

    def state(self) -> int:
        if self.admission.draining:
            return STATE_DRAINING
        if self.brownout.active:
            return STATE_BROWNOUT
        if self.admission.shedding():
            return STATE_SHEDDING
        return STATE_NORMAL

    def _publish_state(self) -> None:
        if self._state_gauge is not None:
            self._state_gauge.set(float(self.state()))

    def _after_decision(self, now: float, outcome: AdmissionOutcome) -> None:
        self.brownout.update(now, self.admission.shedding())
        if self._admissions is not None:
            self._admissions.labels(outcome=outcome.value).inc()
        self._publish_state()

    # -- admission ----------------------------------------------------------

    def admit(self, now: Optional[float] = None) -> AdmissionOutcome:
        if now is None:
            now = self.clock()
        outcome = self.admission.try_admit(now)
        self._after_decision(now, outcome)
        return outcome

    def release(self) -> None:
        self.admission.release()

    def observe_delay(self, delay: float, now: Optional[float] = None) -> None:
        if now is None:
            now = self.clock()
        self.admission.observe_delay(now, delay)
        self.brownout.update(now, self.admission.shedding())
        self._publish_state()

    def retry_after(self, outcome: AdmissionOutcome) -> float:
        """The ``retry_after`` hint for one shed decision.

        Inflight-budget sheds hint longer than adaptive sheds (the slots
        are *full*, not merely slow); drain sheds hint the drain bound (the
        listener is going away -- reconnect elsewhere after it).
        """
        base = self.config.retry_after
        if outcome is AdmissionOutcome.SHED_QUEUE:
            return base * 2.0
        if outcome is AdmissionOutcome.SHED_DRAIN:
            return max(base, self.config.drain_timeout)
        return base

    def count_deadline_drop(self) -> None:
        if self._deadline_drops is not None:
            self._deadline_drops.inc()

    def count_brownout_reject(self) -> None:
        if self._admissions is not None:
            self._admissions.labels(
                outcome=AdmissionOutcome.SHED_BROWNOUT.value
            ).inc()

    # -- connection governance ----------------------------------------------

    def try_open_connection(self) -> bool:
        """Claim a connection slot; False when the cap is reached."""
        with self._conns.lock:
            cap = self.config.max_connections
            if cap is not None and self._conns.open_connections >= cap:
                return False
            self._conns.open_connections += 1
            return True

    def connection_closed(self) -> None:
        with self._conns.lock:
            self._conns.open_connections -= 1

    @property
    def open_connections(self) -> int:
        return self._conns.open_connections

    def count_connection_reject(self, kind: str) -> None:
        if self._conn_rejects is not None:
            self._conn_rejects.labels(kind=kind).inc()

    # -- drain ---------------------------------------------------------------

    def start_drain(self) -> None:
        self.admission.start_drain()
        self._publish_state()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        if timeout is None:
            timeout = self.config.drain_timeout
        return self.admission.wait_drained(timeout)
