"""Declarative SLOs with rolling burn-rate and error-budget accounting.

An :class:`SLO` names an objective over portal requests -- either
**availability** ("99% of calls succeed") or **latency** ("95% of calls
finish under 100ms" when ``latency_threshold`` is set) -- scoped to one
portal method or to every method with the ``"*"`` wildcard.

:class:`SLOTracker` judges each completed request against every matching
SLO over a count-based rolling window (the last ``window`` requests) and
exposes three registry instruments:

* ``p4p_slo_events_total{slo, outcome}`` -- counter of good/bad events;
* ``p4p_slo_burn_rate{slo}`` -- gauge: the rate at which the error
  budget is being consumed.  ``bad_fraction / (1 - objective)``; 1.0
  means burning exactly at budget, >1 means the objective will be missed
  if the window is representative;
* ``p4p_slo_error_budget_remaining{slo}`` -- gauge:
  ``max(0, 1 - burn_rate)``.

The window is a deque plus a running bad-count, so ``observe`` is O(1)
per matching SLO -- it pushes the window and counts the event, nothing
more -- and the two gauges are derived from the window when they are
read (:meth:`~repro.observability.registry.GaugeChild.set_function`):
the dispatch hot path pays for a burn rate only when someone scrapes it.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.observability.registry import MetricsRegistry


@dataclass(frozen=True)
class SLO:
    """One objective over portal requests.

    ``objective`` is the target good fraction (0.99 = "99% good").
    Without ``latency_threshold`` an event is bad iff the request
    errored; with it, an event is also bad when it succeeded slower than
    the threshold (seconds).
    """

    name: str
    method: str  # portal method, or "*" for all methods
    objective: float
    latency_threshold: Optional[float] = None
    window: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def is_bad(self, duration: float, error: bool) -> bool:
        if error:
            return True
        if self.latency_threshold is not None:
            return duration > self.latency_threshold
        return False


DEFAULT_PORTAL_SLOS: Tuple[SLO, ...] = (
    SLO(name="portal-availability", method="*", objective=0.99),
    SLO(
        name="portal-latency",
        method="*",
        objective=0.95,
        latency_threshold=0.1,
    ),
)


class _Window:
    """Rolling good/bad record with O(1) update."""

    __slots__ = ("events", "bad")

    def __init__(self, size: int) -> None:
        self.events: Deque[bool] = deque(maxlen=size)
        self.bad = 0

    def push(self, is_bad: bool) -> None:
        if len(self.events) == self.events.maxlen and self.events[0]:
            self.bad -= 1
        self.events.append(is_bad)
        if is_bad:
            self.bad += 1

    def bad_fraction(self) -> float:
        if not self.events:
            return 0.0
        return self.bad / len(self.events)


class SLOTracker:
    """Judges request outcomes against a set of SLOs and exports gauges."""

    def __init__(self, registry: MetricsRegistry, slos: Sequence[SLO]) -> None:
        self.slos: Tuple[SLO, ...] = tuple(slos)
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO names")
        events = registry.counter(
            "p4p_slo_events_total",
            "Requests judged against each SLO, by outcome.",
            ("slo", "outcome"),
        )
        burn = registry.gauge(
            "p4p_slo_burn_rate",
            "Error-budget burn rate over the rolling window (1.0 = at budget).",
            ("slo",),
        )
        budget = registry.gauge(
            "p4p_slo_error_budget_remaining",
            "Fraction of the error budget left over the rolling window.",
            ("slo",),
        )
        # Pre-bind every label child once; observe() touches no dicts
        # keyed by label tuples on the hot path.
        self._tracked: List[Tuple[SLO, _Window, Any, Any]] = []
        for slo in self.slos:
            window = _Window(slo.window)
            good = events.labels(slo=slo.name, outcome="good")
            bad = events.labels(slo=slo.name, outcome="bad")
            burn_rate = functools.partial(_burn_rate, slo, window)
            burn.labels(slo=slo.name).set_function(burn_rate)
            budget.labels(slo=slo.name).set_function(
                functools.partial(_budget_remaining, burn_rate)
            )
            self._tracked.append((slo, window, good, bad))

    def observe(self, method: str, duration: float, error: bool) -> None:
        """Record one completed request for every SLO matching ``method``."""
        for slo, window, good, bad in self._tracked:
            if slo.method != "*" and slo.method != method:
                continue
            is_bad = slo.is_bad(duration, error)
            window.push(is_bad)
            (bad if is_bad else good).inc()

    def burn_rates(self) -> Dict[str, float]:
        """Current burn rate per SLO name (for tests and the dashboard)."""
        return {slo.name: _burn_rate(slo, window) for slo, window, *_ in self._tracked}


def _burn_rate(slo: SLO, window: _Window) -> float:
    return window.bad_fraction() / (1.0 - slo.objective)


def _budget_remaining(burn_rate: Callable[[], float]) -> float:
    return max(0.0, 1.0 - burn_rate())
