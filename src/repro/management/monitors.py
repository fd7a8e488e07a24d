"""Control-plane monitors: price stability, update liveness, load audit.

The management plane watches the control plane (Sec. 3).  Three monitors
cover the failure modes the paper's discussion raises:

* :class:`PriceStabilityMonitor` -- P2P adapting to the network can cause
  "potential oscillations in traffic patterns" (Sec. 1); oscillating
  prices are the control-plane symptom.  The monitor tracks the recent
  price trajectory and flags sustained oscillation.
* :class:`UpdateLivenessMonitor` -- iTrackers "are not on the critical
  path" (Sec. 8), but a stale portal silently degrades P4P to static
  guidance; the monitor flags missed update periods.
* :class:`LoadAudit` -- compares the loads the iTracker believes it
  observed against an independent measurement feed, bounding how far the
  control plane's view of the network has drifted.

Degradation telemetry from the portal resilience layer is
:class:`repro.observability.ResilienceCounters`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

LinkKey = Tuple[str, str]


@dataclass
class PriceStabilityMonitor:
    """Detect sustained oscillation in a link's price trajectory.

    A price series oscillates when consecutive differences keep flipping
    sign with non-trivial magnitude.  ``window`` samples are kept; the
    series is flagged when more than ``flip_threshold`` of the steps are
    sign flips whose magnitude exceeds ``magnitude`` (relative to the mean
    price level).
    """

    window: int = 12
    flip_threshold: float = 0.6
    magnitude: float = 0.05

    def __post_init__(self) -> None:
        if self.window < 4:
            raise ValueError("window must be >= 4")
        if not 0 < self.flip_threshold <= 1:
            raise ValueError("flip_threshold must be in (0, 1]")
        self._history: Dict[LinkKey, Deque[float]] = {}

    def record(self, prices: Mapping[LinkKey, float]) -> None:
        for key, value in prices.items():
            series = self._history.setdefault(key, deque(maxlen=self.window))
            series.append(float(value))

    def oscillating_links(self) -> List[LinkKey]:
        """Links whose recent trajectory is flagged as oscillating."""
        flagged = []
        for key, series in self._history.items():
            if self._is_oscillating(list(series)):
                flagged.append(key)
        return flagged

    def _is_oscillating(self, series: List[float]) -> bool:
        if len(series) < 4:
            return False
        level = float(np.mean(series))
        if level <= 0:
            return False
        diffs = np.diff(series)
        significant = np.abs(diffs) > self.magnitude * level
        signs = np.sign(diffs)
        flips = 0
        steps = 0
        for i in range(1, len(diffs)):
            if not (significant[i] and significant[i - 1]):
                continue
            steps += 1
            if signs[i] != signs[i - 1]:
                flips += 1
        if steps < 2:
            return False
        return flips / steps >= self.flip_threshold


@dataclass
class UpdateLivenessMonitor:
    """Flag an iTracker whose dynamic updates have stalled."""

    expected_period: float
    grace_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.expected_period <= 0:
            raise ValueError("expected_period must be positive")
        if self.grace_factor < 1:
            raise ValueError("grace_factor must be >= 1")
        self._last_version: Optional[int] = None
        self._last_change_time: Optional[float] = None

    def observe(self, now: float, version: int) -> None:
        if self._last_version is None or version != self._last_version:
            self._last_version = version
            self._last_change_time = now

    def is_stale(self, now: float) -> bool:
        """True when no version change happened within the grace window."""
        if self._last_change_time is None:
            return False
        return now - self._last_change_time > self.expected_period * self.grace_factor


@dataclass(frozen=True)
class LoadAuditReport:
    """Drift between the control plane's loads and independent measurement."""

    max_absolute_drift: float
    max_relative_drift: float
    worst_link: Optional[LinkKey]

    def within(self, relative_tolerance: float) -> bool:
        return self.max_relative_drift <= relative_tolerance


def audit_loads(
    believed: Mapping[LinkKey, float],
    measured: Mapping[LinkKey, float],
) -> LoadAuditReport:
    """Compare the iTracker's believed loads to a measurement feed.

    Links present in either mapping are compared (absent = 0 Mbps).
    """
    worst: Optional[LinkKey] = None
    max_abs = 0.0
    max_rel = 0.0
    for key in set(believed) | set(measured):
        a = float(believed.get(key, 0.0))
        b = float(measured.get(key, 0.0))
        drift = abs(a - b)
        rel = drift / max(abs(b), 1e-12) if drift > 0 else 0.0
        if drift > max_abs:
            max_abs = drift
            worst = key
        max_rel = max(max_rel, rel if max(a, b) > 1e-9 else 0.0)
    return LoadAuditReport(
        max_absolute_drift=max_abs, max_relative_drift=max_rel, worst_link=worst
    )
