"""Discrete-event simulation core.

A minimal, deterministic event engine: timers are (time, sequence) ordered,
so same-time events fire in scheduling order.  Flow completions are *not*
scheduled as timers (their times move whenever rates change); the simulation
driver interleaves them -- see :class:`repro.simulator.tcp.FlowNetwork`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

EventCallback = Callable[[], None]


@dataclass(order=True)
class _Timer:
    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(compare=False, default=False)


class EventEngine:
    """Clock plus a cancelable timer heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[_Timer] = []
        self._sequence = itertools.count()
        #: Callbacks executed so far -- the timer half of an "events/sec"
        #: throughput figure (flow completions are counted by the driver).
        self.fired = 0

    def schedule(self, delay: float, callback: EventCallback) -> _Timer:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        timer = _Timer(self.now + delay, next(self._sequence), callback)
        heapq.heappush(self._heap, timer)
        return timer

    def cancel(self, timer: _Timer) -> None:
        timer.cancelled = True

    def peek_time(self) -> Optional[float]:
        """Time of the next pending timer, skipping cancelled ones."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def pop_due(self, until: float) -> List[_Timer]:
        """Pop (without running) all timers due at or before ``until``."""
        due: List[_Timer] = []
        while self._heap:
            while self._heap and self._heap[0].cancelled:
                heapq.heappop(self._heap)
            if not self._heap or self._heap[0].time > until + 1e-12:
                break
            due.append(heapq.heappop(self._heap))
        return due

    def advance_to(self, time: float) -> None:
        if time < self.now - 1e-9:
            raise ValueError("time cannot move backwards")
        self.now = max(self.now, time)

    def run_timers_until(self, until: float) -> int:
        """Advance the clock, firing every timer due by ``until``.

        Returns the number of callbacks executed.  Callbacks may schedule
        further timers, which fire in the same call when due.
        """
        fired = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > until + 1e-12:
                break
            for timer in self.pop_due(next_time):
                self.advance_to(timer.time)
                timer.callback()
                fired += 1
        self.advance_to(until)
        self.fired += fired
        return fired

    @property
    def pending(self) -> int:
        return sum(1 for timer in self._heap if not timer.cancelled)
