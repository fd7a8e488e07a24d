"""Metrics instruments and the registry that owns them.

A dependency-free subset of the Prometheus data model, sized for this
repository: labeled :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` instruments live in a :class:`MetricsRegistry`.  All
updates are thread-safe (the portal server's worker loops hammer one
registry from many connection handlers) and every time-dependent operation goes
through the registry's injectable clock, so the same instruments work on
wall time in a live portal and on simulation time inside the
discrete-event simulator.

Naming convention (enforced socially, documented in DESIGN.md):
``p4p_<layer>_<name>`` with layers ``portal``, ``client``, ``integrator``,
``core``, ``resilience``, ``sim``.  Label values must be drawn from small
closed sets (method names, AS numbers, swarm ids) -- never client IPs,
PIDs of arbitrary size, or error strings.

The ``Null*`` twins implement the same surface as no-ops so hot paths can
be written unconditionally against an instrument and disabled by wiring
in :data:`NULL_REGISTRY` (the perf benchmark measures exactly this
difference).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Clock = Callable[[], float]

#: Default latency buckets (seconds): sub-millisecond RPCs up to slow scrapes.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class MetricError(ValueError):
    """Invalid instrument registration or label usage."""


def _validate_name(name: str) -> None:
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise MetricError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise MetricError(f"metric name cannot start with a digit: {name!r}")


class _Child:
    """One labeled time-series of an instrument."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class CounterChild(_Child):
    """A monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        # Scrape path only; taking the lock keeps the read consistent
        # with concurrent inc() without measurable hot-path cost.
        with self._lock:
            return self._value


class GaugeChild(_Child):
    """A value that can go up and down (set/inc/dec), or one derived
    from other state each time it is read (:meth:`set_function`)."""

    __slots__ = ("_value", "_read")

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0
        self._read: Optional[Callable[[], float]] = None

    def set_function(self, read: Callable[[], float]) -> None:
        """Derive the value on read: from now on ``value`` is ``read()``,
        so a gauge over state its owner already keeps costs nothing until
        it is scraped."""
        self._read = read

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        read = self._read
        if read is not None:
            return float(read())
        with self._lock:
            return self._value


class HistogramChild(_Child):
    """Fixed-boundary cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]) -> None:
        super().__init__(lock)
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bucket with ``value <= bound``; NaN compares false
        # against every bound and lands in +Inf.
        buckets = self.buckets
        index = bisect_left(buckets, value) if value == value else len(buckets)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs ending with +Inf."""
        with self._lock:
            raw = list(self._counts)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        bounds = list(self.buckets) + [float("inf")]
        for bound, n in zip(bounds, raw):
            running += n
            cumulative.append((bound, running))
        return cumulative

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (0..1) by linear interpolation
        within the winning bucket -- the standard Prometheus
        ``histogram_quantile`` estimate."""
        if not 0 <= q <= 1:
            raise MetricError("percentile q must be in [0, 1]")
        pairs = self.bucket_counts()
        total = pairs[-1][1] if pairs else 0
        if total == 0:
            return 0.0
        rank = q * total
        if rank <= 0:
            return 0.0
        previous_bound = 0.0
        previous_count = 0
        for bound, cumulative in pairs:
            if cumulative >= rank:
                if bound == float("inf"):
                    return previous_bound
                if cumulative == previous_count:
                    return bound
                fraction = (rank - previous_count) / (cumulative - previous_count)
                return previous_bound + (bound - previous_bound) * fraction
            previous_bound = bound
            previous_count = cumulative
        return previous_bound


class _Instrument:
    """Shared label-handling machinery for one named metric family."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def _make_child(self) -> _Child:
        raise NotImplementedError

    def labels(self, **labels: object):
        """The child time-series for one label-value combination (cached)."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise MetricError(f"{self.name} is labeled; call .labels() first")
        return self.labels()

    def series(self) -> Iterator[Tuple[Tuple[str, ...], _Child]]:
        """Children in deterministic (sorted label values) order."""
        with self._lock:
            items = list(self._children.items())
        return iter(sorted(items, key=lambda item: item[0]))


class Counter(_Instrument):
    kind = "counter"

    def _make_child(self) -> CounterChild:
        return CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(_Instrument):
    kind = "gauge"

    def _make_child(self) -> GaugeChild:
        return GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError("buckets must be non-empty and strictly increasing")
        super().__init__(name, help, labelnames, lock)
        self.buckets = bounds

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class MetricsRegistry:
    """Owns every instrument of one process/component.

    ``clock`` is used for uptime and by :meth:`timer`; inject the
    simulation clock (``lambda: engine.now``) to make histograms measure
    simulated seconds.  Re-registering an existing name returns the same
    instrument when the declaration matches, and raises otherwise --
    callers across modules can therefore share instruments by name.
    """

    def __init__(self, clock: Clock = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        self._created_at = clock()

    @property
    def clock(self) -> Clock:
        return self._clock

    def uptime(self) -> float:
        return max(0.0, self._clock() - self._created_at)

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise MetricError(
                        f"{name} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, threading.Lock(), **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        """All instruments in deterministic (sorted by name) order."""
        with self._lock:
            items = list(self._instruments.values())
        return sorted(items, key=lambda instrument: instrument.name)

    def timer(self, histogram_child: HistogramChild) -> "_Timer":
        """Context manager observing the elapsed clock time into a child."""
        return _Timer(self._clock, histogram_child)


class _Timer:
    __slots__ = ("_clock", "_child", "_start")

    def __init__(self, clock: Clock, child: HistogramChild) -> None:
        self._clock = clock
        self._child = child

    def __enter__(self) -> "_Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._child.observe(self._clock() - self._start)


# -- no-op twins ----------------------------------------------------------------


class _NullChild:
    """Implements every child method as a no-op; reports zeros."""

    value = 0.0
    sum = 0.0
    count = 0
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, read: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def bucket_counts(self) -> List[Tuple[float, int]]:
        return []

    def percentile(self, q: float) -> float:
        return 0.0

    def labels(self, **labels: object) -> "_NullChild":
        return self

    def __enter__(self) -> "_NullChild":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_CHILD = _NullChild()


class NullRegistry:
    """A :class:`MetricsRegistry` stand-in whose instruments do nothing.

    Used to disable telemetry on a hot path without branching at every
    call site; the perf benchmark compares a real registry against this.
    """

    clock = staticmethod(time.monotonic)

    def uptime(self) -> float:
        return 0.0

    def counter(self, name: str, help: str = "", labelnames=()) -> _NullChild:
        return _NULL_CHILD

    def gauge(self, name: str, help: str = "", labelnames=()) -> _NullChild:
        return _NULL_CHILD

    def histogram(self, name: str, help: str = "", labelnames=(), buckets=()) -> _NullChild:
        return _NULL_CHILD

    def get(self, name: str) -> None:
        return None

    def instruments(self) -> List[_Instrument]:
        return []

    def timer(self, histogram_child) -> _NullChild:
        return _NULL_CHILD


NULL_REGISTRY = NullRegistry()
