"""Lightweight tracing: spans collected into a bounded in-memory buffer.

A :class:`Span` records one timed operation (a price update, a portal
request) with free-form attributes and an optional parent, forming traces
that are cheap enough to keep on inside the simulator.  The
:class:`TraceBuffer` is a bounded ring: old spans fall off the back, so a
long-running portal never grows without bound.

Durations come from the buffer's injectable clock -- wall time in a live
portal, simulation time when wired to the event engine -- which is what
makes per-iteration convergence traces meaningful in both settings.

On top of the flat buffer sits the *distributed* half:

* :class:`TraceContext` -- the (trace_id, parent span ref, sampling bit)
  triple that crosses process boundaries inside the optional ``trace``
  envelope of portal request frames (:mod:`repro.portal.protocol`);
* :class:`Tracer` -- starts root spans with deterministic counter-based
  trace ids and a head-sampling decision, continues remote traces from a
  :class:`TraceContext`, and manages the *active span* (a
  :mod:`contextvars` variable) so nested spans auto-parent without any
  explicit plumbing;
* span **events** -- timestamped point annotations on a span (a retry, a
  backoff sleep, a breaker rejection) recorded via
  :meth:`TraceBuffer.add_event`.

Span ids are only unique per buffer, so cross-buffer references are
*qualified refs* ``"<namespace>:<span_id>"``; the assembler
(:mod:`repro.observability.assembler`) joins buffers on those refs plus
the ``remote_parent`` attribute written by :meth:`Tracer.start_child`.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from collections import deque
from contextlib import contextmanager

Clock = Callable[[], float]


@dataclass
class Span:
    """One timed, attributed operation."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: The distributed trace this span belongs to; ``None`` for flat,
    #: process-local spans (the pre-tracing behaviour, still the default).
    trace_id: Optional[str] = None
    #: Timestamped point annotations (see :meth:`TraceBuffer.add_event`).
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """Seconds between start and finish; ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach/overwrite attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe dict (the shape ``get_metrics`` serves).

        ``trace_id`` defaults to ``null`` and ``events`` to ``[]``, so
        readers of the pre-tracing wire form keep working unchanged.
        """
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "events": [dict(event) for event in self.events],
        }


#: The active (buffer, span) pair for the current thread/context.  New
#: threads start with an empty contextvars context, so activation never
#: leaks across portal handler threads.
_ACTIVE: ContextVar[Optional[Tuple[Any, Span]]] = ContextVar(
    "p4p_active_span", default=None
)


def active_span(buffer: Optional[Any] = None) -> Optional[Span]:
    """The span activated in this context, if any.

    With ``buffer`` given, only a span recorded on *that* buffer is
    returned -- parent links are span ids local to one buffer, so
    auto-parenting across buffers would corrupt the tree.
    """
    current = _ACTIVE.get()
    if current is None:
        return None
    if buffer is not None and current[0] is not buffer:
        return None
    return current[1]


def push_active(buffer: Any, span: Span):
    """Make ``span`` the active span until :func:`reset_active` is called
    with the returned token."""
    return _ACTIVE.set((buffer, span))


def reset_active(token) -> None:
    _ACTIVE.reset(token)


class TraceBuffer:
    """Thread-safe bounded collection of finished and open spans.

    Spans enter the ring when *started* (so a crash mid-operation still
    leaves its open span visible) and are mutated in place on finish.

    ``namespace`` names this buffer in cross-buffer span references
    (``"<namespace>:<span_id>"``); give each process/component a distinct
    one when their spans will be merged by the assembler.
    """

    def __init__(
        self,
        capacity: int = 2048,
        clock: Clock = time.monotonic,
        namespace: str = "local",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.namespace = namespace
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self.dropped = 0

    def start(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        if parent is None:
            # Auto-parent under the active span *of this buffer* (explicit
            # parents and cross-buffer contexts are never overridden).
            parent = active_span(self)
        if parent is not None and "sampled" in parent.attributes:
            # The head-sampling decision rides the root; children inherit
            # it so any subtree can be judged for export on its own.
            attributes.setdefault("sampled", parent.attributes["sampled"])
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else None,
            start=self._clock(),
            attributes=attributes,
        )
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)
        return span

    def finish(self, span: Span) -> Span:
        span.end = self._clock()
        return span

    def add_event(self, span: Span, name: str, **attributes: Any) -> Dict[str, Any]:
        """Record a timestamped point annotation on ``span``."""
        event = {"name": name, "time": self._clock(), "attributes": attributes}
        if span is not _NULL_SPAN:
            span.events.append(event)
        return event

    def span(self, name: str, parent: Optional[Span] = None, **attributes: Any):
        """Context manager: start on enter, finish on exit (even on error)."""
        return _SpanContext(self, name, parent, attributes)

    def snapshot(self) -> List[Span]:
        """Spans oldest-first (a copy; safe to iterate while recording)."""
        with self._lock:
            return list(self._spans)

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.snapshot() if span.name == name]

    def to_wire(self) -> List[Dict[str, Any]]:
        return [span.to_wire() for span in self.snapshot()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class _SpanContext:
    __slots__ = ("_buffer", "_name", "_parent", "_attributes", "span")

    def __init__(self, buffer, name, parent, attributes) -> None:
        self._buffer = buffer
        self._name = name
        self._parent = parent
        self._attributes = attributes

    def __enter__(self) -> Span:
        self.span = self._buffer.start(self._name, self._parent, **self._attributes)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.set(error=exc_type.__name__)
        self._buffer.finish(self.span)


# -- distributed trace context ----------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """What crosses a process boundary: trace id, parent ref, sampling bit.

    ``span_ref`` is the qualified ``"<namespace>:<span_id>"`` reference of
    the span the receiver should parent under.
    """

    trace_id: str
    span_ref: str
    sampled: bool = True

    def to_wire(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_ref": self.span_ref,
            "sampled": self.sampled,
        }

    @classmethod
    def from_wire(cls, document: Any) -> Optional["TraceContext"]:
        """Tolerant parse: any malformed envelope yields ``None`` (the
        request is served untraced) rather than an error -- tracing must
        never break the request path."""
        if not isinstance(document, dict):
            return None
        trace_id = document.get("trace_id")
        span_ref = document.get("span_ref")
        if not isinstance(trace_id, str) or not isinstance(span_ref, str):
            return None
        if not trace_id or not span_ref:
            return None
        return cls(
            trace_id=trace_id,
            span_ref=span_ref,
            sampled=bool(document.get("sampled", True)),
        )


class Tracer:
    """Starts and propagates distributed traces over one :class:`TraceBuffer`.

    * :meth:`start_trace` begins a span that *continues the active trace*
      when one exists (same buffer), else roots a new trace with a
      deterministic counter-based id and a head-sampling decision drawn
      from a seeded RNG (``sample_rate=1.0`` keeps everything; errors are
      always exported regardless -- see the assembler's export policy).
    * :meth:`start_child` continues a *remote* trace from a
      :class:`TraceContext`, recording the cross-buffer parent in the
      ``remote_parent`` attribute.
    * :meth:`trace` is the context-manager form: it also makes the span
      the active span, so everything recorded inside auto-parents.
    * :meth:`event` annotates the current active span (no-op otherwise).
    """

    def __init__(
        self,
        buffer: TraceBuffer,
        namespace: Optional[str] = None,
        sample_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.buffer = buffer
        self.namespace = (
            namespace if namespace is not None else getattr(buffer, "namespace", "local")
        )
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self._trace_ids = itertools.count(1)

    # -- ids and sampling ----------------------------------------------------

    def _new_trace_id(self) -> str:
        return f"{self.namespace}-{next(self._trace_ids):06d}"

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    # -- span creation -------------------------------------------------------

    def start_trace(self, name: str, **attributes: Any) -> Span:
        span = self.buffer.start(name, **attributes)
        if span.trace_id is None:
            span.trace_id = self._new_trace_id()
            span.set(sampled=self._sample())
        return span

    def start_child(self, name: str, context: TraceContext, **attributes: Any) -> Span:
        span = self.buffer.start(name, **attributes)
        span.trace_id = context.trace_id
        span.parent_id = None  # the parent lives in another buffer
        span.set(remote_parent=context.span_ref, sampled=context.sampled)
        return span

    @contextmanager
    def trace(
        self,
        name: str,
        context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> Iterator[Span]:
        """Start (or continue) a trace, activate the span, finish on exit."""
        if context is not None:
            span = self.start_child(name, context, **attributes)
        else:
            span = self.start_trace(name, **attributes)
        token = _ACTIVE.set((self.buffer, span))
        try:
            yield span
        except BaseException as exc:
            span.set(error=type(exc).__name__)
            raise
        finally:
            _ACTIVE.reset(token)
            self.buffer.finish(span)

    # -- propagation ---------------------------------------------------------

    def context_for(self, span: Span) -> Optional[TraceContext]:
        """The wire envelope for calls made while ``span`` is current."""
        if span.trace_id is None:
            return None
        return TraceContext(
            trace_id=span.trace_id,
            span_ref=f"{self.namespace}:{span.span_id}",
            sampled=bool(span.attributes.get("sampled", True)),
        )

    def event(self, name: str, **attributes: Any) -> None:
        """Annotate the active span of this tracer's buffer, if any."""
        span = active_span(self.buffer)
        if span is not None:
            self.buffer.add_event(span, name, **attributes)


class NullTraceBuffer:
    """No-op :class:`TraceBuffer` twin (see ``NULL_TELEMETRY``)."""

    capacity = 0
    dropped = 0
    namespace = "null"

    def start(self, name: str, parent: Optional[Span] = None, **attributes: Any) -> Span:
        return _NULL_SPAN

    def finish(self, span: Span) -> Span:
        return span

    def add_event(self, span: Span, name: str, **attributes: Any) -> Dict[str, Any]:
        return {"name": name, "time": 0.0, "attributes": attributes}

    def span(self, name: str, parent: Optional[Span] = None, **attributes: Any):
        return _NullSpanContext()

    def snapshot(self) -> List[Span]:
        return []

    def by_name(self, name: str) -> List[Span]:
        return []

    def to_wire(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0


_NULL_SPAN = Span(name="null", span_id=0, parent_id=None, start=0.0, end=0.0)


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        pass
