"""The Telemetry bundle and the registry-backed resilience counters.

:class:`Telemetry` is what instrumented components pass around: one
:class:`~repro.observability.registry.MetricsRegistry` plus one
:class:`~repro.observability.tracing.TraceBuffer` sharing a clock.  A
single bundle typically spans a whole process (iTracker + portal server),
so one ``get_metrics`` scrape sees every layer.

:class:`ResilienceCounters` is the degradation telemetry of the portal
resilience layer, read and written as plain attributes
(``counters.retries += 1``, ``counters.breaker_trips = n``,
``snapshot()``, ``reset()``) but stored in registry gauges
``p4p_resilience_<name>``, so the values surface through the exporters
and ``get_metrics`` like every other instrument.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Union

from repro.observability.export import json_snapshot, prometheus_text
from repro.observability.registry import (
    Clock,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.observability.tracing import NullTraceBuffer, TraceBuffer


class Telemetry:
    """One component's registry + trace buffer on a shared clock."""

    def __init__(
        self,
        clock: Clock = time.monotonic,
        trace_capacity: int = 2048,
        trace_namespace: str = "local",
    ) -> None:
        self.registry = MetricsRegistry(clock=clock)
        self.traces = TraceBuffer(
            capacity=trace_capacity, clock=clock, namespace=trace_namespace
        )

    @property
    def clock(self) -> Clock:
        return self.registry.clock

    def snapshot(self) -> Dict[str, Any]:
        """The ``get_metrics`` JSON document: metrics plus recent spans."""
        document = json_snapshot(self.registry)
        document["spans"] = self.traces.to_wire()
        return document

    def prometheus(self) -> str:
        return prometheus_text(self.registry)


class NullTelemetry:
    """A disabled :class:`Telemetry`: every instrument is a no-op."""

    registry: NullRegistry = NULL_REGISTRY
    traces = NullTraceBuffer()
    clock = staticmethod(time.monotonic)

    def snapshot(self) -> Dict[str, Any]:
        return {"uptime_seconds": 0.0, "metrics": [], "spans": []}

    def prometheus(self) -> str:
        return ""


NULL_TELEMETRY = NullTelemetry()


class ResilienceCounters:
    """Counters the portal resilience layer increments as it degrades.

    One instance is typically shared by a
    :class:`~repro.portal.resilience.ResilientPortalClient` (which drives
    ``retries`` .. ``reconnects``) and the selection layer (which drives
    ``native_fallbacks``); :meth:`snapshot` is the management-plane export.

    Each field is a gauge in ``registry`` -- a private
    :class:`MetricsRegistry` when none is given, so several clients never
    collide; ``ResilienceCounters(NULL_REGISTRY)`` reads zeros and drops
    writes.  Gauges (not counters) because the resilience layer *assigns*
    some fields (``counters.breaker_trips = breaker.trip_count``) as well
    as incrementing others; a monotonic instrument cannot express the
    assignment.
    """

    FIELDS = (
        "retries",
        "breaker_trips",
        "breaker_probes",
        "stale_serves",
        "validation_rejections",
        "unavailable",
        "reconnects",
        "native_fallbacks",
        "busy_backoffs",
    )

    def __init__(
        self, registry: Union[MetricsRegistry, NullRegistry, None] = None
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()
        # One literal registration per gauge: p4plint's TEL001 audits
        # metric names statically, so no f-string name construction here.
        instruments = {
            "retries": registry.gauge(
                "p4p_resilience_retries",
                "Transport-failure retries issued by resilient clients.",
            ),
            "breaker_trips": registry.gauge(
                "p4p_resilience_breaker_trips",
                "Circuit breaker CLOSED->OPEN transitions.",
            ),
            "breaker_probes": registry.gauge(
                "p4p_resilience_breaker_probes",
                "HALF_OPEN probe attempts.",
            ),
            "stale_serves": registry.gauge(
                "p4p_resilience_stale_serves",
                "Views served stale while the portal was unreachable.",
            ),
            "validation_rejections": registry.gauge(
                "p4p_resilience_validation_rejections",
                "Fetched views rejected by validate_view.",
            ),
            "unavailable": registry.gauge(
                "p4p_resilience_unavailable",
                "Fetches that found no fresh or usable stale view.",
            ),
            "reconnects": registry.gauge(
                "p4p_resilience_reconnects",
                "New portal connections established.",
            ),
            "native_fallbacks": registry.gauge(
                "p4p_resilience_native_fallbacks",
                "Selections degraded to native for lack of guidance.",
            ),
            "busy_backoffs": registry.gauge(
                "p4p_resilience_busy_backoffs",
                "Backoffs honoring a server busy/retry_after hint "
                "(overload shedding, not counted as breaker failures).",
            ),
        }
        gauges = {name: gauge.labels() for name, gauge in instruments.items()}
        object.__setattr__(self, "_gauges", gauges)

    def __getattr__(self, name: str) -> Any:
        gauges = object.__getattribute__(self, "_gauges")
        if name in gauges:
            value = gauges[name].value
            return int(value) if float(value).is_integer() else value
        raise AttributeError(name)

    def __setattr__(self, name: str, value: Any) -> None:
        gauges = object.__getattribute__(self, "_gauges")
        if name in gauges:
            gauges[name].set(value)
            return
        object.__setattr__(self, name, value)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)
