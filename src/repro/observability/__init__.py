"""Unified telemetry: metrics registry, tracing spans, and exporters.

The observability layer the scaling roadmap builds on: every hot path
(portal dispatch, client calls, price updates, simulator sampling)
records into labeled instruments owned by a
:class:`~repro.observability.registry.MetricsRegistry`, spans land in a
bounded :class:`~repro.observability.tracing.TraceBuffer`, and the state
exports as Prometheus text or a JSON snapshot -- served remotely by the
portal's ``get_metrics`` method and rendered by ``repro telemetry``.

Dependency-free and clock-injectable throughout: the same instruments
measure wall time in a live portal and simulated time inside the
discrete-event simulator.
"""

from repro.observability.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.observability.tracing import (
    NullTraceBuffer,
    Span,
    TraceBuffer,
    TraceContext,
    Tracer,
)
from repro.observability.assembler import (
    assemble_traces,
    canonical_json,
    critical_path,
    export_document,
    export_traces,
    format_trace_tree,
    slowest,
)
from repro.observability.slo import DEFAULT_PORTAL_SLOS, SLO, SLOTracker
from repro.observability.export import (
    PROMETHEUS_CONTENT_TYPE,
    flatten_snapshot,
    json_snapshot,
    prometheus_text,
)
from repro.observability.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    ResilienceCounters,
    Telemetry,
)
from repro.observability.dashboard import (
    percentile_from_buckets,
    render_dashboard,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_PORTAL_SLOS",
    "SLO",
    "SLOTracker",
    "TraceContext",
    "Tracer",
    "assemble_traces",
    "canonical_json",
    "critical_path",
    "export_document",
    "export_traces",
    "format_trace_tree",
    "slowest",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NullRegistry",
    "NullTelemetry",
    "NullTraceBuffer",
    "PROMETHEUS_CONTENT_TYPE",
    "ResilienceCounters",
    "Span",
    "Telemetry",
    "TraceBuffer",
    "flatten_snapshot",
    "json_snapshot",
    "percentile_from_buckets",
    "prometheus_text",
    "render_dashboard",
]
