"""Tests for the unified telemetry subsystem (repro.observability)."""

import json
import threading
from pathlib import Path

import pytest

from repro.observability import (
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NULL_TELEMETRY,
    ResilienceCounters,
    Telemetry,
    TraceBuffer,
    flatten_snapshot,
    json_snapshot,
    json_text,
    parse_prometheus_text,
    percentile_from_buckets,
    prometheus_text,
    render_dashboard,
)

GOLDEN = Path(__file__).parent / "golden"


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def build_reference_registry() -> MetricsRegistry:
    """A small fixed registry; both golden files render exactly this."""
    clock = FakeClock()
    registry = MetricsRegistry(clock=clock)
    requests = registry.counter(
        "p4p_portal_requests_total",
        "Requests dispatched, by method and outcome.",
        ("method",),
    )
    requests.labels(method="get_version").inc(3)
    requests.labels(method="get_pdistances").inc()
    registry.gauge(
        "p4p_portal_inflight_requests", "Requests currently inside dispatch."
    ).set(2)
    latency = registry.histogram(
        "p4p_portal_request_latency_seconds",
        "Dispatch wall time per request, by method.",
        ("method",),
        buckets=(0.001, 0.01, 0.1, 1.0),
    )
    child = latency.labels(method="get_version")
    for value in (0.0005, 0.004, 0.05, 2.0):
        child.observe(value)
    clock.advance(5.0)
    return registry


class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.dec(4)
        gauge.inc()
        assert gauge.value == 7

    def test_gauge_with_a_function_is_derived_when_read(self):
        state = {"bad": 1}
        gauge = MetricsRegistry().gauge("g")
        gauge.labels().set_function(lambda: state["bad"] / 4)
        assert gauge.value == 0.25
        state["bad"] = 3
        assert gauge.value == 0.75

    def test_labeled_children_are_cached_and_independent(self):
        counter = MetricsRegistry().counter("c_total", "", ("method",))
        a = counter.labels(method="a")
        assert counter.labels(method="a") is a
        a.inc()
        counter.labels(method="b").inc(5)
        assert a.value == 1
        assert counter.labels(method="b").value == 5

    def test_wrong_labels_rejected(self):
        counter = MetricsRegistry().counter("c_total", "", ("method",))
        with pytest.raises(MetricError):
            counter.labels(nope="x")
        with pytest.raises(MetricError):
            counter.inc()  # labeled instrument needs .labels()

    def test_histogram_buckets_cumulative(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        child = hist.labels()
        assert child.bucket_counts() == [
            (1.0, 1),
            (2.0, 2),
            (4.0, 3),
            (float("inf"), 4),
        ]
        assert child.count == 4
        assert child.sum == pytest.approx(105.0)

    def test_histogram_bucket_is_the_first_bound_at_or_above(self):
        bounds = (0.001, 0.01, 0.1, 1.0)
        cases = [(-float("inf"), 0), (float("inf"), 4), (float("nan"), 4)]
        for index, bound in enumerate(bounds):
            cases += [
                (bound, index),  # value <= bound: on the boundary it is in
                (bound * (1 - 1e-12), index),
                (bound * (1 + 1e-12), index + 1),
            ]
        for value, index in cases:
            child = MetricsRegistry().histogram("h", buckets=bounds).labels()
            child.observe(value)
            counts = [n for _, n in child.bucket_counts()]
            first = counts.index(1)
            assert first == index, (value, counts)

    def test_histogram_percentile_interpolates(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        child = hist.labels()
        assert child.percentile(0.5) == pytest.approx(1.5, abs=0.5)
        assert child.percentile(0.0) == 0.0
        assert child.percentile(1.0) <= 2.0

    def test_reregistration_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", "help", ("x",))
        b = registry.counter("c_total", "other help", ("x",))
        assert a is b
        with pytest.raises(MetricError):
            registry.gauge("c_total")
        with pytest.raises(MetricError):
            registry.counter("c_total", "", ("y",))

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("bad name")
        with pytest.raises(MetricError):
            registry.counter("9starts_with_digit")

    def test_injectable_clock_drives_uptime_and_timer(self):
        clock = FakeClock(start=50.0)
        registry = MetricsRegistry(clock=clock)
        hist = registry.histogram("h_seconds", buckets=(1.0, 10.0))
        with registry.timer(hist.labels()):
            clock.advance(3.0)
        clock.advance(2.0)
        assert registry.uptime() == pytest.approx(5.0)
        assert hist.labels().sum == pytest.approx(3.0)


class TestConcurrency:
    def test_threaded_updates_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("worker",))
        hist = registry.histogram("h", buckets=(0.5, 1.0))
        gauge = registry.gauge("g")
        n_threads, n_ops = 8, 2000

        def hammer(worker: int) -> None:
            child = counter.labels(worker=worker % 2)
            for i in range(n_ops):
                child.inc()
                hist.observe(0.25 if i % 2 else 0.75)
                gauge.inc()
                gauge.dec()

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(
            child.value for _, child in counter.series()
        )
        assert total == n_threads * n_ops
        assert hist.labels().count == n_threads * n_ops
        assert gauge.value == 0


class TestExporters:
    def test_prometheus_golden(self):
        text = prometheus_text(build_reference_registry())
        assert text == (GOLDEN / "telemetry.prom").read_text()

    def test_json_golden(self):
        text = json_text(build_reference_registry())
        assert text == (GOLDEN / "telemetry.json").read_text()

    def test_exporters_round_trip_same_state(self):
        registry = build_reference_registry()
        flat = flatten_snapshot(json_snapshot(registry))
        parsed = parse_prometheus_text(prometheus_text(registry))
        assert flat == parsed

    def test_deterministic_across_insertion_order(self):
        def build(order):
            registry = MetricsRegistry(clock=FakeClock())
            counter = registry.counter("z_total", "", ("m",))
            for label in order:
                counter.labels(m=label).inc()
            registry.gauge("a_gauge").set(1)
            return prometheus_text(registry)

        assert build(["b", "a", "c"]) == build(["c", "b", "a"])

    def test_json_snapshot_is_json_serializable(self):
        document = json_snapshot(build_reference_registry())
        assert json.loads(json.dumps(document)) == json.loads(
            json.dumps(document)
        )

    def test_percentile_from_wire_buckets(self):
        registry = build_reference_registry()
        snapshot = json_snapshot(registry)
        metric = next(
            m
            for m in snapshot["metrics"]
            if m["name"] == "p4p_portal_request_latency_seconds"
        )
        buckets = metric["samples"][0]["buckets"]
        live = registry.get("p4p_portal_request_latency_seconds").labels(
            method="get_version"
        )
        for q in (0.25, 0.5, 0.9):
            assert percentile_from_buckets(buckets, q) == pytest.approx(
                live.percentile(q)
            )


class TestTracing:
    def test_span_context_records_duration_and_attributes(self):
        clock = FakeClock()
        traces = TraceBuffer(capacity=8, clock=clock)
        with traces.span("work", kind="test") as span:
            clock.advance(2.0)
            span.set(extra=1)
        [recorded] = traces.snapshot()
        assert recorded.duration == pytest.approx(2.0)
        assert recorded.attributes == {"kind": "test", "extra": 1}

    def test_parent_child_linkage(self):
        traces = TraceBuffer(clock=FakeClock())
        with traces.span("outer") as outer:
            with traces.span("inner", parent=outer) as inner:
                pass
        assert inner.parent_id == outer.span_id

    def test_bounded_capacity_drops_oldest(self):
        traces = TraceBuffer(capacity=3, clock=FakeClock())
        for i in range(5):
            traces.finish(traces.start(f"s{i}"))
        names = [span.name for span in traces.snapshot()]
        assert names == ["s2", "s3", "s4"]
        assert traces.dropped == 2

    def test_error_inside_span_is_tagged(self):
        traces = TraceBuffer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with traces.span("boom"):
                raise RuntimeError("x")
        [span] = traces.snapshot()
        assert span.attributes["error"] == "RuntimeError"
        assert span.end is not None

    def test_wire_form_is_json_safe(self):
        traces = TraceBuffer(clock=FakeClock())
        traces.finish(traces.start("s", n=1))
        assert json.loads(json.dumps(traces.to_wire()))[0]["name"] == "s"


class TestResilienceFacade:
    def test_attribute_protocol_matches_dataclass(self):
        registry = MetricsRegistry()
        counters = ResilienceCounters(registry)
        counters.retries += 1
        counters.retries += 1
        counters.breaker_trips = 7
        assert counters.retries == 2
        assert counters.breaker_trips == 7
        assert counters.snapshot()["retries"] == 2
        counters.reset()
        assert all(v == 0 for v in counters.snapshot().values())

    def test_values_surface_in_exporters(self):
        registry = MetricsRegistry()
        counters = ResilienceCounters(registry)
        counters.stale_serves += 3
        text = prometheus_text(registry)
        assert "p4p_resilience_stale_serves 3" in text

    def test_per_as_label(self):
        """Each AS's resilient client keeps its own counters: without a
        shared registry every instance stores into a private one."""
        a = ResilienceCounters()
        b = ResilienceCounters()
        a.retries += 5
        b.retries += 1
        assert a.retries == 5
        assert b.retries == 1

    def test_drop_in_for_resilient_client(self):
        """Shared, private and null registries all satisfy the exact usage
        pattern of the resilience layer: attribute increments and
        assignments, no method calls."""
        shared = ResilienceCounters(MetricsRegistry())
        private = ResilienceCounters()
        null = ResilienceCounters(NULL_REGISTRY)
        for counters in (shared, private, null):
            counters.retries += 1
            counters.breaker_trips = 2
            counters.stale_serves += 1
        assert shared.snapshot() == private.snapshot()
        assert private.snapshot()["breaker_trips"] == 2
        assert set(null.snapshot().values()) == {0}


class TestNullTelemetry:
    def test_null_everything_is_noop(self):
        NULL_TELEMETRY.registry.counter("x_total").inc()
        NULL_TELEMETRY.registry.gauge("g").set(5)
        NULL_TELEMETRY.registry.histogram("h").observe(1.0)
        with NULL_TELEMETRY.traces.span("s"):
            pass
        assert NULL_TELEMETRY.snapshot()["metrics"] == []
        assert NULL_TELEMETRY.prometheus() == ""
        assert len(NULL_TELEMETRY.traces) == 0


class TestDashboard:
    def _scraped_snapshot(self):
        telemetry = Telemetry(clock=FakeClock())
        registry = telemetry.registry
        registry.counter(
            "p4p_portal_requests_total", "", ("method",)
        ).labels(method="get_version").inc(10)
        registry.histogram(
            "p4p_portal_request_latency_seconds",
            "",
            ("method",),
            buckets=(0.001, 0.01),
        ).labels(method="get_version").observe(0.005)
        ResilienceCounters(registry).retries += 4
        for i in range(3):
            span = telemetry.traces.start("itracker.price_update")
            span.set(supergradient_norm=10.0 / (i + 1), version=i + 1)
            telemetry.traces.finish(span)
        return telemetry.snapshot()

    def test_render_dashboard_sections(self):
        text = render_dashboard(self._scraped_snapshot(), title="test")
        assert "telemetry: test" in text
        assert "get_version" in text
        assert "supergradient norm" in text  # convergence plot rendered
        assert "retries" in text

    def test_render_dashboard_empty_snapshot(self):
        text = render_dashboard(
            {"uptime_seconds": 0.0, "metrics": [], "spans": []}, title="empty"
        )
        assert "(no requests served yet)" in text
        assert "(no price updates traced)" in text
