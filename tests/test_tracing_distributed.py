"""Distributed tracing and SLOs: context propagation, assembly, burn rates.

Four layers, mirroring the pipeline:

* **wire** -- :class:`TraceContext` round-trips through the optional
  ``trace`` envelope and tolerates every malformed shape (tracing must
  never fail a request);
* **tracer** -- deterministic trace ids, head sampling, auto-parenting
  through the active span, remote parents via ``start_child``;
* **assembly** -- per-process buffers join into sorted causal trees with
  a bit-deterministic canonical JSON export (golden file + double run);
* **end to end** -- real sockets with injected faults: the scripted
  scenario's reconnect/retry/breaker/stale events land on the right
  spans, and server-side dispatch spans parent under the caller's
  context even across a byzantine proxy.

Plus the SLO tracker (burn-rate math, registry series, dashboard
section) and the fuzz-fixture ``trace`` key (format /2) staying
backward compatible with /1 fixtures.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.fuzz.fuzzer import (
    FIXTURE_FORMAT,
    FIXTURE_FORMATS,
    Fixture,
    load_fixture,
)
from repro.network.library import abilene
from repro.observability.assembler import (
    assemble_traces,
    canonical_json,
    critical_path,
    export_document,
    export_traces,
    format_trace_tree,
    slowest,
    tree_has_error,
)
from repro.observability.dashboard import render_dashboard, render_slo_table
from repro.observability.registry import MetricsRegistry
from repro.observability.slo import DEFAULT_PORTAL_SLOS, SLO, SLOTracker
from repro.observability.telemetry import Telemetry
from repro.observability.tracing import (
    NullTraceBuffer,
    Span,
    TraceBuffer,
    TraceContext,
    Tracer,
    active_span,
)
from repro.portal import protocol
from repro.portal.aserver import AsyncPortalServer
from repro.portal.dispatch import PortalDispatcher
from repro.portal.faults import Fault, FaultKind, FaultSchedule, FaultyPortal
from repro.portal.resilience import (
    CircuitBreaker,
    PortalUnavailable,
    ResilientPortalClient,
    RetryPolicy,
)
from repro.simulator.traced import run_traced_scenario

GOLDEN = Path(__file__).parent / "golden"
FUZZ_FIXTURES = Path(__file__).parent / "fixtures" / "fuzz"

#: :func:`_digest_without_span_timing` of ``golden/trace_tree.json`` as it
#: stood before the traced scenario's portal became ``AsyncPortalServer``.
PRE_SWAP_GOLDEN_DIGEST = (
    "c94b5a7ef0e9ea85258e1af1df8718f20f83c56145a326d7af2f7ec40f073024"
)


def _digest_without_span_timing(document) -> str:
    """sha256 of the export with every span's ``ref``, ``start``, ``end``
    and ``duration`` dropped (events keep their ``time``)."""

    def strip(node):
        if isinstance(node, dict):
            timing = ("ref", "start", "end", "duration") if "children" in node else ()
            return {k: strip(v) for k, v in node.items() if k not in timing}
        if isinstance(node, list):
            return [strip(item) for item in node]
        return node

    payload = json.dumps(strip(document), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- wire context ----------------------------------------------------------


class TestTraceContext:
    def test_round_trips_through_wire_form(self):
        context = TraceContext(trace_id="app-000001", span_ref="app:7", sampled=False)
        assert TraceContext.from_wire(context.to_wire()) == context

    def test_sampled_defaults_true_on_the_wire(self):
        parsed = TraceContext.from_wire({"trace_id": "t", "span_ref": "a:1"})
        assert parsed is not None and parsed.sampled is True

    @pytest.mark.parametrize(
        "document",
        [
            None,
            "not-a-dict",
            [],
            {},
            {"trace_id": "t"},
            {"span_ref": "a:1"},
            {"trace_id": "", "span_ref": "a:1"},
            {"trace_id": "t", "span_ref": ""},
            {"trace_id": 7, "span_ref": "a:1"},
            {"trace_id": "t", "span_ref": ["a", 1]},
        ],
        ids=[
            "none", "string", "list", "empty", "no-ref", "no-id",
            "blank-id", "blank-ref", "int-id", "list-ref",
        ],
    )
    def test_malformed_envelopes_parse_to_none(self, document):
        assert TraceContext.from_wire(document) is None

    def test_attach_trace_rides_beside_params(self):
        message = protocol.request("get_version")
        envelope = {"trace_id": "t", "span_ref": "a:1", "sampled": True}
        assert protocol.attach_trace(message, envelope) is message
        assert message["trace"] == envelope
        assert message["method"] == "get_version"
        # The envelope is a sibling of params, so schema validation
        # (which only sees params) is untouched.
        protocol.validate_params("get_version", message.get("params") or {})


# -- tracer ----------------------------------------------------------------


class TestTracer:
    def test_trace_ids_are_deterministic_counters(self):
        buffer = TraceBuffer(clock=FakeClock(), namespace="app")
        tracer = Tracer(buffer)
        first = tracer.start_trace("client.call")
        second = tracer.start_trace("client.call")
        assert first.trace_id == "app-000001"
        assert second.trace_id == "app-000002"
        assert first.attributes["sampled"] is True

    def test_sample_rate_zero_marks_roots_unsampled(self):
        buffer = TraceBuffer(clock=FakeClock())
        tracer = Tracer(buffer, sample_rate=0.0)
        span = tracer.start_trace("client.call")
        assert span.attributes["sampled"] is False

    def test_partial_sampling_is_seeded(self):
        def decisions(seed):
            tracer = Tracer(
                TraceBuffer(clock=FakeClock()), sample_rate=0.5, seed=seed
            )
            return [
                tracer.start_trace("client.call").attributes["sampled"]
                for _ in range(32)
            ]

        assert decisions(7) == decisions(7)
        assert True in decisions(7) and False in decisions(7)

    def test_start_child_parents_remotely(self):
        buffer = TraceBuffer(clock=FakeClock(), namespace="portal")
        tracer = Tracer(buffer)
        context = TraceContext(trace_id="app-000001", span_ref="app:3", sampled=False)
        span = tracer.start_child("portal.dispatch", context)
        assert span.trace_id == "app-000001"
        assert span.parent_id is None
        assert span.attributes["remote_parent"] == "app:3"
        assert span.attributes["sampled"] is False

    def test_context_for_qualifies_the_span_ref(self):
        buffer = TraceBuffer(clock=FakeClock(), namespace="app")
        tracer = Tracer(buffer)
        span = tracer.start_trace("client.call")
        context = tracer.context_for(span)
        assert context == TraceContext(
            trace_id=span.trace_id, span_ref=f"app:{span.span_id}", sampled=True
        )

    def test_context_for_flat_span_is_none(self):
        buffer = TraceBuffer(clock=FakeClock())
        tracer = Tracer(buffer)
        flat = buffer.start("itracker.price_update")
        assert tracer.context_for(flat) is None

    def test_trace_activates_and_auto_parents(self):
        buffer = TraceBuffer(clock=FakeClock())
        tracer = Tracer(buffer)
        with tracer.trace("resilient.get_view") as outer:
            assert active_span(buffer) is outer
            child = buffer.start("client.call")
            assert child.parent_id == outer.span_id
            assert child.trace_id == outer.trace_id
            assert child.attributes["sampled"] is True
        assert active_span(buffer) is None
        assert outer.end is not None

    def test_activation_is_scoped_to_the_buffer(self):
        ours = TraceBuffer(clock=FakeClock(), namespace="a")
        theirs = TraceBuffer(clock=FakeClock(), namespace="b")
        with Tracer(ours).trace("resilient.get_view"):
            # Parent ids are buffer-local: another buffer must not
            # auto-parent under our span.
            assert active_span(theirs) is None
            stranger = theirs.start("client.call")
            assert stranger.parent_id is None

    def test_trace_tags_errors_and_reraises(self):
        buffer = TraceBuffer(clock=FakeClock())
        tracer = Tracer(buffer)
        with pytest.raises(RuntimeError):
            with tracer.trace("resilient.fetch"):
                raise RuntimeError("boom")
        (span,) = buffer.snapshot()
        assert span.attributes["error"] == "RuntimeError"
        assert span.end is not None

    def test_event_lands_on_the_active_span_only(self):
        buffer = TraceBuffer(clock=FakeClock())
        tracer = Tracer(buffer)
        tracer.event("retry")  # no active span: dropped, no error
        with tracer.trace("resilient.fetch") as span:
            tracer.event("retry", attempt=2)
        assert [event["name"] for event in span.events] == ["retry"]
        assert span.events[0]["attributes"] == {"attempt": 2}

    def test_null_buffer_swallows_events(self):
        buffer = NullTraceBuffer()
        span = buffer.start("client.call")
        buffer.add_event(span, "retry")
        assert span.events == []
        assert buffer.snapshot() == []


# -- assembly and export ---------------------------------------------------


def _two_process_buffers():
    clock = FakeClock()
    client = TraceBuffer(clock=clock, namespace="app")
    server = TraceBuffer(clock=clock, namespace="portal")
    tracer = Tracer(client)
    remote = Tracer(server)
    with tracer.trace("client.call") as root:
        clock.advance(0.010)
        context = tracer.context_for(root)
        dispatch = remote.start_child("portal.dispatch", context)
        clock.advance(0.005)
        handle = server.start("itracker.handle", parent=dispatch)
        clock.advance(0.002)
        server.finish(handle)
        server.finish(dispatch)
        clock.advance(0.001)
    return client, server, root


class TestAssembler:
    def test_joins_local_and_remote_parents(self):
        client, server, root = _two_process_buffers()
        (tree,) = assemble_traces(
            {"app": client.snapshot(), "portal": server.snapshot()}
        )
        assert tree["name"] == "client.call"
        assert tree["ref"] == f"app:{root.span_id}"
        (dispatch,) = tree["children"]
        assert dispatch["name"] == "portal.dispatch"
        (handle,) = dispatch["children"]
        assert handle["name"] == "itracker.handle"
        assert handle["children"] == []

    def test_flat_spans_stay_out_of_trees(self):
        buffer = TraceBuffer(clock=FakeClock())
        buffer.finish(buffer.start("itracker.price_update"))
        assert assemble_traces({"local": buffer.snapshot()}) == []

    def test_missing_parent_promotes_to_root(self):
        span = Span(
            name="portal.dispatch",
            span_id=9,
            parent_id=None,
            start=1.0,
            end=2.0,
            trace_id="app-000001",
            attributes={"remote_parent": "app:404"},
        )
        (tree,) = assemble_traces({"portal": [span]})
        assert tree["ref"] == "portal:9"

    def test_export_policy_keeps_sampled_or_error_trees(self):
        def tree(sampled, error=False):
            attributes = {"sampled": sampled}
            if error:
                attributes["error"] = "RuntimeError"
            return {
                "name": "client.call",
                "ref": "app:1",
                "trace_id": "t",
                "start": 0.0,
                "end": 1.0,
                "duration": 1.0,
                "attributes": attributes,
                "events": [],
                "children": [],
            }

        kept = export_traces(
            [tree(True), tree(False), tree(False, error=True)]
        )
        assert [t["attributes"].get("error") is not None for t in kept] == [
            False,
            True,
        ]
        assert tree_has_error(tree(False, error=True))
        assert not tree_has_error(tree(True))

    def test_canonical_json_is_bit_stable(self):
        client, server, _ = _two_process_buffers()
        buffers = {"app": client.snapshot(), "portal": server.snapshot()}
        first = canonical_json(export_document(assemble_traces(buffers)))
        second = canonical_json(export_document(assemble_traces(buffers)))
        assert first == second
        assert first.endswith("\n")
        assert json.loads(first)["format"] == "p4p-trace-export/1"

    def test_critical_path_follows_latest_finisher(self):
        client, server, _ = _two_process_buffers()
        (tree,) = assemble_traces(
            {"app": client.snapshot(), "portal": server.snapshot()}
        )
        assert [node["name"] for node in critical_path(tree)] == [
            "client.call",
            "portal.dispatch",
            "itracker.handle",
        ]

    def test_slowest_ranks_by_root_duration(self):
        def tree(trace_id, duration):
            return {
                "name": "client.call",
                "ref": f"app:{trace_id}",
                "trace_id": trace_id,
                "start": 0.0,
                "end": duration,
                "duration": duration,
                "attributes": {},
                "events": [],
                "children": [],
            }

        trees = [tree("a", 0.1), tree("b", 0.5), tree("c", 0.3)]
        assert [t["trace_id"] for t in slowest(trees, 2)] == ["b", "c"]

    def test_format_trace_tree_renders_spans_and_events(self):
        client, server, root = _two_process_buffers()
        client.add_event(root, "retry", attempt=2)
        (tree,) = assemble_traces(
            {"app": client.snapshot(), "portal": server.snapshot()}
        )
        text = format_trace_tree(tree)
        assert "client.call" in text.splitlines()[0]
        assert "* retry" in text and "attempt=2" in text
        assert "`-- itracker.handle" in text
        # Bookkeeping attributes stay out of the operator view.
        assert "remote_parent" not in text and "sampled" not in text


# -- SLOs ------------------------------------------------------------------


class TestSLO:
    def test_objective_and_window_are_validated(self):
        with pytest.raises(ValueError):
            SLO(name="x", method="*", objective=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", method="*", objective=0.5, window=0)

    def test_duplicate_slo_names_rejected(self):
        registry = MetricsRegistry(clock=FakeClock())
        slo = SLO(name="dup", method="*", objective=0.9)
        with pytest.raises(ValueError):
            SLOTracker(registry, [slo, slo])

    def test_latency_threshold_makes_slow_successes_bad(self):
        slo = SLO(name="lat", method="*", objective=0.95, latency_threshold=0.1)
        assert not slo.is_bad(0.05, error=False)
        assert slo.is_bad(0.25, error=False)
        assert slo.is_bad(0.05, error=True)

    def test_burn_rate_math_over_the_rolling_window(self):
        registry = MetricsRegistry(clock=FakeClock())
        tracker = SLOTracker(
            registry, [SLO(name="avail", method="*", objective=0.9, window=4)]
        )
        for error in (False, False, False, True):
            tracker.observe("get_view", 0.0, error)
        # 1 bad of 4 with a 10% budget: burning 2.5x the budget.
        assert tracker.burn_rates() == {"avail": pytest.approx(2.5)}
        # The window rolls: four clean requests push the bad one out.
        for _ in range(4):
            tracker.observe("get_view", 0.0, False)
        assert tracker.burn_rates() == {"avail": 0.0}

    def test_method_scoped_slo_ignores_other_methods(self):
        registry = MetricsRegistry(clock=FakeClock())
        tracker = SLOTracker(
            registry,
            [SLO(name="views", method="get_view", objective=0.5, window=8)],
        )
        tracker.observe("get_version", 0.0, error=True)
        assert tracker.burn_rates() == {"views": 0.0}
        tracker.observe("get_view", 0.0, error=True)
        assert tracker.burn_rates()["views"] > 0.0

    def test_registry_series_track_observations(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        tracker = SLOTracker(telemetry.registry, DEFAULT_PORTAL_SLOS)
        tracker.observe("get_view", 0.25, error=False)  # slow: bad for latency
        snapshot = telemetry.snapshot()
        by_name = {metric["name"]: metric for metric in snapshot["metrics"]}
        events = {
            (s["labels"]["slo"], s["labels"]["outcome"]): s["value"]
            for s in by_name["p4p_slo_events_total"]["samples"]
        }
        assert events[("portal-availability", "good")] == 1
        assert events[("portal-latency", "bad")] == 1
        budget = {
            s["labels"]["slo"]: s["value"]
            for s in by_name["p4p_slo_error_budget_remaining"]["samples"]
        }
        assert budget["portal-availability"] == 1.0
        assert budget["portal-latency"] == 0.0  # one of one bad: budget gone

    def test_scraped_gauges_are_derived_from_the_window(self):
        """Through the portal's own ``get_metrics``, in both formats: burn
        rate and remaining budget are what the window says when scraped,
        and the budget clamps at 0 once the burn passes 1."""
        telemetry = Telemetry(clock=FakeClock())
        topo = abilene()
        dispatcher = PortalDispatcher(
            ITracker(topology=topo),
            telemetry=telemetry,
            # Scoped to one method so the scrapes are not judged by it.
            slos=[SLO(name="avail", method="get_version", objective=0.75, window=8)],
        )
        good = protocol.request("get_version")
        bad = protocol.request("get_version", bogus=1)

        def scrape():
            expected = dispatcher._slo.burn_rates()["avail"]
            snapshot = dispatcher.dispatch(protocol.request("get_metrics"))["result"]
            gauges = {
                metric["name"]: metric["samples"][0]["value"]
                for metric in snapshot["metrics"]
                if metric["name"].startswith("p4p_slo_") and metric["type"] == "gauge"
            }
            text = dispatcher.dispatch(
                protocol.request("get_metrics", format="prometheus")
            )["result"]["text"]
            exposed = {
                line.split("{")[0]: float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith(("p4p_slo_burn_rate{", "p4p_slo_error_budget"))
            }
            assert gauges == exposed
            return expected, gauges["p4p_slo_burn_rate"], gauges[
                "p4p_slo_error_budget_remaining"
            ]

        for message in (good, good, bad, good):
            dispatcher.dispatch(message)
        burn_expected, burn, budget = scrape()
        assert burn == burn_expected == pytest.approx(1.0)
        assert budget == pytest.approx(0.0)
        for message in (good, good, good, good):
            dispatcher.dispatch(message)
        burn_expected, burn, budget = scrape()
        assert burn == burn_expected == pytest.approx(0.5)
        assert budget == pytest.approx(0.5)
        for message in (bad, bad, bad, bad, bad):
            dispatcher.dispatch(message)
        burn_expected, burn, budget = scrape()
        assert burn == burn_expected == pytest.approx(2.5)
        assert budget == 0.0

    def test_dashboard_renders_slo_section(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        tracker = SLOTracker(telemetry.registry, DEFAULT_PORTAL_SLOS)
        tracker.observe("get_view", 0.0, error=False)
        lines = render_slo_table(telemetry.snapshot())
        assert any("portal-availability" in line for line in lines)
        assert any("100.0%" in line for line in lines)
        dashboard = render_dashboard(telemetry.snapshot())
        assert "-- SLOs --" in dashboard

    def test_dashboard_without_slos_says_so(self):
        telemetry = Telemetry(clock=FakeClock())
        assert render_slo_table(telemetry.snapshot()) == ["  (no SLOs declared)"]


# -- server integration ----------------------------------------------------


@pytest.fixture
def itracker():
    return ITracker(
        topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
    )


class TestServerPropagation:
    def _traced_request(self, method, **params):
        buffer = TraceBuffer(clock=FakeClock(), namespace="app")
        tracer = Tracer(buffer)
        span = tracer.start_trace("client.call", method=method)
        message = protocol.request(method, **params)
        protocol.attach_trace(message, tracer.context_for(span).to_wire())
        return buffer, span, message

    @pytest.mark.timeout(30)
    def test_dispatch_parents_under_the_wire_context(self, itracker):
        telemetry = Telemetry(clock=FakeClock(), trace_namespace="portal")
        with AsyncPortalServer(itracker, telemetry=telemetry) as server:
            _, span, message = self._traced_request("get_version")
            response = server.dispatch(message)
            assert "result" in response
            (dispatch,) = telemetry.traces.by_name("portal.dispatch")
            assert dispatch.trace_id == span.trace_id
            assert dispatch.attributes["remote_parent"] == f"app:{span.span_id}"
            assert dispatch.attributes["method"] == "get_version"
            assert dispatch.end is not None
            (handle,) = telemetry.traces.by_name("itracker.handle")
            assert handle.parent_id == dispatch.span_id
            assert handle.trace_id == span.trace_id
            # Dispatch deactivated its span on the way out.
            assert active_span(telemetry.traces) is None

    @pytest.mark.timeout(30)
    def test_error_responses_tag_the_dispatch_span(self, itracker):
        telemetry = Telemetry(clock=FakeClock(), trace_namespace="portal")
        with AsyncPortalServer(itracker, telemetry=telemetry) as server:
            _, _, message = self._traced_request("no_such_method")
            response = server.dispatch(message)
            assert "error" in response
            (dispatch,) = telemetry.traces.by_name("portal.dispatch")
            assert dispatch.attributes["error"] == "response-error"

    @pytest.mark.timeout(30)
    def test_malformed_envelope_serves_untraced(self, itracker):
        telemetry = Telemetry(clock=FakeClock(), trace_namespace="portal")
        with AsyncPortalServer(itracker, telemetry=telemetry) as server:
            message = protocol.request("get_version")
            protocol.attach_trace(message, {"trace_id": 42})
            response = server.dispatch(message)
            assert "result" in response
            assert telemetry.traces.by_name("portal.dispatch") == []

    @pytest.mark.timeout(30)
    def test_dispatch_feeds_the_default_slos(self, itracker):
        telemetry = Telemetry(clock=FakeClock(), trace_namespace="portal")
        with AsyncPortalServer(itracker, telemetry=telemetry) as server:
            server.dispatch(protocol.request("get_version"))
            snapshot = telemetry.snapshot()
            names = {metric["name"] for metric in snapshot["metrics"]}
            assert "p4p_slo_burn_rate" in names
            assert "p4p_slo_events_total" in names

    @pytest.mark.timeout(30)
    def test_null_telemetry_stays_instrument_free(self, itracker):
        from repro.observability.telemetry import NULL_TELEMETRY

        with AsyncPortalServer(itracker, telemetry=NULL_TELEMETRY) as server:
            _, _, message = self._traced_request("get_version")
            response = server.dispatch(message)
            assert "result" in response
            assert server._slo is None
            assert not server._trace_enabled
            assert len(NULL_TELEMETRY.traces) == 0
            scrape = server.dispatch(protocol.request("get_metrics"))["result"]
            assert [
                metric
                for metric in scrape.get("metrics", [])
                if metric["name"].startswith("p4p_slo_")
            ] == []
            assert server.telemetry.registry.get("p4p_slo_burn_rate") is None

    @pytest.mark.timeout(30)
    def test_byzantine_proxy_forwards_the_envelope(self, itracker):
        """A mutating proxy corrupts payloads, not causality: the server
        span still parents under the caller and the rejection events land
        on the caller's spans."""
        from repro.portal.faults import negate_distances

        def negate_views(result):
            # Only the view payload has distances; version documents and
            # friends pass through so the walk reaches get_pdistances.
            if isinstance(result, dict) and "distances" in result:
                return negate_distances(result)
            return result

        telemetry = Telemetry(clock=FakeClock(), trace_namespace="portal")
        clock = FakeClock()
        client_telemetry = Telemetry(clock=clock, trace_namespace="app")
        tracer = Tracer(client_telemetry.traces)
        schedule = FaultSchedule(
            default=Fault(FaultKind.BYZANTINE, mutate=negate_views)
        )
        with AsyncPortalServer(itracker, telemetry=telemetry) as server:
            with FaultyPortal(server.address, schedule=schedule) as proxy:
                client = ResilientPortalClient(
                    *proxy.address,
                    retry=RetryPolicy(
                        max_attempts=2,
                        base_delay=0.0,
                        max_delay=0.0,
                        attempt_timeout=5.0,
                    ),
                    breaker=CircuitBreaker(
                        failure_threshold=3, cooldown=30.0, clock=clock
                    ),
                    stale_ttl=60.0,
                    clock=clock,
                    sleep=lambda _d: None,
                    rng=random.Random(0),
                    tracer=tracer,
                )
                try:
                    with pytest.raises(PortalUnavailable):
                        client.get_view()
                finally:
                    client.close()
        (root,) = client_telemetry.traces.by_name("resilient.get_view")
        assert "validation-rejected" in [e["name"] for e in root.events]
        (fetch,) = client_telemetry.traces.by_name("resilient.fetch")
        assert fetch.attributes["error"] == "ViewValidationError"
        dispatches = telemetry.traces.by_name("portal.dispatch")
        assert dispatches, "server saw no traced requests through the proxy"
        assert {span.trace_id for span in dispatches} == {root.trace_id}


# -- the scripted end-to-end scenario --------------------------------------


def _spans_by_name(tree):
    index = {}

    def walk(node):
        index.setdefault(node["name"], []).append(node)
        for child in node["children"]:
            walk(child)

    walk(tree)
    return index


def _event_names(node):
    return [event["name"] for event in node["events"]]


class TestTracedScenario:
    @pytest.fixture(scope="class")
    def document(self):
        return run_traced_scenario(seed=0)

    @pytest.mark.timeout(60)
    def test_outcomes_walk_the_degradation_ladder(self, document):
        assert document["outcomes"] == ["fresh", "stale", "stale", "fresh"]
        assert len(document["traces"]) == 4

    @pytest.mark.timeout(60)
    def test_faulted_fetch_records_resilience_events_in_causal_order(
        self, document
    ):
        spans = _spans_by_name(document["traces"][0])
        assert document["traces"][0]["name"] == "resilient.get_view"
        # The mid-frame resets surface as a reconnect on a client.call
        # span and an escalation to the retry loop on resilient.fetch.
        reconnects = [
            call for call in spans["client.call"]
            if "reconnect" in _event_names(call)
        ]
        assert reconnects
        (fetch,) = spans["resilient.fetch"]
        events = _event_names(fetch)
        assert "retry" in events and "backoff" in events
        # Cross-process: every server dispatch span hangs under one of
        # the client's call spans, with the handler span inside it.
        call_refs = {call["ref"] for call in spans["client.call"]}
        dispatch_parents = {
            call["ref"]
            for call in spans["client.call"]
            for child in call["children"]
            if child["name"] == "portal.dispatch"
        }
        assert dispatch_parents and dispatch_parents <= call_refs
        assert spans["portal.dispatch"]
        for dispatch in spans["portal.dispatch"]:
            assert [c["name"] for c in dispatch["children"]] == ["itracker.handle"]

    @pytest.mark.timeout(60)
    def test_outage_trips_breaker_then_serves_stale(self, document):
        second = _spans_by_name(document["traces"][1])
        assert "stale-serve" in _event_names(second["resilient.get_view"][0])
        assert "retry" in _event_names(second["resilient.fetch"][0])
        third = _spans_by_name(document["traces"][2])
        # The open breaker rejects inside the fetch attempt; the stale
        # fallback happens back in get_view.
        assert _event_names(third["resilient.fetch"][0]) == ["breaker-open"]
        assert "stale-serve" in _event_names(third["resilient.get_view"][0])
        # Recovery: the last trace is a clean fresh fetch.
        last = _spans_by_name(document["traces"][3])
        assert _event_names(last["resilient.get_view"][0]) == []
        assert "portal.dispatch" in last

    @pytest.mark.timeout(60)
    def test_export_matches_golden_file(self, document):
        assert canonical_json(document) == (GOLDEN / "trace_tree.json").read_text()

    @pytest.mark.timeout(60)
    def test_golden_kept_everything_but_span_timing_across_the_server_swap(
        self, document
    ):
        """The golden file was regenerated once, when the scenario moved
        from the threaded server onto ``AsyncPortalServer`` (whose
        ``portal.view_publish`` span takes one span id and two step-clock
        reads).  Span names, nesting, attributes and events had to stay
        exactly the old file's; only ``ref``/``start``/``end``/``duration``
        were allowed to move."""
        assert _digest_without_span_timing(document) == PRE_SWAP_GOLDEN_DIGEST

    @pytest.mark.timeout(120)
    def test_two_seeded_runs_export_identical_bytes(self, document):
        again = run_traced_scenario(seed=0)
        assert canonical_json(again) == canonical_json(document)


# -- fuzz fixture format bump ----------------------------------------------


class TestFixtureTraceKey:
    def test_checked_in_v1_fixtures_still_load(self):
        paths = sorted(FUZZ_FIXTURES.glob("*.json"))
        assert paths, "expected checked-in fuzz fixtures"
        for path in paths:
            fixture = load_fixture(str(path))
            assert fixture.trace is None

    def test_v2_fixture_with_trace_loads(self):
        path = sorted(FUZZ_FIXTURES.glob("*.json"))[0]
        document = json.loads(path.read_text())
        document["format"] = FIXTURE_FORMAT
        document["trace"] = {"name": "chaos.tick", "children": []}
        fixture = Fixture.from_json(document)
        assert fixture.trace == {"name": "chaos.tick", "children": []}

    def test_unknown_format_rejected(self):
        path = sorted(FUZZ_FIXTURES.glob("*.json"))[0]
        document = json.loads(path.read_text())
        document["format"] = "p4p-fuzz-fixture/99"
        with pytest.raises(ValueError, match="unsupported fixture format"):
            Fixture.from_json(document)

    def test_non_dict_trace_rejected(self):
        path = sorted(FUZZ_FIXTURES.glob("*.json"))[0]
        document = json.loads(path.read_text())
        document["format"] = FIXTURE_FORMAT
        document["trace"] = ["not", "a", "tree"]
        with pytest.raises(ValueError, match="trace must be an object"):
            Fixture.from_json(document)

    def test_current_format_is_the_newest_accepted(self):
        assert FIXTURE_FORMAT == FIXTURE_FORMATS[-1]
        assert "p4p-fuzz-fixture/1" in FIXTURE_FORMATS
