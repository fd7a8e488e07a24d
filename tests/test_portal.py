"""Tests for the portal wire protocol, server, client, and integrator."""

import socket
import struct
import threading

import pytest

from repro.core.capability import Capability, CapabilityKind
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import uniform_pid_map
from repro.core.policy import TimeOfDayPolicy
from repro.network.library import abilene
from repro.portal import protocol
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import (
    DiscoveryError,
    Integrator,
    PortalClient,
    PortalClientError,
    discover_itracker,
    register_itracker,
)
from tests.conftest import parse_prometheus_text, view_of, view_pairs


@pytest.fixture
def itracker():
    topo = abilene()
    tracker = ITracker(
        topology=topo,
        config=ITrackerConfig(mode=PriceMode.HOP_COUNT),
        pid_map=uniform_pid_map(topo),
    )
    tracker.capabilities.add(Capability(CapabilityKind.CACHE, pid="NYCM", capacity_mbps=500))
    tracker.policy.add_time_of_day(
        TimeOfDayPolicy(link=("WASH", "NYCM"), avoid_windows=((18.0, 23.0),))
    )
    return tracker


@pytest.fixture
def portal(itracker):
    with AsyncPortalServer(itracker) as server:
        yield server


class TestProtocol:
    def test_frame_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"method": "ping", "params": {"x": 1}}
            a.sendall(protocol.encode_frame(message))
            assert protocol.read_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.read_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            frame = protocol.encode_frame({"method": "x"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(protocol.ProtocolError):
                protocol.read_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_pdistance_round_trip(self):
        view = view_of(
            ("A", "B"),
            {("A", "B"): 1.5, ("B", "A"): 2.5, ("A", "A"): 0.0, ("B", "B"): 0.0},
        )
        wire = protocol.pdistance_to_wire(view)
        restored = protocol.pdistance_from_wire(wire)
        assert restored.distance("A", "B") == 1.5
        assert restored.distance("B", "A") == 2.5

    def test_bad_pdistance_document_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.pdistance_from_wire({"pids": ["A"]})


@pytest.mark.timeout(10)
class TestProtocolFramingEdgeCases:
    """Malformed frames raise ProtocolError promptly -- never hang a read."""

    def _pair(self):
        return socket.socketpair()

    def test_truncated_length_prefix(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00")  # 2 of the 4 header bytes
            a.close()
            with pytest.raises(protocol.ProtocolError, match="mid-frame"):
                protocol.read_frame(b)
        finally:
            b.close()

    def test_body_shorter_than_advertised(self):
        a, b = self._pair()
        try:
            body = b'{"method": "ping"}'
            a.sendall(struct.pack(">I", len(body) + 16) + body)
            a.close()
            with pytest.raises(protocol.ProtocolError, match="mid-frame"):
                protocol.read_frame(b)
        finally:
            b.close()

    def test_body_longer_than_advertised_breaks_parse(self):
        # The advertised length wins: the reader takes a prefix of the real
        # body, which no longer parses -- an error, not silent corruption.
        a, b = self._pair()
        try:
            body = b'{"method": "ping", "params": {}}'
            a.sendall(struct.pack(">I", len(body) - 5) + body)
            with pytest.raises(protocol.ProtocolError, match="bad JSON"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_header_rejected_before_reading_body(self):
        a, b = self._pair()
        try:
            # No body is ever sent; the header alone must be enough to fail.
            a.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(protocol.ProtocolError, match="exceeds limit"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_invalid_utf8_body(self):
        a, b = self._pair()
        try:
            body = b"\xff\xfe\xfd\xfc"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(protocol.ProtocolError, match="bad JSON"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_invalid_json_body(self):
        a, b = self._pair()
        try:
            body = b"this is not json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(protocol.ProtocolError, match="bad JSON"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_json_body(self):
        a, b = self._pair()
        try:
            body = b"[1, 2, 3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(protocol.ProtocolError, match="JSON object"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()


class TestPortalEndToEnd:
    def test_get_pdistances(self, portal, itracker):
        host, port = portal.address
        with PortalClient(host, port) as client:
            view = client.get_pdistances()
            local = itracker.get_pdistances()
            assert view.distance("SEAT", "NYCM") == pytest.approx(
                local.distance("SEAT", "NYCM")
            )

    def test_get_pdistances_restricted(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            view = client.get_pdistances(pids=["SEAT", "NYCM"])
            assert set(view.pids) == {"SEAT", "NYCM"}

    def test_view_cached_by_version(self, portal, itracker):
        host, port = portal.address
        with PortalClient(host, port) as client:
            first = client.get_pdistances()
            second = client.get_pdistances()
            assert first is second  # same cached object
            # The identity is (epoch, version): a restored price state can
            # reuse a version number under a new epoch.
            itracker._epoch += 1
            assert client.get_pdistances() is not first

    @pytest.mark.timeout(30)
    def test_view_cache_does_not_outlive_the_portal_process(self):
        """A reconnect may land on a replacement process whose counters
        restart at the same ``(epoch, version)``: what the dead process
        served must not come back as a cache hit."""

        def dynamic_at_version_one(shift):
            topo = abilene()
            tracker = ITracker(
                topology=topo, config=ITrackerConfig(mode=PriceMode.DYNAMIC)
            )
            tracker.observe_loads(
                {
                    link: 50.0 + 13.0 * ((offset + shift) % 7)
                    for offset, link in enumerate(sorted(topo.links))
                },
                now=100.0,
            )
            assert (tracker.epoch, tracker.version) == (0, 1)
            return tracker

        from repro.observability import Telemetry

        telemetry = Telemetry()
        replacement = dynamic_at_version_one(shift=3)
        server = AsyncPortalServer(dynamic_at_version_one(shift=0))
        host, port = server.address
        client = PortalClient(host, port, telemetry=telemetry)
        try:
            dead = client.get_pdistances()
            server.close()
            server = AsyncPortalServer(replacement, host=host, port=port)
            # The old socket is dead: this call reconnects transparently.
            served = client.get_pdistances()
            assert served is not dead
            assert view_pairs(served) == view_pairs(replacement.get_pdistances())
            assert view_pairs(served) != view_pairs(dead)
            cache = telemetry.registry.get("p4p_client_view_cache_total")
            assert cache.labels(outcome="miss").value == 2
            assert cache.labels(outcome="hit").value == 0
        finally:
            client.close()
            server.close()

    def test_partial_views_bypass_version_cache(self, portal):
        """Pins the documented behaviour: ``pids=[...]`` fetches are never
        cached and never disturb the cached full view -- the stale-fallback
        logic in the resilient wrapper depends on this."""
        host, port = portal.address
        with PortalClient(host, port) as client:
            full = client.get_pdistances()
            partial_1 = client.get_pdistances(pids=["SEAT", "NYCM"])
            partial_2 = client.get_pdistances(pids=["SEAT", "NYCM"])
            # Fresh RPC each time: distinct objects, equal content.
            assert partial_1 is not partial_2
            assert view_pairs(partial_1) == view_pairs(partial_2)
            # The full-view cache is untouched by partial fetches.
            assert client.get_pdistances() is full

    def test_get_policy(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            policy = client.get_policy()
            assert policy.links_to_avoid(19.0) == [("WASH", "NYCM")]

    def test_get_capabilities(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            found = client.get_capabilities("anyone", kind="cache")
            assert len(found) == 1
            assert found[0]["pid"] == "NYCM"

    def test_lookup_pid(self, portal, itracker):
        host, port = portal.address
        with PortalClient(host, port) as client:
            pid, as_number = client.lookup_pid("10.0.0.9")
            assert pid == itracker.topology.aggregation_pids[0]

    def test_unknown_method_is_error(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            with pytest.raises(PortalClientError):
                client._call("no_such_method")

    def test_missing_param_is_error(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            with pytest.raises(PortalClientError):
                client._call("lookup_pid")

    def test_unmapped_ip_error_is_actionable(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            with pytest.raises(PortalClientError, match="no PID mapping for"):
                client.lookup_pid("192.168.1.1")

    def test_stray_keyerror_is_named(self, portal):
        """A handler leaking a bare KeyError must not surface as "'SEAT'"."""

        def exploding(params):
            raise KeyError("SEAT")

        portal._do_get_policy = exploding
        response = portal.dispatch({"method": "get_policy", "params": {}})
        assert response["error"] == "unknown key: 'SEAT'"

    def test_multiple_clients_concurrently(self, portal):
        host, port = portal.address
        errors = []

        def worker():
            try:
                with PortalClient(host, port) as client:
                    for _ in range(5):
                        client.get_version()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestPortalTelemetry:
    """The get_metrics interface and the server's instrumented dispatch."""

    def test_get_metrics_json_reflects_served_requests(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            for _ in range(3):
                client.get_version()
            client.get_metrics()
            snapshot = client.get_metrics()
        requests = next(
            m
            for m in snapshot["metrics"]
            if m["name"] == "p4p_portal_requests_total"
        )
        by_method = {
            s["labels"]["method"]: s["value"] for s in requests["samples"]
        }
        assert by_method["get_version"] == 3
        # A scrape counts itself only once finished, so the second scrape
        # sees exactly the first one.
        assert by_method["get_metrics"] == 1
        inflight = next(
            m
            for m in snapshot["metrics"]
            if m["name"] == "p4p_portal_inflight_requests"
        )
        # ...and sees itself as the one request currently in flight.
        assert inflight["samples"][0]["value"] == 1

    def test_get_metrics_prometheus_round_trips_json(self, portal):
        from repro.observability import flatten_snapshot

        host, port = portal.address
        with PortalClient(host, port) as client:
            client.get_version()
            # Scrape twice back-to-back; between the two scrapes exactly the
            # first scrape's own request lands in the registry.
            snapshot = client.get_metrics()
            prom = client.get_metrics(format="prometheus")
        assert prom["content_type"].startswith("text/plain")
        parsed = parse_prometheus_text(prom["text"])
        flat = flatten_snapshot(snapshot)
        # Every series of the JSON snapshot appears in the exposition, and
        # only request-path series may have advanced in between.
        for key, value in flat.items():
            assert key in parsed
            if value != parsed[key]:
                assert key.startswith(
                    ("p4p_portal_requests_total", "p4p_portal_request_latency",
                     "p4p_portal_frame_bytes_total", "p4p_slo_")
                )

    def test_get_metrics_unknown_format_is_error(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            with pytest.raises(PortalClientError, match="unknown metrics format"):
                client.get_metrics(format="xml")

    def test_latency_and_bytes_instruments_populate(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            client.get_pdistances()
            snapshot = client.get_metrics()
        latency = next(
            m
            for m in snapshot["metrics"]
            if m["name"] == "p4p_portal_request_latency_seconds"
        )
        methods = {s["labels"]["method"] for s in latency["samples"]}
        assert "get_pdistances" in methods
        bytes_metric = next(
            m
            for m in snapshot["metrics"]
            if m["name"] == "p4p_portal_frame_bytes_total"
        )
        by_direction = {
            s["labels"]["direction"]: s["value"] for s in bytes_metric["samples"]
        }
        assert by_direction["in"] > 0
        assert by_direction["out"] > by_direction["in"]  # views are big

    def test_unexpected_exception_returns_structured_error(self, portal):
        """Satellite: a buggy handler is logged and counted, the client gets
        an error frame, and the connection survives for the next request."""

        def exploding(params):
            raise RuntimeError("handler bug")

        portal._do_get_policy = exploding
        host, port = portal.address
        with PortalClient(host, port) as client:
            with pytest.raises(
                PortalClientError, match="internal error: RuntimeError: handler bug"
            ):
                client.get_policy()
            # Same connection still serves requests afterwards.
            assert isinstance(client.get_version(), int)
            snapshot = client.get_metrics()
        errors = next(
            m for m in snapshot["metrics"] if m["name"] == "p4p_portal_errors_total"
        )
        internal = [
            s for s in errors["samples"] if s["labels"]["kind"] == "internal"
        ]
        assert internal and internal[0]["value"] == 1
        assert internal[0]["labels"]["method"] == "get_policy"

    def test_unknown_methods_share_one_label(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            for bogus in ("nope_1", "nope_2", "nope_3"):
                with pytest.raises(PortalClientError):
                    client._call(bogus)
            snapshot = client.get_metrics()
        requests = next(
            m
            for m in snapshot["metrics"]
            if m["name"] == "p4p_portal_requests_total"
        )
        by_method = {
            s["labels"]["method"]: s["value"] for s in requests["samples"]
        }
        assert by_method["<unknown>"] == 3
        assert not any(name.startswith("nope") for name in by_method)

    @pytest.mark.timeout(30)
    def test_threaded_hammering_counts_exactly(self, portal):
        """Satellite: concurrent connection handlers share one registry
        without losing updates."""
        host, port = portal.address
        n_threads, n_calls = 6, 25
        errors = []

        def worker():
            try:
                with PortalClient(host, port) as client:
                    for _ in range(n_calls):
                        client.get_version()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        requests = portal.telemetry.registry.get("p4p_portal_requests_total")
        assert requests.labels(method="get_version").value == n_threads * n_calls
        inflight = portal.telemetry.registry.get("p4p_portal_inflight_requests")
        assert inflight.labels().value == 0

    def test_null_telemetry_disables_collection(self, itracker):
        from repro.observability import NULL_TELEMETRY

        itracker.telemetry = NULL_TELEMETRY
        with AsyncPortalServer(itracker, telemetry=NULL_TELEMETRY) as server:
            host, port = server.address
            with PortalClient(host, port) as client:
                client.get_version()
                snapshot = client.get_metrics()
        assert snapshot["metrics"] == []

    def test_client_side_cache_and_latency_instruments(self, portal):
        from repro.observability import Telemetry

        telemetry = Telemetry()
        host, port = portal.address
        with PortalClient(host, port, telemetry=telemetry) as client:
            client.get_pdistances()
            client.get_pdistances()  # version unchanged -> cache hit
        cache = telemetry.registry.get("p4p_client_view_cache_total")
        assert cache.labels(outcome="miss").value == 1
        assert cache.labels(outcome="hit").value == 1
        latency = telemetry.registry.get("p4p_client_call_latency_seconds")
        assert latency.labels(method="get_version").count == 2

    def test_itracker_price_updates_visible_via_get_metrics(self):
        topo = abilene()
        tracker = ITracker(
            topology=topo, config=ITrackerConfig(mode=PriceMode.DYNAMIC)
        )
        with AsyncPortalServer(tracker) as server:
            loads = {key: 100.0 for key in list(topo.links)[:4]}
            for _ in range(3):
                tracker.observe_loads(loads)
            host, port = server.address
            with PortalClient(host, port) as client:
                snapshot = client.get_metrics()
        version = next(
            m for m in snapshot["metrics"] if m["name"] == "p4p_core_price_version"
        )
        assert version["samples"][0]["value"] == 3
        update_spans = [
            span
            for span in snapshot["spans"]
            if span["name"] == "itracker.price_update"
        ]
        assert len(update_spans) == 3
        assert update_spans[-1]["attributes"]["supergradient_norm"] > 0


class TestIntegrator:
    def test_collects_views_per_as(self, itracker):
        with AsyncPortalServer(itracker) as server:
            host, port = server.address
            integrator = Integrator()
            integrator.add(11537, PortalClient(host, port))
            views = integrator.views()
            assert 11537 in views
            integrator.close()

    def test_dead_portal_skipped(self, itracker):
        server = AsyncPortalServer(itracker)
        host, port = server.address
        client = PortalClient(host, port)
        integrator = Integrator()
        integrator.add(1, client)
        server.close()
        client.close()
        assert integrator.views() == {}


class TestDiscovery:
    def test_register_and_discover(self, empty_srv_registry):
        register_itracker("isp-b.example", "127.0.0.1", 4444)
        assert discover_itracker("isp-b.example") == ("127.0.0.1", 4444)

    def test_unknown_domain_raises_discovery_error(self, empty_srv_registry):
        with pytest.raises(DiscoveryError, match="nowhere.example"):
            discover_itracker("nowhere.example")


class TestWireSchemaValidation:
    """METHOD_SCHEMAS doubles as the dispatch request validator; the
    static API001 rule keeps it in parity with the _do_* handlers."""

    def test_every_dispatch_method_has_a_schema(self, itracker):
        with AsyncPortalServer(itracker) as server:
            handlers = {
                name[len("_do_"):]
                for name in dir(server)
                if name.startswith("_do_")
            }
        assert handlers == set(protocol.METHOD_SCHEMAS)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unexpected parameter"):
            protocol.validate_params("get_pdistances", {"pidz": []})

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ValueError, match="ip is required"):
            protocol.validate_params("lookup_pid", {})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="ip"):
            protocol.validate_params("lookup_pid", {"ip": 42})
        with pytest.raises(ValueError, match="pids"):
            protocol.validate_params("get_pdistances", {"pids": "NYCM"})

    def test_valid_and_unknown_methods_pass(self):
        protocol.validate_params("lookup_pid", {"ip": "10.0.0.9"})
        protocol.validate_params("get_pdistances", {"pids": ["NYCM"]})
        # Unknown methods are the dispatcher's problem, not the schema's.
        protocol.validate_params("no_such_method", {"anything": 1})

    def test_server_rejects_unknown_parameter_end_to_end(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            with pytest.raises(PortalClientError, match="unexpected parameter"):
                client._call("get_pdistances", pidz=["NYCM"])

    def test_server_rejects_wrong_type_end_to_end(self, portal):
        host, port = portal.address
        with PortalClient(host, port) as client:
            with pytest.raises(PortalClientError, match="ip"):
                client._call("lookup_pid", ip=42)
