"""Stress and adversarial-transport tests for the portal server.

Concurrency (many clients, pipelined frames on one connection), torn and
oversized and garbage frames, mid-request disconnects -- and the serving
plane's request-coalescing contract: k identical concurrent
``get_pdistances`` must cost exactly one view computation and produce k
correct replies.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.core.itracker import ITracker
from repro.core.pdistance import uniform_pid_map
from repro.network.library import abilene
from repro.observability import NULL_TELEMETRY
from repro.portal import protocol
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import PortalClient

#: The one server under test; a parameter only so test ids keep naming it.
SERVER_KINDS = ("async-reuseport",)


def make_itracker() -> ITracker:
    topo = abilene()
    tracker = ITracker(
        topology=topo, pid_map=uniform_pid_map(topo), telemetry=NULL_TELEMETRY
    )
    links = sorted(topo.links)
    tracker.observe_loads(
        {link: 40.0 + 7.0 * index for index, link in enumerate(links)}, now=100.0
    )
    return tracker


def make_server(tracker: ITracker, **kwargs):
    kwargs.setdefault("workers", 2)
    return AsyncPortalServer(tracker, telemetry=NULL_TELEMETRY, **kwargs)


@pytest.fixture(params=SERVER_KINDS)
def server(request):
    with make_server(make_itracker()) as portal:
        yield portal


@pytest.mark.timeout(60)
class TestConcurrency:
    def test_many_concurrent_clients(self, server):
        n_clients, n_requests = 16, 8
        errors = []
        versions = []
        lock = threading.Lock()

        def worker():
            try:
                with PortalClient(*server.address) as client:
                    for _ in range(n_requests):
                        version = client.get_version()
                        view = client.get_pdistances(pids=["NYCM", "CHIN"])
                        with lock:
                            versions.append(version)
                            assert set(view.pids) == {"NYCM", "CHIN"}
            except Exception as exc:  # pragma: no cover - failure path
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(versions) == n_clients * n_requests
        assert set(versions) == {1}

    def test_pipelined_requests_answered_in_order(self, server):
        """A client may write many frames before reading: responses come
        back FIFO on that connection."""
        messages = [
            {"method": "get_version", "params": {}},
            {"method": "get_pdistances", "params": {"pids": ["NYCM"]}},
            {"method": "no_such_method", "params": {}},
            {"method": "get_policy", "params": {}},
            {"method": "get_version", "params": {}},
        ] * 10
        with socket.create_connection(server.address, timeout=10.0) as sock:
            for message in messages:
                sock.sendall(protocol.encode_frame(message))
            responses = [protocol.read_frame(sock) for _ in messages]
        for message, response in zip(messages, responses):
            if message["method"] == "no_such_method":
                assert "error" in response
            else:
                assert "result" in response
        # order: every 5th starting at 0 is a version response
        for index in range(0, len(messages), 5):
            assert responses[index]["result"]["version"] == 1


@pytest.mark.timeout(60)
class TestTornInput:
    def test_mid_request_disconnect_leaves_server_serving(self, server):
        # half a header
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"\x00\x00")
        # a header promising bytes that never arrive
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", 512) + b'{"method":')
        # a clean request still works afterwards
        with PortalClient(*server.address) as client:
            assert client.get_version() == 1

    def test_oversized_frame_severs_connection(self, server):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            sock.settimeout(10.0)
            assert sock.recv(1) == b""  # server hung up, no response
        with PortalClient(*server.address) as client:
            assert client.get_version() == 1

    def test_garbage_payload_severs_connection(self, server):
        payload = b"\xff\xfenot json"
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            sock.settimeout(10.0)
            assert sock.recv(1) == b""
        with PortalClient(*server.address) as client:
            assert client.get_version() == 1

    def test_non_object_payload_severs_connection(self, server):
        payload = json.dumps([1, 2, 3]).encode()
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            sock.settimeout(10.0)
            assert sock.recv(1) == b""
        with PortalClient(*server.address) as client:
            assert client.get_version() == 1


@pytest.mark.timeout(60)
class TestCoalescing:
    @pytest.mark.parametrize("kind", ["reuseport"])  # keeps the test id
    def test_identical_concurrent_view_requests_compute_once(self, kind):
        """k concurrent ``get_pdistances`` against a stale snapshot: one
        slow view computation, k byte-identical correct replies."""
        tracker = make_itracker()
        computations = []
        real_vector = tracker.view_vector

        def slow_vector():
            computations.append(threading.get_ident())
            time.sleep(0.4)  # wide window: every request arrives mid-compute
            return real_vector()

        tracker.view_vector = slow_vector  # instance attr shadows method
        k = 8
        results = []
        errors = []
        lock = threading.Lock()
        barrier = threading.Barrier(k)

        def worker():
            try:
                barrier.wait(timeout=10)
                with socket.create_connection(server.address, timeout=15.0) as sock:
                    sock.sendall(
                        protocol.encode_frame(
                            {"method": "get_pdistances", "params": {}}
                        )
                    )
                    response = protocol.read_frame(sock)
                with lock:
                    results.append(response)
            except Exception as exc:  # pragma: no cover - failure path
                with lock:
                    errors.append(exc)

        with make_server(tracker, workers=1) as server:
            threads = [threading.Thread(target=worker) for _ in range(k)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)

        assert not errors
        assert len(results) == k
        assert len(computations) == 1, (
            f"{len(computations)} view computations for {k} identical "
            f"concurrent requests; coalescing must collapse them to one"
        )
        # every reply is correct and identical
        tracker.view_vector = real_vector
        expected = protocol.pdistance_to_wire(tracker.get_pdistances())
        for response in results:
            assert response == {"result": expected}

    def test_publication_reused_across_requests(self):
        """After the first request computes the snapshot, later requests
        (same version) must not recompute."""
        tracker = make_itracker()
        computations = []
        real_vector = tracker.view_vector

        def counting_vector():
            computations.append(1)
            return real_vector()

        tracker.view_vector = counting_vector
        with make_server(tracker, workers=1) as server:
            with PortalClient(*server.address) as client:
                first = client.get_pdistances(pids=["NYCM", "CHIN"])
                second = client.get_pdistances(pids=["WASH"])
                third = client.get_pdistances()
        assert len(computations) == 1
        assert set(first.pids) == {"NYCM", "CHIN"}
        assert set(second.pids) == {"WASH"}
        assert len(third.pids) == len(tracker.topology.nodes)
