"""Socket-level tests for overload control on the portal server.

Admission shedding (inflight budget and loop-lag CoDel), deadline
enforcement, brownout degradation, connection governance, graceful
drain, and close-leak accounting, all against live servers over real
sockets.  The pure state-machine tests and the seeded overload scenario
live in ``tests/test_overload.py``.
"""

import gc
import socket
import threading
import time
import warnings

import pytest

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import uniform_pid_map
from repro.network.library import abilene
from repro.observability import Telemetry
from repro.portal import protocol
from repro.portal.client import (
    PortalBusyError,
    PortalClient,
    PortalDeadlineExceededError,
)
from repro.portal.overload import (
    STATE_DRAINING,
    OverloadConfig,
    DEFAULT_BROWNOUT_METHODS,
)
from repro.portal.aserver import AsyncPortalServer


def make_itracker(
    slow_views: float = 0.0, mode: PriceMode = PriceMode.HOP_COUNT
) -> ITracker:
    topo = abilene()

    class SlowITracker(ITracker):
        def view_vector(self):
            if slow_views:
                time.sleep(slow_views)
            return super().view_vector()

    return SlowITracker(
        topology=topo,
        config=ITrackerConfig(mode=mode),
        pid_map=uniform_pid_map(topo),
    )


def assert_severed(sock):
    """The server end is gone: EOF or a reset, not a read that times out."""
    try:
        assert sock.recv(1) == b""
    except ConnectionError:
        pass
    sock.close()


def raw_request(address, message, sock=None):
    """Send one frame, return (response, socket)."""
    if sock is None:
        sock = socket.create_connection(address, timeout=5.0)
    sock.sendall(protocol.encode_frame(message))
    return protocol.read_frame(sock), sock


@pytest.mark.timeout(30)
class TestAdmission:
    def test_busy_frame_when_the_inflight_budget_is_spent(self):
        """Nothing on the loop may wait for a slot: while one view read
        holds the only slot across its off-loop publication, the next
        arrival is shed at once with a structured busy frame."""
        config = OverloadConfig(enabled=True, inflight_budget=1, retry_after=0.25)
        telemetry = Telemetry()
        with AsyncPortalServer(
            make_itracker(slow_views=0.6),
            workers=1,
            telemetry=telemetry,
            overload=config,
        ) as server:

            def occupy_slot():
                _, sock = raw_request(
                    server.address, {"method": "get_pdistances", "params": {}}
                )
                sock.close()

            occupier = threading.Thread(target=occupy_slot)
            occupier.start()
            deadline = time.monotonic() + 5.0
            while server.overload.admission.inflight < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with PortalClient(*server.address) as client:
                with pytest.raises(PortalBusyError) as excinfo:
                    client.get_version()
            # The structured hint: shed-queue doubles the base hint.
            assert excinfo.value.retry_after == pytest.approx(0.5)
            occupier.join(timeout=5.0)
            assert not occupier.is_alive()
            sheds = telemetry.registry.counter(
                "p4p_portal_admission_total", "", ("outcome",)
            ).labels(outcome="shed_queue")
            assert sheds.value == 1

    def test_loop_lag_engages_codel_shedding(self):
        """Handlers that hold the event loop make it lag; the lag probe
        feeds that to CoDel, and arrivals are shed with busy frames."""
        topo = abilene()

        class SlowLookupITracker(ITracker):
            def lookup_pid(self, ip):
                time.sleep(0.005)  # runs on the loop: holds it
                return super().lookup_pid(ip)

        config = OverloadConfig(
            enabled=True, codel_target=0.01, codel_interval=0.05, retry_after=0.01
        )
        telemetry = Telemetry()
        sheds = telemetry.registry.counter(
            "p4p_portal_admission_total", "", ("outcome",)
        ).labels(outcome="shed_codel")
        busy = []
        stop = threading.Event()
        with AsyncPortalServer(
            SlowLookupITracker(topology=topo, pid_map=uniform_pid_map(topo)),
            workers=1,
            telemetry=telemetry,
            overload=config,
        ) as server:

            def hammer():
                # Closed loop without think time: eight of these keep
                # the loop's queue eight handlers (~40 ms) deep.
                with PortalClient(*server.address) as client:
                    while not stop.is_set():
                        try:
                            client.lookup_pid("10.0.0.9")
                        except PortalBusyError as exc:
                            busy.append(exc)

            clients = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in clients:
                thread.start()
            deadline = time.monotonic() + 10.0
            while sheds.value == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            stop.set()
            for thread in clients:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
        assert sheds.value > 0
        assert busy and all(exc.retry_after is not None for exc in busy)


@pytest.mark.timeout(30)
class TestDeadlines:
    def test_server_abandons_work_past_its_deadline(self):
        telemetry = Telemetry()
        with AsyncPortalServer(
            make_itracker(slow_views=0.4),
            workers=1,
            telemetry=telemetry,
            overload=OverloadConfig(enabled=True),
        ) as server:
            # Nothing is published yet, so this view read first waits
            # ~0.4s for the off-loop publication -- far past its own
            # 50ms budget -- and dispatch must abandon it, not serve it.
            with PortalClient(*server.address, deadline=0.05) as client:
                with pytest.raises(PortalDeadlineExceededError):
                    client.get_pdistances(pids=["NYCM", "CHIN"])
            drops = telemetry.registry.counter(
                "p4p_portal_deadline_exceeded_total", ""
            ).labels()
            assert drops.value == 1

    def test_deadline_met_serves_normally(self):
        with AsyncPortalServer(
            make_itracker(), workers=1, overload=OverloadConfig(enabled=True)
        ) as server:
            with PortalClient(*server.address, deadline=5.0) as client:
                assert client.get_version() >= 0

    def test_frames_without_deadline_never_expire(self):
        config = OverloadConfig(enabled=True, inflight_budget=1)
        with AsyncPortalServer(
            make_itracker(), workers=1, overload=config
        ) as server:
            response, sock = raw_request(
                server.address, {"method": "get_version", "params": {}}
            )
            sock.close()
            assert "result" in response and "deadline_exceeded" not in response


@pytest.mark.timeout(30)
class TestBrownout:
    def _server(self, **itracker_kwargs):
        return AsyncPortalServer(
            make_itracker(**itracker_kwargs),
            workers=1,
            telemetry=Telemetry(),
            overload=OverloadConfig(enabled=True),
        )

    def test_brownout_disables_expensive_methods_with_busy(self):
        with self._server() as server:
            with PortalClient(*server.address) as client:
                client.get_pdistances()  # publish a snapshot to go stale on
                server.force_brownout(True)
                for method in sorted(DEFAULT_BROWNOUT_METHODS):
                    response, sock = raw_request(
                        server.address, {"method": method, "params": {}}
                    )
                    sock.close()
                    assert response.get("busy") is True, method
                    assert response["retry_after"] > 0

    def test_brownout_serves_stale_views_marked_degraded(self):
        with self._server(mode=PriceMode.DYNAMIC) as server:
            with PortalClient(*server.address) as client:
                fresh = client.get_pdistances()
                server.force_brownout(True)
                # Advance the price state: the published snapshot is now
                # stale, and brownout serves it anyway -- no re-aggregation.
                assert server.itracker.observe_loads(
                    {("WASH", "NYCM"): 4000.0}
                )
                response, sock = raw_request(
                    server.address, {"method": "get_pdistances", "params": {}}
                )
                sock.close()
                assert response["degraded"] == "brownout"
                stale = protocol.pdistance_from_wire(response["result"])
                assert stale.pids == fresh.pids
                # Metrics stay served during brownout (operators need
                # them most mid-incident), degradation-marked.
                metrics, sock = raw_request(
                    server.address, {"method": "get_metrics", "params": {}}
                )
                sock.close()
                assert "result" in metrics
                assert metrics["degraded"] == "brownout"
                server.force_brownout(None)

    def test_brownout_exit_restores_fresh_serving(self):
        with self._server() as server:
            with PortalClient(*server.address) as client:
                client.get_pdistances()
                server.force_brownout(True)
                server.force_brownout(False)
                response, sock = raw_request(
                    server.address, {"method": "get_version", "params": {}}
                )
                sock.close()
                assert "degraded" not in response


@pytest.mark.timeout(30)
class TestConnectionGovernance:
    def test_connection_cap_rejects_with_busy_frame(self):
        config = OverloadConfig(enabled=True, max_connections=1, retry_after=0.3)
        telemetry = Telemetry()
        with AsyncPortalServer(
            make_itracker(), workers=1, telemetry=telemetry, overload=config
        ) as server:
            first = socket.create_connection(server.address, timeout=5.0)
            response, _ = raw_request(
                server.address, {"method": "get_version", "params": {}}, sock=first
            )
            assert "result" in response
            # Second connection: one busy frame, then severed.
            second = socket.create_connection(server.address, timeout=5.0)
            rejected = protocol.read_frame(second)
            assert rejected["busy"] is True
            assert protocol.read_frame(second) is None  # EOF
            second.close()
            first.close()
            rejects = telemetry.registry.counter(
                "p4p_portal_connection_rejects_total", "", ("kind",)
            ).labels(kind="cap")
            assert rejects.value == 1

    def test_idle_connections_are_severed(self):
        config = OverloadConfig(enabled=True, idle_timeout=0.2)
        telemetry = Telemetry()
        with AsyncPortalServer(
            make_itracker(), workers=1, telemetry=telemetry, overload=config
        ) as server:
            sock = socket.create_connection(server.address, timeout=5.0)
            # Never send anything: the governor reaps the idle connection.
            assert protocol.read_frame(sock) is None
            sock.close()
            rejects = telemetry.registry.counter(
                "p4p_portal_connection_rejects_total", "", ("kind",)
            ).labels(kind="idle")
            assert rejects.value == 1

    def test_slow_reader_is_severed(self):
        config = OverloadConfig(enabled=True, frame_timeout=0.2)
        telemetry = Telemetry()
        with AsyncPortalServer(
            make_itracker(), workers=1, telemetry=telemetry, overload=config
        ) as server:
            sock = socket.create_connection(server.address, timeout=5.0)
            frame = protocol.encode_frame({"method": "get_version", "params": {}})
            sock.sendall(frame[:3])  # start a frame, then stall (slowloris)
            assert sock.recv(1) == b""  # severed without a response
            sock.close()
            rejects = telemetry.registry.counter(
                "p4p_portal_connection_rejects_total", "", ("kind",)
            ).labels(kind="slow_reader")
            assert rejects.value == 1

    def test_request_budget_recycles_the_connection(self):
        config = OverloadConfig(enabled=True, connection_request_budget=2)
        with AsyncPortalServer(
            make_itracker(), workers=1, overload=config
        ) as server:
            sock = socket.create_connection(server.address, timeout=5.0)
            message = {"method": "get_version", "params": {}}
            sock.sendall(protocol.encode_frame(message) * 3)
            assert "result" in protocol.read_frame(sock)
            assert "result" in protocol.read_frame(sock)
            # The third pipelined request falls past the budget: EOF.
            assert protocol.read_frame(sock) is None
            sock.close()


@pytest.mark.timeout(30)
class TestDrain:
    def test_async_drain_stops_accepting_and_sheds_inflight(self):
        telemetry = Telemetry()
        with AsyncPortalServer(
            make_itracker(),
            workers=1,
            telemetry=telemetry,
            overload=OverloadConfig(enabled=True),
        ) as server:
            established = socket.create_connection(server.address, timeout=5.0)
            # One served request makes the connection *established* at the
            # application layer (a handshake still in the kernel backlog is
            # legitimately reset when the listener closes).
            warm, _ = raw_request(
                server.address,
                {"method": "get_version", "params": {}},
                sock=established,
            )
            assert "result" in warm
            assert server.drain(timeout=2.0) is True
            assert server.overload.state() == STATE_DRAINING
            # New connections are refused: the listeners are closed.
            with pytest.raises(OSError):
                socket.create_connection(server.address, timeout=0.5)
            # Established connections get a busy frame with a reconnect
            # hint spanning the drain bound.
            response, _ = raw_request(
                server.address,
                {"method": "get_version", "params": {}},
                sock=established,
            )
            assert response["busy"] is True
            assert response["retry_after"] >= 0.5
            established.close()
            gauge = telemetry.registry.gauge("p4p_overload_state").labels()
            assert gauge.value == STATE_DRAINING

    def test_drain_works_with_overload_disabled(self):
        # Drain must shed even on servers that never enabled admission
        # control -- the failover path cannot depend on an opt-in flag.
        with AsyncPortalServer(make_itracker(), workers=1) as server:
            established = socket.create_connection(server.address, timeout=5.0)
            warm, _ = raw_request(
                server.address,
                {"method": "get_version", "params": {}},
                sock=established,
            )
            assert "result" in warm
            assert server.drain(timeout=2.0) is True
            response, _ = raw_request(
                server.address,
                {"method": "get_version", "params": {}},
                sock=established,
            )
            assert response["busy"] is True
            established.close()

    def test_drain_refuses_connects_on_every_worker(self):
        """Each worker owns a listener on the shared port and the kernel
        spreads connects across them, so one listener left open would
        take a share of these connects."""
        telemetry = Telemetry()
        before = set(threading.enumerate())
        server = AsyncPortalServer(make_itracker(), workers=4, telemetry=telemetry)
        established = socket.create_connection(server.address, timeout=5.0)
        try:
            # One serving thread per worker and no acceptor beside them.
            assert set(threading.enumerate()) - before == {
                worker.thread for worker in server._workers
            }
            warm, _ = raw_request(
                server.address,
                {"method": "get_version", "params": {}},
                sock=established,
            )
            assert "result" in warm
            assert server.drain(timeout=2.0) is True
            accepted = 0
            for _ in range(32):
                try:
                    socket.create_connection(server.address, timeout=0.5).close()
                    accepted += 1
                except OSError:
                    pass
            assert accepted == 0
            response, _ = raw_request(
                server.address,
                {"method": "get_version", "params": {}},
                sock=established,
            )
            assert response["busy"] is True
        finally:
            established.close()
            server.close()
        leaks = telemetry.registry.counter(
            "p4p_server_close_leaks_total", "", ("kind",)
        )
        assert leaks.labels(kind="worker").value == 0

    def test_close_after_drain_still_severs_established_connections(self):
        server = AsyncPortalServer(make_itracker(), workers=1)
        established = socket.create_connection(server.address, timeout=5.0)
        try:
            warm, _ = raw_request(
                server.address,
                {"method": "get_version", "params": {}},
                sock=established,
            )
            assert "result" in warm
            assert server.drain(timeout=2.0) is True
        finally:
            server.close()
        assert_severed(established)
        assert not server._workers[0].thread.is_alive()


@pytest.mark.timeout(30)
class TestCloseLeakAccounting:
    def test_leaked_worker_is_logged_and_counted(self, caplog):
        telemetry = Telemetry()
        server = AsyncPortalServer(
            make_itracker(), workers=1, telemetry=telemetry
        )
        worker = server._workers[0]
        real_stop = worker.stop
        worker.stop = lambda: None  # the worker never hears the shutdown
        try:
            with caplog.at_level("WARNING", logger="repro.portal.aserver"):
                server.close(join_timeout=0.2)
            leaks = telemetry.registry.counter(
                "p4p_server_close_leaks_total", "", ("kind",)
            ).labels(kind="worker")
            assert leaks.value == 1
            assert any(
                "still alive" in record.message for record in caplog.records
            )
        finally:
            real_stop()
            worker.thread.join(timeout=5.0)

    def test_clean_close_counts_no_leaks(self):
        telemetry = Telemetry()
        server = AsyncPortalServer(
            make_itracker(), workers=2, telemetry=telemetry
        )
        server.close()
        leaks = telemetry.registry.counter(
            "p4p_server_close_leaks_total", "", ("kind",)
        )
        assert leaks.labels(kind="worker").value == 0

    def test_connections_racing_close_are_severed_not_leaked(self, caplog):
        """A connection the listener accepts while ``close()`` is under way
        used to end as a half-built transport (asyncio asserts when its
        Server is already closed) or as a handler cancelled before its
        first step, either way left to the collector -- the ``-X dev``
        "unclosed transport" warning.  Every such peer is severed by
        ``close()`` itself, and nothing is logged or warned about."""
        with warnings.catch_warnings(record=True) as caught, caplog.at_level(
            "ERROR", logger="asyncio"
        ):
            warnings.simplefilter("always")
            for _ in range(15):
                server = AsyncPortalServer(make_itracker(), workers=2)
                socks = [
                    socket.create_connection(server.address, timeout=5.0)
                    for _ in range(6)
                ]
                server.close()
                for sock in socks:
                    assert_severed(sock)
                del server
                gc.collect()
        assert [str(w.message) for w in caught if "unclosed" in str(w.message)] == []
        assert [record.getMessage() for record in caplog.records] == []
