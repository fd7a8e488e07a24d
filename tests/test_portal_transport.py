"""How the portal server carries requests over a connection.

Socket-level properties of the transport itself, independent of what any
one method answers: a frame's read budget runs from its first byte and is
not renewed by a trickle; a client that pipelines without reading is held
back by flow control and still gets every answer, in order and
byte-equal to the reference dispatcher; a frame held for an off-loop view
publication holds the frames behind it; and one pipelining client cannot
starve the other connections on its worker.
"""

import select
import socket
import time

import pytest

from repro.core.itracker import ITracker
from repro.core.pdistance import uniform_pid_map
from repro.network.generators import US_METROS, synthetic_isp
from repro.network.library import abilene
from repro.observability import Telemetry
from repro.portal import protocol
from repro.portal.aserver import AsyncPortalServer
from repro.portal.overload import OverloadConfig
from tests.conftest import reference_frame

VERSION = {"method": "get_version", "params": {}}
FULL_MESH = {"method": "get_pdistances", "params": {}}


def make_itracker(slow_views: float = 0.0) -> ITracker:
    topo = abilene()

    class SlowITracker(ITracker):
        def view_vector(self):
            time.sleep(slow_views)
            return super().view_vector()

    return SlowITracker(topology=topo, pid_map=uniform_pid_map(topo))


def read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        assert chunk, "server closed the connection mid-frame"
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_raw_frame(sock: socket.socket) -> bytes:
    """One response frame, header included, as the bytes on the wire."""
    header = read_exact(sock, 4)
    return header + read_exact(sock, int.from_bytes(header, "big"))


def requests_served(telemetry: Telemetry, method: str) -> float:
    return telemetry.registry.counter(
        "p4p_portal_requests_total", "", ("method",)
    ).labels(method=method).value


@pytest.mark.timeout(30)
@pytest.mark.parametrize("sent_at_once", [0, 4], ids=["header", "payload"])
def test_trickling_slowloris_is_severed(sent_at_once):
    """One byte every ``frame_timeout / 2`` would finish the frame
    eventually; the budget runs from its first byte, so it never does."""
    frame_timeout = 0.4
    interval = frame_timeout / 2
    telemetry = Telemetry()
    config = OverloadConfig(enabled=True, frame_timeout=frame_timeout)
    with AsyncPortalServer(
        make_itracker(), workers=1, telemetry=telemetry, overload=config
    ) as server:
        frame = protocol.encode_frame(VERSION)
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            started = time.monotonic()
            sock.sendall(frame[: max(sent_at_once, 1)])
            sock.settimeout(interval)
            severed = False
            for offset in range(max(sent_at_once, 1), len(frame)):
                try:
                    assert sock.recv(1) == b""  # no answer, only EOF
                    severed = True
                except socket.timeout:
                    pass
                except ConnectionError:
                    severed = True
                if severed:
                    break
                try:
                    sock.sendall(frame[offset : offset + 1])
                except ConnectionError:
                    severed = True
                    break
            elapsed = time.monotonic() - started
        finally:
            sock.close()
        assert severed, "a trickled frame completed"
        assert frame_timeout * 0.9 <= elapsed < frame_timeout + 4 * interval
        rejects = telemetry.registry.counter(
            "p4p_portal_connection_rejects_total", "", ("kind",)
        ).labels(kind="slow_reader")
        assert rejects.value == 1
    assert requests_served(telemetry, "get_version") == 0


def wide_itracker() -> ITracker:
    """80 PoPs: ~250 KB full-mesh frames, so the kernel's socket buffers
    hold few of them and what the server does past them shows its own
    backpressure."""
    topo = synthetic_isp(
        name="WIDE", n_pops=80, metros=US_METROS, n_hubs=12,
        as_number=65000, seed=9,
    )
    return ITracker(topology=topo, pid_map=uniform_pid_map(topo))


def pipeline_without_reading(server, telemetry, count):
    """A client with a fixed receive window (no autotuning) pipelines
    ``count`` full-mesh reads and reads nothing until the server stops
    answering; returns the socket and how many were answered by then."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
    sock.settimeout(10.0)
    sock.connect(server.address)
    sock.sendall(protocol.encode_frame(FULL_MESH) * count)
    served, deadline = -1.0, time.monotonic() + 10.0
    while time.monotonic() < deadline:
        time.sleep(0.3)
        now = requests_served(telemetry, "get_pdistances")
        if now == served:
            break
        served = now
    return sock, served


@pytest.mark.timeout(30)
def test_idle_budget_restarts_after_every_answer():
    idle_timeout = 0.4
    telemetry = Telemetry()
    config = OverloadConfig(enabled=True, idle_timeout=idle_timeout)
    with AsyncPortalServer(
        make_itracker(), workers=1, telemetry=telemetry, overload=config
    ) as server:
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            for _ in range(3):  # 0.6 of the budget apart: never idle past it
                time.sleep(idle_timeout * 0.6)
                sock.sendall(protocol.encode_frame(VERSION))
                read_raw_frame(sock)
            answered = time.monotonic()
            assert sock.recv(1) == b""
            idle = time.monotonic() - answered
        finally:
            sock.close()
        rejects = telemetry.registry.counter(
            "p4p_portal_connection_rejects_total", "", ("kind",)
        ).labels(kind="idle")
        assert rejects.value == 1
    assert idle_timeout * 0.9 <= idle < idle_timeout + 1.0


@pytest.mark.timeout(30)
def test_a_header_stalled_without_a_frame_budget_is_idle():
    """With no ``frame_timeout`` the idle budget covers a frame's whole
    length prefix: a peer that sends part of a header and stalls still
    gives up its connection slot."""
    idle_timeout = 0.2
    telemetry = Telemetry()
    config = OverloadConfig(enabled=True, idle_timeout=idle_timeout)
    with AsyncPortalServer(
        make_itracker(), workers=1, telemetry=telemetry, overload=config
    ) as server:
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            started = time.monotonic()
            sock.sendall(protocol.encode_frame(VERSION)[:3])
            assert sock.recv(1) == b""
            elapsed = time.monotonic() - started
        finally:
            sock.close()
        rejects = telemetry.registry.counter(
            "p4p_portal_connection_rejects_total", "", ("kind",)
        ).labels(kind="idle")
        assert rejects.value == 1
    assert idle_timeout * 0.9 <= elapsed < idle_timeout + 1.0


@pytest.mark.timeout(60)
def test_a_client_that_does_not_read_is_held_back_then_answered_in_order():
    count = 200
    itracker = wide_itracker()
    expected = reference_frame(itracker, FULL_MESH)
    telemetry = Telemetry()
    with AsyncPortalServer(itracker, workers=1, telemetry=telemetry) as server:
        sock, served = pipeline_without_reading(server, telemetry, count)
        try:
            assert 0 < served < count // 4
            answers = [read_raw_frame(sock) for _ in range(count)]
        finally:
            sock.close()
    assert all(answer == expected for answer in answers)
    assert requests_served(telemetry, "get_pdistances") == count


@pytest.mark.timeout(60)
def test_a_held_back_client_cannot_fill_server_memory():
    """While its answers cannot be written, the server stops reading the
    connection: what the client can still send is bounded by socket
    buffers, not taken into the server's memory."""
    telemetry = Telemetry()
    with AsyncPortalServer(wide_itracker(), workers=1, telemetry=telemetry) as server:
        sock, _ = pipeline_without_reading(server, telemetry, 200)
        try:
            chunk = protocol.encode_frame(VERSION) * 1600  # ~64 KB
            pushed, limit = 0, 48 << 20
            sock.setblocking(False)
            while pushed < limit:
                try:
                    pushed += sock.send(chunk)
                except BlockingIOError:
                    if not select.select([], [sock], [], 1.0)[1]:
                        break  # nothing drained for a second: held back
        finally:
            sock.close()
    assert pushed < limit // 4


@pytest.mark.timeout(30)
@pytest.mark.parametrize("sends", [1, 2], ids=["one-send", "trailing-send"])
def test_frames_behind_an_offloaded_view_read_keep_request_order(sends):
    """``[stale view read, get_version, get_policy]`` in one send, or with
    the last two arriving while the view is being published."""
    itracker = make_itracker(slow_views=0.3)
    telemetry = Telemetry()
    with AsyncPortalServer(itracker, workers=1, telemetry=telemetry) as server:
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.sendall(protocol.encode_frame(FULL_MESH))
            read_raw_frame(sock)  # the first publication
            links = sorted(itracker.topology.links)
            version = itracker.version
            itracker.observe_loads({link: 300.0 for link in links[::2]})
            assert itracker.version > version  # the published view is stale
            messages = [FULL_MESH, VERSION, {"method": "get_policy", "params": {}}]
            frames = [protocol.encode_frame(m) for m in messages]
            if sends == 2:
                sock.sendall(frames.pop(0))
                time.sleep(0.1)
            sock.sendall(b"".join(frames))
            answers = [read_raw_frame(sock) for _ in messages]
        finally:
            sock.close()
        publications = telemetry.registry.counter(
            "p4p_portal_view_publications_total"
        ).value
    assert publications == 2  # the stale read was published off-loop
    assert answers == [reference_frame(itracker, m) for m in messages]


@pytest.mark.timeout(30)
def test_a_pipelining_client_does_not_starve_its_worker():
    """Connection A sends 2,000 requests in one write, then B sends one:
    B is answered while most of A's backlog is still waiting."""
    count = 2000
    telemetry = Telemetry()
    with AsyncPortalServer(make_itracker(), workers=1, telemetry=telemetry) as server:
        a = socket.create_connection(server.address, timeout=10.0)
        b = socket.create_connection(server.address, timeout=10.0)
        try:
            b.sendall(protocol.encode_frame(VERSION))  # B is established ...
            read_raw_frame(b)
            a.sendall(protocol.encode_frame(VERSION) * count)  # ... A floods
            b.sendall(protocol.encode_frame(VERSION))
            read_raw_frame(b)
            served_when_b_answered = requests_served(telemetry, "get_version")
            answers = [read_raw_frame(a) for _ in range(count)]
        finally:
            a.close()
            b.close()
    assert served_when_b_answered < count // 2
    assert len(answers) == count
    assert requests_served(telemetry, "get_version") == count + 2


@pytest.mark.timeout(30)
@pytest.mark.parametrize("tail", [b"", b"\x00\x00"], ids=["clean", "mid-frame"])
def test_half_closed_client_gets_its_answers_then_eof(tail):
    """A client that shuts its sending side after pipelining is answered
    for every complete frame; then the server closes (a frame cut short
    by the EOF is not answered)."""
    with AsyncPortalServer(make_itracker(), workers=1) as server:
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.sendall(protocol.encode_frame(VERSION) * 3 + tail)
            sock.shutdown(socket.SHUT_WR)
            answers = [read_raw_frame(sock) for _ in range(3)]
            assert sock.recv(1) == b""
        finally:
            sock.close()
    assert answers == [reference_frame(server.itracker, VERSION)] * 3
