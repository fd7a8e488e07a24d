"""Closed-loop load generator: one thread, blocking sockets, stdlib only.

Imports nothing from ``repro`` and uses no asyncio, so what it costs per
request does not move with the code under test.  Request frames arrive
pre-encoded; responses land in one reusable buffer per connection.  With
one request in flight on each of two connections the single-worker
server always has the next request queued while the generator handles a
response.
"""

import socket
import time

RESULT_PREFIX = b'{"result"'
_HEADER = 4
#: A hung server must fail the run, not hang it.
SOCKET_TIMEOUT = 60.0


class Connection:
    """One blocking client socket and its receive buffer."""

    def __init__(self, address):
        self.address = address
        self.sock = None
        self.buffer = bytearray(1 << 20)
        self.view = memoryview(self.buffer)

    def open(self):
        self.sock = socket.create_connection(self.address, timeout=SOCKET_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def reopen(self):
        self.close()
        self.open()

    def send(self, frame):
        self.sock.sendall(frame)

    def recv_frame(self):
        """Read one frame into the buffer; returns its size with header."""
        sock = self.sock
        view = self.view
        got = sock.recv_into(view)
        while got < _HEADER:
            got += self._more(sock.recv_into(view[got:]))
        total = _HEADER + int.from_bytes(view[:_HEADER], "big")
        if total > len(view):
            grown = bytearray(total)
            grown[:got] = view[:got]
            self.buffer = grown
            self.view = view = memoryview(grown)
        while got < total:
            got += self._more(sock.recv_into(view[got:total]))
        return total

    @staticmethod
    def _more(count):
        if count == 0:
            raise ConnectionError("server closed the connection mid-response")
        return count


def well_formed(view, total):
    """The cheap check every response gets: a ``{"result"`` frame."""
    return (
        total > _HEADER + len(RESULT_PREFIX)
        and view[_HEADER : _HEADER + len(RESULT_PREFIX)] == RESULT_PREFIX
    )


def drive(conns, frames, check, latencies, sizes, base=0):
    """Send ``frames`` in order, one in flight per connection.

    Connection ``c`` carries frames ``c, c+k, c+2k, ...``.  Writes each
    request's latency (send to last response byte, seconds) and response
    size into ``latencies``/``sizes`` and returns how many responses
    ``check(base + index, view, total)`` rejected.
    """
    clock = time.perf_counter
    n = len(frames)
    k = len(conns)
    slot = [-1] * k
    sent_at = [0.0] * k
    failed = 0
    following = 0
    for c in range(min(k, n)):
        sent_at[c] = clock()
        conns[c].send(frames[following])
        slot[c] = following
        following += 1
    outstanding = following
    c = 0
    while outstanding:
        while slot[c] < 0:
            c = (c + 1) % k
        conn = conns[c]
        index = slot[c]
        total = conn.recv_frame()
        now = clock()
        latencies[index] = now - sent_at[c]
        sizes[index] = total
        if following < n:
            # Next request out before the response is inspected: the
            # server works while the generator checks.
            sent_at[c] = now
            conn.send(frames[following])
            slot[c] = following
            following += 1
        else:
            slot[c] = -1
            outstanding -= 1
        if not check(base + index, conn.view, total):
            failed += 1
        c = (c + 1) % k
    return failed


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]
