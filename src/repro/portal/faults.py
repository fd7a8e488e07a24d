"""Fault injection for the portal wire layer.

:class:`FaultyPortal` is a TCP proxy that sits between a portal client and
a real :class:`~repro.portal.aserver.AsyncPortalServer` and injects faults
per-request on a deterministic schedule: connection refusal, mid-frame
resets, added latency, corrupted or truncated JSON frames, error
responses, and *byzantine* p-distance payloads (negative distances,
missing PID rows, wildly churning values).  It drives both the unit tests
and the simulator's chaos harness (:mod:`repro.simulator.chaos`).

The schedule is indexed by request ordinal, so a test that performs a
known sequence of RPCs sees exactly the faults it scripted -- no timing
races, no randomness unless the caller adds it.
"""

from __future__ import annotations

import enum
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.portal import protocol

#: Mutator applied to a ``get_pdistances`` wire result for byzantine faults.
ResultMutator = Callable[[Dict[str, Any]], Dict[str, Any]]


class FaultKind(enum.Enum):
    """What to do to one proxied request."""

    PASS = "pass"  # forward untouched
    RESET_MID_FRAME = "reset-mid-frame"  # partial response frame, then close
    DELAY = "delay"  # sleep before forwarding
    CORRUPT_FRAME = "corrupt-frame"  # well-framed garbage (invalid JSON)
    TRUNCATE_FRAME = "truncate-frame"  # header longer than the body, close
    ERROR_RESPONSE = "error-response"  # protocol-level error message
    BYZANTINE = "byzantine"  # mutate the upstream result


@dataclass(frozen=True)
class Fault:
    kind: FaultKind = FaultKind.PASS
    delay: float = 0.0
    message: str = "injected error"
    mutate: Optional[ResultMutator] = None


PASS = Fault(FaultKind.PASS)


class FaultSchedule:
    """Deterministic per-request fault plan.

    ``script[i]`` applies to the i-th request (0-based) seen by the proxy
    across all connections; requests beyond the script get ``default``.
    Thread-safe: portal connections are served concurrently.
    """

    def __init__(
        self,
        script: Optional[Dict[int, Fault]] = None,
        default: Fault = PASS,
    ) -> None:
        self.script = dict(script or {})
        self.default = default
        self._counter = 0
        self._lock = threading.Lock()

    def next_fault(self) -> Fault:
        with self._lock:
            index = self._counter
            self._counter += 1
        return self.script.get(index, self.default)


# -- byzantine payload mutators -------------------------------------------------


def negate_distances(result: Dict[str, Any]) -> Dict[str, Any]:
    """Flip every p-distance negative (rejected by the map type itself)."""
    return {
        "pids": result["pids"],
        "distances": [[s, d, -abs(v) - 1.0] for s, d, v in result["distances"]],
    }


def drop_rows(result: Dict[str, Any]) -> Dict[str, Any]:
    """Remove every row originating at the first PID (missing-row fault)."""
    victim = result["pids"][0]
    return {
        "pids": result["pids"],
        "distances": [
            [s, d, v] for s, d, v in result["distances"] if s != victim
        ],
    }


def churn_values(factor: float) -> ResultMutator:
    """Scale every positive distance by ``factor`` (churn-bound fault)."""

    def mutate(result: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pids": result["pids"],
            "distances": [
                [s, d, v * factor if v > 0 else v]
                for s, d, v in result["distances"]
            ],
        }

    return mutate


# -- the proxy ------------------------------------------------------------------


class FaultyPortal:
    """Fault-injecting TCP proxy in front of a portal server.

    While :attr:`down` is True the proxy accepts and immediately closes
    connections (indistinguishable from a crashed portal to the client);
    per-request faults follow :attr:`schedule` otherwise.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        schedule: Optional[FaultSchedule] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = upstream
        self.schedule = schedule or FaultSchedule()
        self.down = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self._closing = False
        self._thread = threading.Thread(
            target=self._accept_clients, name="faulty-portal", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()

    def close(self) -> None:
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "FaultyPortal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _accept_clients(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            if self.down:
                conn.close()
                continue
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        upstream: Optional[socket.socket] = None
        try:
            upstream = socket.create_connection(self.upstream, timeout=5.0)
            while True:
                message = protocol.read_frame(conn)
                if message is None:
                    return
                if self.down:
                    return  # mid-session outage: drop the connection
                fault = self.schedule.next_fault()
                if not self._apply(conn, upstream, message, fault):
                    return
        except (OSError, protocol.ProtocolError):
            return
        finally:
            conn.close()
            if upstream is not None:
                upstream.close()

    def _apply(
        self,
        conn: socket.socket,
        upstream: socket.socket,
        message: Dict[str, Any],
        fault: Fault,
    ) -> bool:
        """Handle one request under ``fault``; False closes the connection."""
        kind = fault.kind
        if kind is FaultKind.RESET_MID_FRAME:
            # Header advertises a payload, body stops short, socket closes:
            # the client sees "connection closed mid-frame".
            conn.sendall(struct.pack(">I", 64) + b'{"result": ')
            return False
        if kind is FaultKind.ERROR_RESPONSE:
            conn.sendall(protocol.encode_frame(protocol.error(fault.message)))
            return True
        if kind is FaultKind.CORRUPT_FRAME:
            body = b"\xffnot json at all\xfe"
            conn.sendall(struct.pack(">I", len(body)) + body)
            return False
        if kind is FaultKind.TRUNCATE_FRAME:
            body = b'{"result": {}}'
            conn.sendall(struct.pack(">I", len(body) + 32) + body)
            return False
        if kind is FaultKind.DELAY and fault.delay > 0:
            time.sleep(fault.delay)
        # PASS / DELAY / BYZANTINE all need the upstream answer.
        upstream.sendall(protocol.encode_frame(message))
        response = protocol.read_frame(upstream)
        if response is None:
            return False
        if (
            kind is FaultKind.BYZANTINE
            and fault.mutate is not None
            and isinstance(response.get("result"), dict)
            and "distances" in response["result"]
        ):
            # Only p-distance documents are mutated; version/policy replies
            # pass through so a schedule-wide byzantine default stays usable.
            response = protocol.ok(fault.mutate(response["result"]))
        conn.sendall(protocol.encode_frame(response))
        return True
