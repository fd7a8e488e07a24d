"""Wire protocol for the P4P portal.

The paper defines the iTracker interfaces in WSDL and serves them over
SOAP; the transport is incidental to the architecture, so this
implementation uses length-prefixed JSON messages -- trivially debuggable
and dependency-free.  A request is a JSON object with a ``method`` and
``params``; a response carries ``result`` or ``error``.

Requests may additionally carry an optional top-level ``trace`` envelope
(:func:`attach_trace`) -- the distributed-tracing context
``{"trace_id", "span_ref", "sampled"}`` defined by
:class:`repro.observability.tracing.TraceContext`.  It rides *beside*
``params``, not inside them, so :data:`METHOD_SCHEMAS` and the API001
lint rule are unaffected; servers that predate tracing ignore it, and a
malformed envelope is ignored rather than rejected (tracing must never
fail a request).

The optional top-level ``deadline`` envelope (:func:`attach_deadline`)
works the same way: a relative budget in seconds, measured by the server
from frame receipt, past which the request is abandoned with a
``deadline_exceeded`` error frame instead of computed-then-discarded.
Old servers ignore it; a malformed budget is ignored rather than
rejected (:func:`deadline_budget` parses tolerantly).

Responses are either ``{"result": ...}`` or ``{"error": ...}``; under
overload the error frame is structured further: :func:`busy_error` adds
``busy: true`` and a ``retry_after`` hint (seconds), and
:func:`deadline_error` adds ``deadline_exceeded: true``.  A server in
brownout marks every response with ``degraded``.  The closed envelope
catalogs (:data:`REQUEST_ENVELOPE_KEYS`, :data:`RESPONSE_ENVELOPE_KEYS`)
are what the conformance suite checks every frame against -- a new
top-level key that is not declared here is a wire-contract bug.

Frame format: 4-byte big-endian payload length, then UTF-8 JSON.  A
``result`` that is ``bytes`` is a document already encoded as compact
JSON (JSON has no bytes type, so nothing else can be), and
:func:`encode_frame` copies it into the frame as it is.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pdistance import PDistanceMap

_HEADER = struct.Struct(">I")

#: Maximum accepted frame size (guards against garbage input).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Every top-level key a request frame may carry.  ``method``/``params``
#: are the RPC itself; ``trace`` and ``deadline`` are optional envelopes
#: old servers ignore.
REQUEST_ENVELOPE_KEYS = frozenset({"method", "params", "trace", "deadline"})

#: Every top-level key a response frame may carry.  ``busy``,
#: ``retry_after``, and ``deadline_exceeded`` qualify an ``error``
#: (overload shed / server-side deadline drop); ``degraded`` marks
#: brownout responses.  The conformance suite pins this catalog.
RESPONSE_ENVELOPE_KEYS = frozenset(
    {"result", "error", "busy", "retry_after", "deadline_exceeded", "degraded"}
)


class ProtocolError(Exception):
    """Malformed frame or message."""


class IdleTimeoutError(ProtocolError):
    """No frame started within the connection's idle timeout."""


class SlowReaderError(ProtocolError):
    """A started frame did not arrive in full within its read budget
    (the slowloris defence: a trickling peer must not pin a worker)."""


# ``json.dumps`` with non-default separators builds a ``JSONEncoder`` per
# call; every frame is compact JSON, so one encoder serves them all.
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode


def encode_json(value: Any) -> bytes:
    """Compact UTF-8 JSON: the byte form of everything put in a frame."""
    return _COMPACT(value).encode("utf-8")


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Header plus compact JSON; :class:`ProtocolError` over the limit."""
    if type(message.get("result")) is not bytes:
        payload = encode_json(message)
        if len(payload) > MAX_FRAME_BYTES:
            raise _too_large(len(payload))
        return _HEADER.pack(len(payload)) + payload
    # Byte-for-byte the frame of the document the result encodes, with
    # those bytes copied once, straight into the frame.
    parts = [b""]  # header slot
    opener = b"{"
    for key, value in message.items():
        encoded = value if type(value) is bytes else encode_json(value)
        parts += (opener, encode_json(key), b":", encoded)
        opener = b","
    parts.append(b"}")
    length = sum(map(len, parts))
    if length > MAX_FRAME_BYTES:
        raise _too_large(length)
    parts[0] = _HEADER.pack(length)
    return b"".join(parts)


def _too_large(length: int) -> ProtocolError:
    return ProtocolError(
        f"frame of {length} bytes exceeds limit of {MAX_FRAME_BYTES}"
    )


def read_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF before a header."""
    framed = read_frame_ex(sock)
    return framed[0] if framed is not None else None


def read_frame_ex(sock: socket.socket) -> Optional[Tuple[Dict[str, Any], int]]:
    """Like :func:`read_frame` but also returns the wire size in bytes
    (header + payload).  Blocks under the caller's own socket timeout:
    this is the client-side reader; the server's governed reader (idle
    and slow-reader budgets) is :func:`aread_frame_ex`.
    """
    header = _read_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise _too_large(length)
    payload = _read_exact(sock, length, allow_eof=False)
    assert payload is not None
    return _decode_payload(payload), _HEADER.size + length


def _decode_payload(payload: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


async def aread_frame_ex(
    reader: Any,
    idle_timeout: Optional[float] = None,
    frame_timeout: Optional[float] = None,
) -> Optional[Tuple[Dict[str, Any], int]]:
    """The server's reader: :func:`read_frame_ex` over a ``StreamReader``,
    plus connection governance.

    Same framing contract: ``None`` on clean EOF before a header,
    :class:`ProtocolError` on a torn frame, an oversized length, or a
    malformed payload (the server severs such connections).
    ``idle_timeout`` bounds the wait for a frame to *start* (raises
    :class:`IdleTimeoutError`); ``frame_timeout`` bounds how long a
    started frame -- first byte seen -- may take to arrive in full,
    header included, so a slowloris peer trickling partial headers is
    severed too (raises :class:`SlowReaderError`).  A timed-out read is
    cancelled, so the connection must be severed afterwards.
    """
    import asyncio

    deadline = None
    head_wanted = _HEADER.size if frame_timeout is None else 1
    try:
        if idle_timeout is None:
            header = await reader.readexactly(head_wanted)
        else:
            header = await asyncio.wait_for(
                reader.readexactly(head_wanted), timeout=idle_timeout
            )
    except asyncio.TimeoutError as exc:
        raise IdleTimeoutError("connection idle past timeout") from exc
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    if frame_timeout is not None:
        # A frame "starts" at its first byte: the idle budget covers the
        # wait for that byte, the frame budget the remaining header plus
        # the payload.
        deadline = time.monotonic() + frame_timeout
        try:
            header += await asyncio.wait_for(
                reader.readexactly(_HEADER.size - 1), timeout=frame_timeout
            )
        except asyncio.TimeoutError as exc:
            raise SlowReaderError("frame read exceeded budget") from exc
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-frame") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise _too_large(length)
    try:
        if deadline is None:
            payload = await reader.readexactly(length)
        else:
            payload = await asyncio.wait_for(
                reader.readexactly(length),
                timeout=max(deadline - time.monotonic(), 0.0),
            )
    except asyncio.TimeoutError as exc:
        raise SlowReaderError("frame read exceeded budget") from exc
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _decode_payload(payload), _HEADER.size + length


def _read_exact(sock: socket.socket, n: int, allow_eof: bool) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- object (de)serialization ---------------------------------------------------


def pdistance_to_wire(view: PDistanceMap) -> Dict[str, Any]:
    return {
        "pids": list(view.pids),
        "distances": [
            [src, dst, value] for (src, dst), value in view.distances.items()
        ],
    }


def pdistance_from_wire(document: Dict[str, Any]) -> PDistanceMap:
    try:
        pids = tuple(document["pids"])
        distances = {
            (src, dst): float(value) for src, dst, value in document["distances"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad p-distance document: {exc}") from exc
    return PDistanceMap(pids=pids, distances=distances)


# -- method schemas -------------------------------------------------------------

#: Wire schema of every dispatchable portal method: parameter name ->
#: ``(required, JSON type)``.  This is the single source of truth the
#: server validates requests against (:func:`validate_params`) and that
#: p4plint's API001 rule checks against ``PortalDispatcher``'s ``_do_*``
#: handlers -- adding a handler without a schema entry (or orphaning an
#: entry) is a lint failure, not a latent bug.
METHOD_SCHEMAS: Dict[str, Dict[str, Tuple[bool, str]]] = {
    "get_pdistances": {"pids": (False, "array of strings")},
    "get_policy": {},
    "get_capabilities": {
        "requester": (True, "string"),
        "kind": (False, "string"),
        "pid": (False, "string"),
        "content_id": (False, "string"),
    },
    "lookup_pid": {"ip": (True, "string")},
    "get_version": {},
    "get_state_delta": {"since": (False, "integer")},
    "get_metrics": {"format": (False, "string")},
    "get_alto_costmap": {
        "mode": (False, "string"),
        "pids": (False, "array of strings"),
    },
    "get_alto_networkmap": {},
}

_JSON_TYPES: Dict[str, tuple] = {
    "string": (str,),
    "array": (list,),
    "array of strings": (list,),  # elements checked in validate_params
    "object": (dict,),
    "number": (int, float),
    "integer": (int,),
    "boolean": (bool,),
}


def validate_params(method: str, params: Dict[str, Any]) -> None:
    """Check ``params`` against :data:`METHOD_SCHEMAS`.

    Raises :class:`ValueError` on an unknown parameter, a missing
    required one, or a type mismatch.  Unknown *methods* pass through --
    dispatch handles those with its own error.  ``None`` is accepted for
    optional parameters (clients send explicit nulls).
    """
    schema = METHOD_SCHEMAS.get(method)
    if schema is None:
        return
    for name in params:
        if name not in schema:
            raise ValueError(f"unexpected parameter {name!r} for {method}")
    for name, (required, type_name) in schema.items():
        value = params.get(name)
        if value is None:
            if required:
                raise ValueError(f"{name} is required")
            continue
        expected = _JSON_TYPES[type_name]
        well_typed = isinstance(value, expected) and (
            bool in expected or not isinstance(value, bool)
        )
        if well_typed and type_name == "array of strings":
            # Handlers hash the elements (PID lookups): anything but a
            # string is the client's error, not a handler crash.
            for element in value:
                if not isinstance(element, str):
                    well_typed = False
                    break
        if not well_typed:
            raise ValueError(
                f"parameter {name!r} for {method} must be {type_name}"
            )


def request(method: str, **params: Any) -> Dict[str, Any]:
    return {"method": method, "params": params}


def attach_trace(message: Dict[str, Any], envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Attach a :class:`~repro.observability.tracing.TraceContext` wire
    document to a request message (top-level ``trace`` key)."""
    message["trace"] = envelope
    return message


def attach_deadline(message: Dict[str, Any], budget: float) -> Dict[str, Any]:
    """Attach a relative deadline budget (seconds) to a request message
    (top-level ``deadline`` key, beside ``trace``).  The server measures
    the budget from frame receipt and abandons work past it."""
    message["deadline"] = float(budget)
    return message


def deadline_budget(message: Dict[str, Any]) -> Optional[float]:
    """The request's deadline budget, or ``None``.

    Tolerant by design (like the trace envelope): a missing, ill-typed,
    non-finite, or non-positive budget is *ignored*, never rejected --
    a deadline must never fail a request that would otherwise serve.
    """
    value = message.get("deadline")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    budget = float(value)
    if not math.isfinite(budget) or budget <= 0:
        return None
    return budget


def ok(result: Any) -> Dict[str, Any]:
    return {"result": result}


def error(message: str) -> Dict[str, Any]:
    return {"error": message}


def busy_error(message: str, retry_after: float) -> Dict[str, Any]:
    """The structured overload-shed frame: an error a client can tell
    apart from a fault (``busy: true``) with a backoff hint in seconds.
    Old clients see an ordinary error response."""
    return {"error": message, "busy": True, "retry_after": float(retry_after)}


def deadline_error(message: str) -> Dict[str, Any]:
    """The server-side deadline-drop frame: the request's budget passed
    before dispatch, so the work was abandoned instead of computed."""
    return {"error": message, "deadline_exceeded": True}
