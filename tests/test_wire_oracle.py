"""Wire oracle: the two frame readers agree on every byte string.

Two readers parse the portal's framing: the blocking
:func:`~repro.portal.protocol.read_frame` / ``read_frame_ex`` (clients and
``FaultyPortal``) and the server's :func:`~repro.portal.protocol.
aread_frame_ex` over a ``StreamReader``.  They share the header struct,
the size limit and the payload decoder but not the read loop, so this is a
differential test: the same bytes -- well-formed frames, and frames with
a short, zero or oversized length header, a truncated payload, invalid
UTF-8, non-object JSON, trailing bytes -- go down a ``socketpair`` and
into a fed ``StreamReader``, and both must produce the same sequence of
``(message, wire size)`` results ending in the same way (clean EOF or
``ProtocolError``).  Every message either reader accepts is then handed
to a real :class:`~repro.portal.dispatch.PortalDispatcher`, malformed
``trace`` / ``deadline`` envelopes included: dispatch must answer with a
well-formed response frame, never raise, never hit its internal-error
net.

Deterministic: hypothesis runs derandomized with no example database.
"""

import asyncio
import json
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.itracker import ITracker
from repro.core.pdistance import uniform_pid_map
from repro.network.library import abilene
from repro.observability import Telemetry
from repro.portal import protocol
from repro.portal.dispatch import PortalDispatcher

MAX_FRAMES = 8  # per byte string; generated strings hold at most three

EOF, ERROR = ("eof",), ("error",)


def read_sync(wire: bytes):
    near, far = socket.socketpair()
    try:
        far.settimeout(5.0)
        near.sendall(wire)
        near.shutdown(socket.SHUT_WR)
        outcomes = []
        for _ in range(MAX_FRAMES):
            try:
                framed = protocol.read_frame_ex(far)
            except protocol.ProtocolError:
                outcomes.append(ERROR)
                break
            if framed is None:
                outcomes.append(EOF)
                break
            outcomes.append(framed)
        return outcomes
    finally:
        near.close()
        far.close()


def read_async(loop, wire: bytes):
    async def read_all():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        outcomes = []
        for _ in range(MAX_FRAMES):
            try:
                framed = await protocol.aread_frame_ex(reader)
            except protocol.ProtocolError:
                outcomes.append(ERROR)
                break
            if framed is None:
                outcomes.append(EOF)
                break
            outcomes.append(framed)
        return outcomes

    return loop.run_until_complete(read_all())


@pytest.fixture(scope="module")
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.fixture(scope="module")
def dispatcher():
    topo = abilene()
    telemetry = Telemetry()  # real bundle: trace envelopes are parsed
    return PortalDispatcher(
        ITracker(topology=topo, pid_map=uniform_pid_map(topo)), telemetry=telemetry
    )


def check_agreement(loop, dispatcher, wire: bytes):
    sync_outcomes = read_sync(wire)
    assert sync_outcomes == read_async(loop, wire)
    for outcome in sync_outcomes:
        if outcome in (EOF, ERROR):
            continue
        message, size = outcome
        assert isinstance(message, dict) and 4 <= size <= len(wire)
        # Frame receipt "now": a positive finite deadline is enforced
        # for real, anything else must be ignored.
        response = dispatcher.dispatch(
            message, received_at=dispatcher.telemetry.clock()
        )
        assert set(response) <= protocol.RESPONSE_ENVELOPE_KEYS
        assert ("result" in response) != ("error" in response)
        assert "internal error" not in str(response.get("error", ""))
        protocol.encode_frame(response)
    return sync_outcomes


def frame(payload: bytes, length=None) -> bytes:
    return struct.pack(">I", len(payload) if length is None else length) + payload


# -- the named mutation classes, each pinned to its outcome ------------------

VERSION = json.dumps({"method": "get_version", "params": {}}).encode()
VERSION_FRAME = (json.loads(VERSION), 4 + len(VERSION))

NAMED = {
    "empty": (b"", [EOF]),
    "well-formed": (frame(VERSION), [VERSION_FRAME, EOF]),
    "short-header": (frame(VERSION)[:3], [ERROR]),
    "zero-length": (frame(b""), [ERROR]),
    "oversized-length": (
        frame(VERSION, length=protocol.MAX_FRAME_BYTES + 1),
        [ERROR],
    ),
    "at-the-limit-but-truncated": (
        frame(VERSION, length=protocol.MAX_FRAME_BYTES),
        [ERROR],
    ),
    "truncated-payload": (frame(VERSION)[:-1], [ERROR]),
    "length-shorter-than-payload": (frame(VERSION, length=len(VERSION) - 1), [ERROR]),
    "invalid-utf8": (frame(b'{"method":"\xff\xfe"}'), [ERROR]),
    "invalid-json": (frame(b'{"method":'), [ERROR]),
    "non-object-json": (frame(b'["get_version"]'), [ERROR]),
    "json-null": (frame(b"null"), [ERROR]),
    "trailing-bytes": (frame(VERSION) + b"\x00\x00", [VERSION_FRAME, ERROR]),
    "trailing-frame": (frame(VERSION) * 2, [VERSION_FRAME, VERSION_FRAME, EOF]),
}


@pytest.mark.timeout(30)
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_mutation(name, loop, dispatcher):
    wire, expected = NAMED[name]
    assert check_agreement(loop, dispatcher, wire) == expected


MALFORMED_ENVELOPES = (
    42, "x", None, True, [], {}, [1.5], -1, 0, 1e308, float("inf"), float("nan"),
    {"trace_id": "t"}, {"trace_id": "", "span_ref": "a:1"},
    {"trace_id": 7, "span_ref": ["a", 1], "sampled": "yes"},
    {"trace_id": "t", "span_ref": "client:1", "sampled": True},
)


@pytest.mark.timeout(30)
@pytest.mark.parametrize("key", ["trace", "deadline"])
def test_malformed_envelopes_reach_dispatch_and_are_survived(key, loop, dispatcher):
    for value in MALFORMED_ENVELOPES:
        message = {"method": "get_version", "params": {}, key: value}
        (decoded, _), end = check_agreement(
            loop, dispatcher, frame(json.dumps(message).encode())
        )
        assert end == EOF and key in decoded


# -- generated byte strings ---------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
methods = st.sampled_from(sorted(protocol.METHOD_SCHEMAS) + ["", "no_such_method"]) | json_values
params = (
    st.fixed_dictionaries(
        {},
        optional={
            "pids": st.lists(st.sampled_from(["NYCM", "CHIN", "WASH", "nope"]), max_size=4)
            | json_values,
            "ip": st.sampled_from(["10.0.0.1", "256.1.2.3", ""]) | json_values,
            "requester": st.text(max_size=4) | json_values,
            "kind": st.sampled_from(["cache", "bogus"]) | json_values,
            "since": st.integers(-2, 5) | json_values,
            "format": st.sampled_from(["json", "prometheus", "yaml"]) | json_values,
            "mode": st.sampled_from(["numerical", "ordinal", "bogus"]) | json_values,
        },
    )
    | json_values
)
messages = st.fixed_dictionaries(
    {},
    optional={
        "method": methods,
        "params": params,
        "trace": json_values
        | st.fixed_dictionaries(
            {},
            optional={
                "trace_id": st.text(max_size=6) | json_values,
                "span_ref": st.text(max_size=6) | json_values,
                "sampled": st.booleans() | json_values,
            },
        ),
        "deadline": json_values,
        "extra": json_values,
    },
)
encoded_messages = messages.map(lambda m: json.dumps(m).encode("utf-8"))
payloads = (
    encoded_messages
    | encoded_messages
    | json_values.map(lambda v: json.dumps(v).encode("utf-8"))
    | st.binary(max_size=32)
)


@st.composite
def frames(draw):
    """Half the frames are left well-formed (so dispatch sees the odd
    messages); the rest get one framing fault each."""
    payload = draw(payloads)
    fault = draw(st.sampled_from(["none"] * 4 + ["bytes", "length", "limit", "torn"]))
    length = len(payload)
    if fault == "bytes":
        cut = draw(st.integers(0, len(payload)))
        payload = payload[:cut] + draw(st.binary(min_size=1, max_size=3)) + payload[cut:]
        length = len(payload)
    elif fault == "length":
        length = draw(st.integers(0, len(payload) + 8))
    elif fault == "limit":
        length = draw(
            st.sampled_from(
                [0, protocol.MAX_FRAME_BYTES, protocol.MAX_FRAME_BYTES + 1, 2**32 - 1]
            )
        )
    wire = frame(payload, length)
    if fault == "torn":  # anywhere, header included
        wire = wire[: draw(st.integers(0, len(wire)))]
    return wire


wires = st.tuples(
    st.lists(frames(), min_size=1, max_size=3), st.binary(max_size=4)
).map(lambda parts: b"".join(parts[0]) + parts[1])


@pytest.mark.timeout(300)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wire=wires)
def test_readers_agree_and_dispatch_survives_on_generated_bytes(wire, loop, dispatcher):
    check_agreement(loop, dispatcher, wire)
