"""Wire oracle: every frame reader agrees on every byte string.

Three readers parse the portal's framing: the blocking
:func:`~repro.portal.protocol.read_frame` / ``read_frame_ex`` (clients and
``FaultyPortal``), :func:`~repro.portal.protocol.aread_frame_ex` over a
``StreamReader`` (the load generator), and the server's buffered
:class:`~repro.portal.protocol.FrameSplitter`, which is handed whatever
each read delivered.  They share the header struct, the size limit and
the payload decoder but not the read loop, so this is a differential
test: the same bytes -- well-formed frames, and frames with a short, zero
or oversized length header, a truncated payload, invalid UTF-8,
non-object JSON, trailing bytes -- go down a ``socketpair``, into a fed
``StreamReader``, and into the splitter three ways (all at once, one byte
per read, and cut at chosen points), and all must produce the same
sequence of ``(message, wire size)`` results ending in the same way
(clean EOF, or ``ProtocolError`` with the same message).  Every message the readers accept is
then handed to a real :class:`~repro.portal.dispatch.PortalDispatcher`,
malformed ``trace`` / ``deadline`` envelopes included: dispatch must
answer with a well-formed response frame, never raise, never hit its
internal-error net.

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


def failed(exc: protocol.ProtocolError):
    """How a read ended in error: the readers must agree on why, too."""
    return ("error", str(exc))


#: The readers' verdict on a stream that ends inside a frame.
CUT_SHORT = ("error", "connection closed mid-frame")


def verdicts(outcomes):
    """``outcomes`` with every error reduced to :data:`ERROR`."""
    return [ERROR if outcome[0] == "error" else outcome for outcome in outcomes]


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
            except protocol.ProtocolError as exc:
                outcomes.append(failed(exc))
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
            except protocol.ProtocolError as exc:
                outcomes.append(failed(exc))
                break
            if framed is None:
                outcomes.append(EOF)
                break
            outcomes.append(framed)
        return outcomes

    return loop.run_until_complete(read_all())


def read_split(wire: bytes, cuts=()):
    """The server's splitter, fed ``wire`` as the reads cut at ``cuts``
    (ascending offsets) would deliver it."""
    splitter = protocol.FrameSplitter()
    bounds = [0, *cuts, len(wire)]
    outcomes = []
    for start, stop in zip(bounds, bounds[1:]):
        splitter.feed(wire[start:stop])
        while len(outcomes) < MAX_FRAMES:
            try:
                framed = splitter.next_frame()
            except protocol.ProtocolError as exc:
                return outcomes + [failed(exc)]
            if framed is None:
                break
            outcomes.append(framed)
    if len(outcomes) < MAX_FRAMES:
        # Bytes left at EOF are a frame the peer cut short.
        outcomes.append(CUT_SHORT if len(splitter) else EOF)
    return outcomes


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


def check_agreement(loop, dispatcher, wire: bytes, *cut_sets):
    """All readers agree on ``wire``; the splitter is also fed it in one
    read, one byte per read, and cut at each of ``cut_sets``."""
    sync_outcomes = read_sync(wire)
    assert sync_outcomes == read_async(loop, wire)
    assert sync_outcomes == read_split(wire)
    assert sync_outcomes == read_split(wire, range(1, len(wire)))
    for cuts in cut_sets:
        if cuts:
            assert sync_outcomes == read_split(wire, cuts)
    sync_outcomes = verdicts(sync_outcomes)
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
    # Reads that end mid-header, and mid-payload.
    cut_sets = [cut for cut in ([2], [2, 6], [9]) if cut[-1] < len(wire)]
    assert check_agreement(loop, dispatcher, wire, *cut_sets) == expected


def split_points(wire: bytes):
    return st.sets(st.integers(1, max(1, len(wire) - 1)), max_size=6).map(
        lambda cuts: sorted(cut for cut in cuts if cut < len(wire))
    )


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


@st.composite
def cut_wires(draw):
    """A generated byte string and the points where reads split it."""
    wire = draw(wires)
    return wire, draw(split_points(wire))


@pytest.mark.timeout(300)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cut_wire=cut_wires())
def test_readers_agree_and_dispatch_survives_on_generated_bytes(
    cut_wire, loop, dispatcher
):
    wire, cuts = cut_wire
    check_agreement(loop, dispatcher, wire, cuts)
