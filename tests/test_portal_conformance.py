"""Protocol conformance: the server's wire behaviour is the reference's.

:class:`~repro.portal.aserver.AsyncPortalServer` receives request frames over raw sockets; every response frame must
match, byte for byte, what the in-process reference answers for an
identically-constructed iTracker (:func:`tests.conftest.reference_frame`:
a bare, transport-free :class:`~repro.portal.dispatch.PortalDispatcher`
recomputing each view from the iTracker, plain-dict result, plain
``encode_frame``).  A response is a pure function of the request and the
iTracker state -- never of the transport, the worker a connection lands
on, or the view cache.  (The reference used to be a second, threaded socket server; its
per-frame work was exactly this call, and its socket bytes were checked
equal to it on every request below before it was deleted.)

Covered: every method in :data:`~repro.portal.protocol.METHOD_SCHEMAS`
(full and restricted views, empty and unknown PID subsets), the error-
frame contract (unknown methods, schema violations, non-object params,
unknown keys), malformed trace envelopes, ``get_state_delta``
replication tailing across identical price-update sequences, and the
overload envelopes (``deadline`` requests byte-invisible when they do
not fire; ``busy`` shed frames identical to the reference's and inside
the declared response-key catalog).

Trace-envelope *propagation* (which needs real telemetry, whose metrics
document is inherently run-dependent) is checked separately: the server
must parent a ``portal.dispatch`` span under the caller's envelope and
record the same span topology.
"""

import json
import socket

import pytest

from repro.core.capability import Capability, CapabilityKind
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import uniform_pid_map
from repro.core.policy import TimeOfDayPolicy
from repro.network.library import abilene
from repro.observability import NULL_TELEMETRY, Telemetry
from repro.portal import protocol
from repro.portal.aserver import AsyncPortalServer
from repro.portal.dispatch import PortalDispatcher
from tests.conftest import reference_frame

#: The one server under test; a parameter only so test ids keep naming it.
SERVER_KINDS = ("async-reuseport",)


def make_itracker(with_pid_map: bool = True) -> ITracker:
    """A deterministic iTracker with content behind every method."""
    topo = abilene()
    tracker = ITracker(
        topology=topo,
        config=ITrackerConfig(mode=PriceMode.DYNAMIC),
        pid_map=uniform_pid_map(topo) if with_pid_map else None,
        telemetry=NULL_TELEMETRY,
    )
    tracker.capabilities.add(
        Capability(CapabilityKind.CACHE, pid="NYCM", capacity_mbps=500)
    )
    tracker.policy.add_time_of_day(
        TimeOfDayPolicy(link=("WASH", "NYCM"), avoid_windows=((18.0, 23.0),))
    )
    advance(tracker, rounds=3)
    return tracker


def advance(tracker: ITracker, rounds: int, start: float = 0.0) -> None:
    """Apply a deterministic load sequence (same on every replica)."""
    links = sorted(tracker.topology.links)
    for round_index in range(rounds):
        loads = {
            link: 50.0 + 13.0 * ((round_index + offset) % 7)
            for offset, link in enumerate(links)
        }
        tracker.observe_loads(loads, now=start + 100.0 * (round_index + 1))


def make_server(tracker: ITracker, telemetry=NULL_TELEMETRY):
    return AsyncPortalServer(tracker, workers=2, telemetry=telemetry)


def reference_frames(tracker: ITracker, frames):
    """What the in-process reference answers to each request frame."""
    return [
        reference_frame(tracker, json.loads(frame[4:])) for frame in frames
    ]


def exchange(address, frames):
    """Send pre-encoded request frames, return the raw response frames."""
    responses = []
    with socket.create_connection(address, timeout=10.0) as sock:
        for frame in frames:
            sock.sendall(frame)
        for _ in frames:
            header = _read_exact(sock, 4)
            (length,) = protocol._HEADER.unpack(header)
            responses.append(header + _read_exact(sock, length))
    return responses


def _read_exact(sock, n):
    chunks = b""
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise AssertionError("server closed mid-response")
        chunks += chunk
    return chunks


def conformance_requests(pids):
    """One frame per wire behaviour worth pinning."""
    some = list(pids[:4])
    unknown = ["NO-SUCH-PID"]
    messages = [
        # every schema method, happy path
        {"method": "get_pdistances", "params": {}},
        {"method": "get_pdistances", "params": {"pids": some}},
        {"method": "get_pdistances", "params": {"pids": []}},
        {"method": "get_pdistances", "params": {"pids": unknown + some}},
        {"method": "get_pdistances", "params": {"pids": None}},
        {"method": "get_policy", "params": {}},
        {
            "method": "get_capabilities",
            "params": {"requester": "apptracker-1"},
        },
        {
            "method": "get_capabilities",
            "params": {"requester": "apptracker-1", "kind": "cache"},
        },
        {"method": "lookup_pid", "params": {"ip": "10.0.0.1"}},
        {"method": "get_version", "params": {}},
        {"method": "get_state_delta", "params": {}},
        {"method": "get_state_delta", "params": {"since": 1}},
        {"method": "get_state_delta", "params": {"since": 999}},
        {"method": "get_metrics", "params": {}},
        {"method": "get_metrics", "params": {"format": "json"}},
        {"method": "get_alto_costmap", "params": {}},
        {"method": "get_alto_costmap", "params": {"mode": "ordinal"}},
        {"method": "get_alto_costmap", "params": {"pids": some}},
        {"method": "get_alto_networkmap", "params": {}},
        # error frames: unknown method, schema violations, bad shapes
        {"method": "does_not_exist", "params": {}},
        {"method": "get_pdistances", "params": {"bogus": 1}},
        {"method": "get_pdistances", "params": {"pids": "not-an-array"}},
        {"method": "get_capabilities", "params": {}},
        {"method": "get_capabilities", "params": {"requester": ""}},
        {"method": "lookup_pid", "params": {"ip": "256.1.2.3"}},
        {"method": "lookup_pid", "params": {}},
        {"method": "get_metrics", "params": {"format": "yaml"}},
        {"method": "get_state_delta", "params": {"since": "0"}},
        {"method": "get_version", "params": "not-an-object"},
        {"method": None, "params": {}},
        {"params": {}},
        {"method": "get_capabilities", "params": {"requester": "r", "kind": "bogus"}},
        # malformed trace envelopes ride along and must be ignored
        {"method": "get_version", "params": {}, "trace": 42},
        {"method": "get_version", "params": {}, "trace": {"bogus": True}},
        {
            "method": "get_version",
            "params": {},
            "trace": {"trace_id": "t", "span_ref": 1, "sampled": "yes"},
        },
    ]
    return [protocol.encode_frame(message) for message in messages]


@pytest.mark.timeout(60)
class TestByteIdenticalResponses:
    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_all_methods_match_threaded_server(self, kind):
        """Name kept from when the reference was the threaded server;
        it is now the in-process dispatcher (module docstring)."""
        pids = tuple(make_itracker().get_pdistances().pids)
        frames = conformance_requests(pids)
        expected = reference_frames(make_itracker(), frames)
        with make_server(make_itracker()) as candidate:
            actual = exchange(candidate.address, frames)
        assert len(expected) == len(actual)
        for index, (want, got) in enumerate(zip(expected, actual)):
            assert want == got, (
                f"response {index} differs on {kind}: "
                f"{want[4:]!r} != {got[4:]!r}"
            )

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_no_pid_map_errors_match(self, kind):
        frames = [
            protocol.encode_frame(
                {"method": "lookup_pid", "params": {"ip": "10.0.0.1"}}
            ),
            protocol.encode_frame({"method": "get_alto_networkmap", "params": {}}),
        ]
        expected = reference_frames(make_itracker(with_pid_map=False), frames)
        with make_server(make_itracker(with_pid_map=False)) as candidate:
            actual = exchange(candidate.address, frames)
        assert expected == actual

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_state_delta_tails_identically_as_state_advances(self, kind):
        """Replication tailing: after every price update the server and
        the reference serve the same delta documents for every ``since``
        cursor."""
        reference_tracker = make_itracker()
        candidate_tracker = make_itracker()
        with make_server(candidate_tracker) as candidate:
            for step in range(3):
                advance(reference_tracker, rounds=1, start=1000.0 * (step + 1))
                advance(candidate_tracker, rounds=1, start=1000.0 * (step + 1))
                frames = [
                    protocol.encode_frame(
                        {"method": "get_state_delta", "params": {"since": since}}
                    )
                    for since in (-1, 0, step, 100)
                ] + [
                    protocol.encode_frame({"method": "get_pdistances", "params": {}}),
                    protocol.encode_frame({"method": "get_version", "params": {}}),
                ]
                expected = reference_frames(reference_tracker, frames)
                actual = exchange(candidate.address, frames)
                assert expected == actual, f"divergence after update {step}"


@pytest.mark.timeout(60)
class TestOverloadEnvelopeConformance:
    """The overload additions never perturb the legacy wire contract.

    A ``deadline`` envelope that does not fire must be byte-invisible:
    the response to a stamped request is identical to the bare request's
    response.  Ill-typed deadline values are
    tolerated exactly like malformed trace envelopes.  Busy frames (the
    structured shed response) are part of the conformance surface too:
    identical to the reference's and confined to the declared response
    envelope catalog.
    """

    DEADLINE_VARIANTS = (60.0, "soon", -1, 0, True, None, [1.5])

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_deadline_envelope_is_byte_invisible(self, kind):
        bare = protocol.encode_frame({"method": "get_version", "params": {}})
        stamped = [
            protocol.encode_frame(
                {"method": "get_version", "params": {}, "deadline": value}
            )
            for value in self.DEADLINE_VARIANTS
        ]
        expected = reference_frames(make_itracker(), [bare] + stamped)
        with make_server(make_itracker()) as candidate:
            actual = exchange(candidate.address, [bare] + stamped)
        assert expected == actual
        # The deadline key is consumed server-side, never echoed: every
        # stamped response matches the bare response byte for byte.
        for index, frame in enumerate(expected[1:]):
            assert frame == expected[0], (
                f"deadline variant {self.DEADLINE_VARIANTS[index]!r} "
                f"changed the response bytes"
            )

    def test_attach_deadline_round_trips_through_the_budget_parser(self):
        message = protocol.attach_deadline(
            {"method": "get_version", "params": {}}, 1.5
        )
        assert set(message) <= protocol.REQUEST_ENVELOPE_KEYS
        assert protocol.deadline_budget(message) == 1.5

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_every_response_stays_inside_the_envelope_catalog(self, kind):
        pids = tuple(make_itracker().get_pdistances().pids)
        frames = conformance_requests(pids)
        with make_server(make_itracker()) as server:
            responses = exchange(server.address, frames)
        for raw in responses:
            keys = set(json.loads(raw[4:]))
            assert keys <= protocol.RESPONSE_ENVELOPE_KEYS, keys

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_busy_frames_match_across_transports(self, kind):
        """A forced brownout sheds the expensive methods with the exact
        busy frame the reference dispatcher produces -- the shed path is
        part of the conformance surface, not an implementation detail."""
        frames = [
            protocol.encode_frame({"method": "get_alto_networkmap", "params": {}}),
            protocol.encode_frame({"method": "get_state_delta", "params": {}}),
        ]
        reference = PortalDispatcher(make_itracker(), telemetry=NULL_TELEMETRY)
        reference.force_brownout(True)
        expected = [
            protocol.encode_frame(reference.dispatch(json.loads(frame[4:])))
            for frame in frames
        ]
        with make_server(make_itracker()) as candidate:
            candidate.force_brownout(True)
            actual = exchange(candidate.address, frames)
        assert expected == actual
        for raw in expected:
            response = json.loads(raw[4:])
            assert response["busy"] is True
            assert response["retry_after"] > 0
            assert set(response) <= protocol.RESPONSE_ENVELOPE_KEYS


@pytest.mark.timeout(60)
class TestTracePropagation:
    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_envelope_parents_dispatch_span(self, kind):
        telemetry = Telemetry()
        envelope = {"trace_id": "trace-abc", "span_ref": "client:7", "sampled": True}
        frame = protocol.encode_frame(
            protocol.attach_trace(
                {"method": "get_version", "params": {}}, dict(envelope)
            )
        )
        with make_server(make_itracker(), telemetry=telemetry) as server:
            (raw,) = exchange(server.address, [frame])
        response = json.loads(raw[4:])
        assert "result" in response
        spans = [
            span
            for span in telemetry.traces.to_wire()
            if span["name"] == "portal.dispatch"
        ]
        assert len(spans) == 1
        span = spans[0]
        assert span["trace_id"] == "trace-abc"
        # the remote parent lives in the caller's buffer; it is recorded
        # as an attribute, not a local parent_id
        assert span["parent_id"] is None
        assert span["attributes"]["remote_parent"] == "client:7"
        assert span["attributes"]["method"] == "get_version"
        # the handler ran inside the dispatch span
        children = [
            other
            for other in telemetry.traces.to_wire()
            if other["name"] == "itracker.handle"
            and other["trace_id"] == "trace-abc"
        ]
        assert len(children) == 1

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_untraced_request_records_no_span(self, kind):
        telemetry = Telemetry()
        frame = protocol.encode_frame({"method": "get_version", "params": {}})
        with make_server(make_itracker(), telemetry=telemetry) as server:
            (raw,) = exchange(server.address, [frame])
        assert "result" in json.loads(raw[4:])
        assert not [
            span
            for span in telemetry.traces.to_wire()
            if span["name"] == "portal.dispatch"
        ]
