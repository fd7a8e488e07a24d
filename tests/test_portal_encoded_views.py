"""Encode-once full-mesh views on the async serving plane.

An unrestricted ``get_pdistances`` / ``get_alto_costmap`` read is the
same bytes for every caller until the price state's ``(epoch, version)``
moves, so :class:`~repro.portal.aserver.AsyncPortalServer` answers it
with a document memoised -- already encoded -- on the published snapshot
and :func:`~repro.portal.protocol.encode_frame` splices those bytes into
the frame.  Pinned here: the spliced frame is byte-for-byte the frame of
the plain rebuilt document (:func:`tests.conftest.reference_frame` -- a
bare ``PortalDispatcher`` rebuilds per request and is the reference),
each document is built once per generation, racing
first builds cannot tear a frame, the frame size limit still applies, and
the ALTO version tag names the version of the data it labels.  Restricted
reads have their own contract in ``test_portal_restricted_reads.py``.
"""

import gc
import json
import logging
import socket
import sys
import threading

import pytest

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import BandwidthDistanceProduct, MinMaxUtilization
from repro.core.pdistance import uniform_pid_map
from repro.network.generators import US_METROS, synthetic_isp
from repro.network.library import abilene
from repro.observability import NULL_TELEMETRY, Telemetry, flatten_snapshot
from repro.portal import alto, protocol, views
from repro.portal.aserver import AsyncPortalServer
from repro.portal.overload import OverloadConfig
from tests.conftest import reference_frame
from tests.test_portal_conformance import exchange

#: The three memoised documents: (memo name, request message).
DOCUMENTS = (
    ("pdistances", {"method": "get_pdistances", "params": {}}),
    ("costmap-numerical", {"method": "get_alto_costmap", "params": {}}),
    (
        "costmap-ordinal",
        {"method": "get_alto_costmap", "params": {"mode": "ordinal"}},
    ),
)
CONFIGS = {
    "plain": {},
    "perturbed": {"perturbation": 0.05},
    "ranks": {"serve_ranks": True},
}


def make_itracker(provider: str = "abilene", **config) -> ITracker:
    """Abilene, or ``"bdp80"``: an 80-PoP provider under the BDP objective,
    whose link-distance offsets give nearly every pair its own non-zero
    p-distance (Abilene's views are mostly ``0.0``)."""
    if provider == "abilene":
        topo, objective = abilene(), MinMaxUtilization()
    else:
        topo = synthetic_isp(
            name="BDP80", n_pops=80, metros=US_METROS, n_hubs=12,
            as_number=65000, seed=9,
        )
        objective = BandwidthDistanceProduct()
    tracker = ITracker(
        topology=topo,
        config=ITrackerConfig(mode=PriceMode.DYNAMIC, **config),
        objective=objective,
        pid_map=uniform_pid_map(topo),
        telemetry=NULL_TELEMETRY,
    )
    advance(tracker)
    return tracker


def bench_provider() -> ITracker:
    """The benchmark's provider shape: 80 PoPs, default iTracker config."""
    topology = synthetic_isp(
        name="BENCH", n_pops=80, metros=US_METROS, n_hubs=12,
        as_number=65000, seed=9,
    )
    tracker = ITracker(
        topology=topology,
        pid_map=uniform_pid_map(topology),
        telemetry=NULL_TELEMETRY,
    )
    advance(tracker)
    return tracker


def advance(tracker: ITracker) -> None:
    """One deterministic price update (a function of the version only,
    so identically-built trackers stay twins)."""
    links = sorted(tracker.topology.links)
    tracker.observe_loads(
        {
            link: 50.0 + 13.0 * ((tracker.version + offset) % 7)
            for offset, link in enumerate(links)
        },
        now=100.0 * (tracker.version + 1),
    )


def make_async(tracker: ITracker, telemetry=NULL_TELEMETRY, **kwargs):
    kwargs.setdefault("workers", 1)
    return AsyncPortalServer(
        tracker,
        telemetry=telemetry,
        overload=OverloadConfig(enabled=True),
        **kwargs,
    )


def plain_frame(response) -> bytes:
    """The frame as plain ``json.dumps`` of plain dicts would build it."""
    payload = json.dumps(json.loads(json.dumps(response)), separators=(",", ":"))
    return protocol._HEADER.pack(len(payload)) + payload.encode("utf-8")


def read(server, message):
    """``server``'s response to ``message`` as a client decodes it."""
    frame = protocol.encode_frame(server.dispatch(message))
    return json.loads(frame[protocol._HEADER.size :])


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.timeout(60)
class TestByteIdentity:
    def test_the_bdp80_views_are_varied(self):
        view = make_itracker("bdp80").view_snapshot()
        off_diagonal = [
            value for (src, dst), value in view.distances.items() if src != dst
        ]
        assert len(off_diagonal) == 80 * 79
        assert min(off_diagonal) > 0.0
        # Each unordered pair its own value, give or take a few ties.
        assert len(set(off_diagonal)) > 0.45 * len(off_diagonal)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_spliced_frame_equals_the_plain_rebuilt_frame(self, config):
        """Fresh and in brownout, in process and over a socket."""
        self.check_byte_identity("abilene", config)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_spliced_frame_at_scale_with_varied_values(self, config):
        """The same, where a misplaced number cannot hide among zeros."""
        self.check_byte_identity("bdp80", config)

    @staticmethod
    def check_byte_identity(provider, config):
        twin = make_itracker(provider, **CONFIGS[config])
        with make_async(make_itracker(provider, **CONFIGS[config])) as server:
            for brownout in (False, True, False):
                server.force_brownout(brownout)
                for name, message in DOCUMENTS:
                    reference = reference_frame(twin, message)
                    expected = json.loads(reference[4:])
                    assert plain_frame(expected) == reference
                    if brownout:
                        expected["degraded"] = "brownout"
                    response = server.dispatch(message)
                    # The memoised path really is the one under test ...
                    assert type(response["result"]) is bytes
                    # ... and its frame is the plain frame, byte for byte.
                    frame = protocol.encode_frame(response)
                    assert frame == plain_frame(expected), name
                    assert frame == protocol.encode_frame(expected), name
                    request = protocol.encode_frame(message)
                    assert exchange(server.address, [request]) == [frame], name

    def test_envelope_keys_keep_their_order_around_the_splice(self):
        document = {"pids": ["a"], "distances": []}
        for message in (
            {"result": document},
            {"result": document, "degraded": "brownout"},
            {"degraded": "brownout", "result": document, "retry_after": 0.5},
        ):
            spliced = dict(message, result=protocol.encode_json(document))
            assert protocol.encode_frame(spliced) == plain_frame(message)
        # Why a ``bytes`` result can only be an encoded document.
        with pytest.raises(TypeError):
            protocol.encode_json(b"{}")

    def test_oversized_spliced_frame_is_refused(self, monkeypatch):
        with make_async(make_itracker()) as server:
            response = server.dispatch(DOCUMENTS[0][1])
        frame = protocol.encode_frame(response)
        payload_bytes = len(frame) - protocol._HEADER.size
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", payload_bytes)
        assert protocol.encode_frame(response) == frame  # at the limit
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", payload_bytes - 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(response)
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(json.loads(frame[protocol._HEADER.size :]))

    def test_an_unframeable_response_is_an_error_on_a_live_connection(
        self, monkeypatch, caplog
    ):
        """An answer over the frame limit used to kill the connection's
        task ("Task exception was never retrieved") and reach the client
        as a clean EOF, counted nowhere."""
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1000)
        telemetry = Telemetry()
        with caplog.at_level(logging.WARNING), make_async(
            make_itracker(), telemetry=telemetry
        ) as server:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(protocol.encode_frame(DOCUMENTS[0][1]))
                response = protocol.read_frame(sock)
                assert response is not None and set(response) == {"error"}
                assert "exceeds limit of 1000" in response["error"]
                sock.sendall(
                    protocol.encode_frame({"method": "get_version", "params": {}})
                )
                answered = protocol.read_frame(sock)
                assert answered is not None and "result" in answered
        gc.collect()  # an unretrieved task exception is logged when collected
        assert not [r for r in caplog.records if r.name == "asyncio"]
        flat = flatten_snapshot(telemetry.snapshot())
        assert flat[
            'p4p_portal_errors_total{method="get_pdistances",kind="too_large"}'
        ] == 1


def kept_alive(build):
    """``build()`` and how many GC-tracked objects its result keeps
    alive, counted with the collector off."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = build()
        return result, len(gc.get_objects()) - before
    finally:
        gc.enable()


@pytest.mark.timeout(60)
class TestNoPerPairAllocation:
    """A memoised or spliced document is its bytes: building one leaves
    no ``[src, dst, value]`` list or cost-map dict behind."""

    def test_the_full_mesh_documents_keep_fewer_objects_than_pids(self):
        view = bench_provider().view_snapshot()
        layout = views.MeshLayout(view.pids)
        assert len(layout.pids) == 80 and layout.ordered(view)
        layout.encode(view, 1)  # warm
        documents, kept = kept_alive(lambda: layout.encode(view, 1))
        assert [type(document) for document in documents] == [bytes, bytes]
        assert kept < len(layout.pids)

    def test_a_spliced_restricted_read_is_bytes(self):
        tracker = bench_provider()
        publisher = views.ViewPublisher(tracker, NULL_TELEMETRY)
        snapshot = publisher.current()
        every = list(snapshot.full.pids)
        for splice in (publisher.spliced_pdistances, publisher.spliced_costmap):
            splice(snapshot, every)  # encodes every row once
            document, kept = kept_alive(lambda: splice(snapshot, every))
            assert type(document) is bytes
            assert kept < len(every)


@pytest.mark.timeout(60)
class TestBuiltOncePerGeneration:
    def test_k_reads_build_each_document_once_and_a_bump_once_more(
        self, monkeypatch
    ):
        # The full-mesh pdistances and numerical cost map are built
        # together by ``MeshLayout.encode``; the ordinal cost map (ranks)
        # by the reference ``cost_map_document``.
        mesh = count_calls(monkeypatch, views.MeshLayout, "encode")
        to_wire = count_calls(monkeypatch, protocol, "pdistance_to_wire")
        costmap = count_calls(monkeypatch, alto, "cost_map_document")

        def builds():
            return len(mesh), len(to_wire), len(costmap)

        telemetry = Telemetry()
        tracker = make_itracker()

        def encodes():
            flat = flatten_snapshot(telemetry.snapshot())
            return {
                name: flat.get(
                    f'p4p_portal_view_encodes_total{{document="{name}"}}', 0
                )
                for name, _ in DOCUMENTS
            }

        def read_all(k):
            for _ in range(k):
                for _, message in DOCUMENTS:
                    assert "result" in server.dispatch(message)

        with make_async(tracker, telemetry=telemetry) as server:
            read_all(5)
            assert builds() == (1, 0, 1)
            advance(tracker)  # version bump
            read_all(5)
            assert builds() == (2, 0, 2)
            tracker._epoch += 1  # the epoch alone (restore() moves both)
            read_all(5)
            assert builds() == (3, 0, 3)
            assert encodes() == {name: 3 for name, _ in DOCUMENTS}
            # One generation is held: the memo lives on the snapshot.
            assert set(server.publisher.current().documents) == {
                name for name, _ in DOCUMENTS
            }


@pytest.mark.timeout(120)
class TestConcurrentFirstBuild:
    def test_workers_racing_on_a_fresh_version_answer_the_right_bytes(self):
        """Every thread is released at once onto a version nobody has
        encoded yet, across two workers: a duplicated first build is
        fine, a torn or mixed-version frame is not."""
        k = 8
        tracker, twin = make_itracker(), make_itracker()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_async(
                tracker, workers=2, accept_model="dispatcher"
            ) as server:
                for _ in range(4):
                    advance(tracker)
                    advance(twin)
                    for _, message in DOCUMENTS:
                        expected = reference_frame(twin, message)
                        request = protocol.encode_frame(message)
                        barrier = threading.Barrier(k)
                        frames, errors = [], []

                        def worker():
                            try:
                                barrier.wait(timeout=20.0)
                                frames.extend(
                                    exchange(server.address, [request] * 3)
                                )
                            except Exception as exc:  # pragma: no cover
                                errors.append(exc)

                        threads = [
                            threading.Thread(target=worker) for _ in range(k)
                        ]
                        for thread in threads:
                            thread.start()
                        for thread in threads:
                            thread.join(timeout=60.0)
                            assert not thread.is_alive()
                        assert not errors
                        assert len(frames) == 3 * k
                        assert set(frames) == {expected}
        finally:
            sys.setswitchinterval(previous)


@pytest.mark.timeout(30)
class TestAltoVtagNamesTheServedVersion:
    @pytest.mark.parametrize("pids", [None, ["NYCM", "CHIN", "WASH"]])
    def test_stale_costmap_is_tagged_with_its_own_version(self, pids):
        tracker = make_itracker()
        message = {"method": "get_alto_costmap", "params": {"pids": pids}}
        with make_async(tracker) as server:
            published = tracker.version
            fresh = read(server, message)["result"]
            server.force_brownout(True)
            advance(tracker)
            assert tracker.version == published + 1
            stale = read(server, message)
            assert stale["degraded"] == "brownout"
            # The costs are the published (old) version's, and so is the tag.
            assert stale["result"]["cost-map"] == fresh["cost-map"]
            tags = [
                entry["tag"]
                for entry in stale["result"]["meta"]["dependent-vtags"]
            ]
            assert tags == [f"p4p-{published}"]
            # Out of brownout the new version is served under its own tag.
            server.force_brownout(False)
            current = read(server, message)["result"]
            assert current["meta"]["dependent-vtags"][0]["tag"] == (
                f"p4p-{published + 1}"
            )
            assert current["cost-map"] != fresh["cost-map"]
