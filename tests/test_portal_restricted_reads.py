"""Restricted view reads on the serving plane: spliced from rows encoded
once per generation, byte-identical to the in-process reference.

A restricted ``get_pdistances`` / numerical ``get_alto_costmap`` on
:class:`~repro.portal.aserver.AsyncPortalServer` is assembled from the
published snapshot's per-source rows of cells -- the already-encoded
bytes of each entry -- whenever the iTracker serves raw values; a view
the iTracker degrades (perturbation, ranks) and an ordinal cost map
depend on the restricted set as a whole and are rebuilt per request.
Pinned here: either way the frame is the reference's frame, byte for
byte (:func:`tests.conftest.reference_frame`: a bare ``PortalDispatcher``
rebuilding per request -- what the threaded server the test names still
mention used to do); a source row is encoded by the first read of a
generation that touches it and never again; degraded configurations and
unrestricted traffic build no cell; racing first touches cannot tear a
frame; and PID lists with non-string elements are the client's error.
"""

import json
import logging
import sys
import threading

import pytest

from repro.observability import Telemetry, flatten_snapshot
from repro.portal import protocol
from tests.conftest import reference_frame
from tests.test_portal_conformance import exchange
from tests.test_portal_encoded_views import (
    CONFIGS,
    advance,
    bench_provider,
    make_async,
    make_itracker,
    plain_frame,
)

ABILENE = ("ATLA", "CHIN", "DNVR", "HSTN", "IPLS", "KSCY", "LOSA", "NYCM")
#: PID lists worth pinning: out of view order, duplicated, partly and
#: wholly unknown, empty, single, and (filled in per tracker) every PID.
PID_LISTS = (
    ["NYCM", "CHIN", "WASH"],
    ["WASH", "CHIN", "WASH", "NYCM", "CHIN"],
    ["NO-SUCH-PID", "SEAT", "ATLA"],
    ["NO-SUCH-PID"],
    [],
    ["DNVR"],
)


def restricted_messages(tracker):
    every = list(tracker.topology.aggregation_pids)
    messages = []
    for pids in PID_LISTS + (every, every[::-1]):
        messages.append({"method": "get_pdistances", "params": {"pids": pids}})
        for mode in ("numerical", "ordinal"):
            messages.append(
                {
                    "method": "get_alto_costmap",
                    "params": {"mode": mode, "pids": pids},
                }
            )
        messages.append({"method": "get_alto_costmap", "params": {"pids": pids}})
    return messages


def is_spliced(config, message):
    """Whether the async server answers ``message`` from cells."""
    return config == "plain" and message["params"].get("mode") != "ordinal"


def row_encodes(telemetry):
    flat = flatten_snapshot(telemetry.snapshot())
    return flat.get('p4p_portal_view_encodes_total{document="row"}', 0)


def cells_of(server):
    return server.publisher.current().cells


@pytest.mark.timeout(120)
class TestByteIdentity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_restricted_frame_equals_the_threaded_servers(self, config):
        """Fresh, in brownout and fresh again; in process and over a
        socket; every PID-list shape, both cost-map modes."""
        tracker, twin = make_itracker(**CONFIGS[config]), make_itracker(
            **CONFIGS[config]
        )
        with make_async(tracker) as server:
            for brownout in (False, True, False):
                server.force_brownout(brownout)
                for message in restricted_messages(tracker):
                    reference = reference_frame(twin, message)
                    expected = json.loads(reference[4:])
                    assert plain_frame(expected) == reference
                    if brownout:
                        expected["degraded"] = "brownout"
                    response = server.dispatch(message)
                    spliced = type(response["result"]) is bytes
                    assert spliced == is_spliced(config, message), message
                    # Its frame is the plain frame, byte for byte.
                    frame = protocol.encode_frame(response)
                    assert frame == plain_frame(expected), message
                    assert frame == protocol.encode_frame(expected), message
                    request = protocol.encode_frame(message)
                    assert exchange(server.address, [request]) == [frame], message
                if brownout:  # "fresh again" is a new generation of cells
                    advance(tracker)
                    advance(twin)

    def test_an_80_pid_provider_restricted_to_all_of_it(self):
        """The benchmark's provider shape: 80 PoPs, the whole mesh asked
        for by name (6,400 cells) and a few-PID swarm footprint."""
        tracker = bench_provider()
        every = list(tracker.topology.aggregation_pids)
        assert len(every) == 80
        twin = bench_provider()
        with make_async(tracker) as server:
            for pids in (every, every[7:2:-1] + every[60:62], every[:1]):
                for method in ("get_pdistances", "get_alto_costmap"):
                    message = {"method": method, "params": {"pids": pids}}
                    response = server.dispatch(message)
                    assert type(response["result"]) is bytes
                    frame = reference_frame(twin, message)
                    assert protocol.encode_frame(response) == frame
                    assert exchange(
                        server.address, [protocol.encode_frame(message)]
                    ) == [frame]
            assert len(cells_of(server)) == 80


@pytest.mark.timeout(60)
class TestRowsEncodedOncePerGeneration:
    def test_a_touched_row_is_encoded_once_and_a_bump_once_more(self):
        telemetry = Telemetry()
        tracker = make_itracker()
        footprint = ["NYCM", "CHIN", "WASH"]
        messages = [
            {"method": "get_pdistances", "params": {"pids": footprint}},
            {"method": "get_alto_costmap", "params": {"pids": footprint[:2]}},
            {"method": "get_pdistances", "params": {"pids": footprint[1:]}},
        ]

        def read_all(k):
            for _ in range(k):
                for message in messages:
                    assert "result" in server.dispatch(message)

        with make_async(tracker, telemetry=telemetry) as server:
            read_all(5)
            assert row_encodes(telemetry) == 3
            assert set(cells_of(server)) == set(footprint)
            # A row holds one cell per destination, whoever asked first.
            assert all(len(row) == 11 for row in cells_of(server).values())
            server.dispatch(
                {"method": "get_pdistances", "params": {"pids": ["SEAT", "NYCM"]}}
            )
            assert row_encodes(telemetry) == 4  # SEAT only
            advance(tracker)  # version bump: the cells left with the snapshot
            read_all(5)
            assert row_encodes(telemetry) == 4 + 3
            assert set(cells_of(server)) == set(footprint)
            tracker._epoch += 1  # the epoch alone (restore() moves both)
            read_all(5)
            assert row_encodes(telemetry) == 4 + 3 + 3

    @pytest.mark.parametrize("config", ["perturbed", "ranks"])
    def test_degraded_configs_never_create_a_cell(self, config):
        telemetry = Telemetry()
        tracker = make_itracker(**CONFIGS[config])
        with make_async(tracker, telemetry=telemetry) as server:
            for brownout in (False, True):
                server.force_brownout(brownout)
                for message in restricted_messages(tracker):
                    response = server.dispatch(message)
                    assert type(response["result"]) is dict
            assert cells_of(server) == {}
            assert row_encodes(telemetry) == 0

    def test_ordinal_cost_maps_never_create_a_cell(self):
        tracker = make_itracker()
        message = {
            "method": "get_alto_costmap",
            "params": {"mode": "ordinal", "pids": ["NYCM", "CHIN", "WASH"]},
        }
        with make_async(tracker) as server:
            assert type(server.dispatch(message)["result"]) is dict
            assert cells_of(server) == {}

    def test_unrestricted_traffic_with_updates_builds_no_cell(self):
        """``portal-fullmesh-updates``' shape: full-mesh reads of both
        documents, a price update every few requests."""
        telemetry = Telemetry()
        tracker = make_itracker()
        with make_async(tracker, telemetry=telemetry) as server:
            for _ in range(4):
                for _ in range(5):
                    for method in ("get_pdistances", "get_alto_costmap"):
                        message = {"method": method, "params": {}}
                        assert "result" in server.dispatch(message)
                assert cells_of(server) == {}
                advance(tracker)
            assert row_encodes(telemetry) == 0


@pytest.mark.timeout(120)
class TestConcurrentFirstTouch:
    def test_workers_racing_on_fresh_rows_answer_the_right_bytes(self):
        """Every thread is released at once onto a version whose rows
        nobody has encoded yet, across two workers: a row encoded twice
        is fine, a torn or mixed-version frame is not."""
        k = 8
        tracker, twin = make_itracker(), make_itracker()
        messages = [
            {"method": "get_pdistances", "params": {"pids": list(ABILENE)}},
            {"method": "get_alto_costmap", "params": {"pids": list(ABILENE[2:])}},
        ]
        requests = [protocol.encode_frame(message) for message in messages] * 2
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_async(tracker, workers=2) as server:
                for _ in range(4):
                    advance(tracker)
                    advance(twin)
                    expected = [
                        reference_frame(twin, message) for message in messages
                    ] * 2
                    barrier = threading.Barrier(k)
                    wrong, errors = [], []

                    def worker():
                        try:
                            barrier.wait(timeout=20.0)
                            frames = exchange(server.address, requests)
                            if frames != expected:
                                wrong.append(frames)
                        except Exception as exc:  # pragma: no cover
                            errors.append(exc)

                    threads = [threading.Thread(target=worker) for _ in range(k)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60.0)
                        assert not thread.is_alive()
                    assert not errors
                    assert not wrong
        finally:
            sys.setswitchinterval(previous)


@pytest.mark.timeout(30)
class TestNonStringPidsAreARequestError:
    """``{"pids": [["CHIN"]]}`` used to pass validation ("array"), die in
    ``set(pids)`` and be answered -- and logged, counted and charged to
    the availability SLO -- as an internal error."""

    BAD_LISTS = ([["CHIN"]], [{"a": 1}], ["CHIN", 7], [None], [True])

    @pytest.mark.parametrize("kind", ["async"])
    def test_rejected_before_the_handler_on_both_transports(self, kind, caplog):
        """In process and over the socket (``both`` once meant two servers)."""
        telemetry = Telemetry()
        tracker = make_itracker()
        server = make_async(tracker, telemetry=telemetry)
        called = []
        with server, caplog.at_level(logging.ERROR):
            for method in ("get_pdistances", "get_alto_costmap"):
                handler = getattr(server, f"_do_{method}")
                setattr(
                    server,
                    f"_do_{method}",
                    lambda params, handler=handler: called.append(params)
                    or handler(params),
                )
                for pids in self.BAD_LISTS:
                    message = {"method": method, "params": {"pids": pids}}
                    expected = protocol.encode_frame(
                        protocol.error(
                            f"parameter 'pids' for {method} must be array of strings"
                        )
                    )
                    assert protocol.encode_frame(server.dispatch(message)) == expected
                    assert exchange(
                        server.address, [protocol.encode_frame(message)]
                    ) == [expected]
                # A well-formed list still reaches the handler.
                good = {"method": method, "params": {"pids": ["CHIN"]}}
                assert "result" in server.dispatch(good)
        assert len(called) == 2
        assert not caplog.records  # nothing logged, no stack trace
        flat = flatten_snapshot(telemetry.snapshot())
        for method in ("get_pdistances", "get_alto_costmap"):
            errors = f'p4p_portal_errors_total{{method="{method}",kind="request"}}'
            assert flat[errors] == 2 * len(self.BAD_LISTS)
            internal = f'p4p_portal_errors_total{{method="{method}",kind="internal"}}'
            assert flat.get(internal, 0) == 0
