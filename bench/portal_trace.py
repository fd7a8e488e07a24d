"""The traced pass of the portal workloads, run inside the portal child.

Replays a prefix of the measured schedule in-process -- no event loop, no
TCP -- with one span around every call from here into a serving layer.
What the socket pass spends per request beyond these stages is the
transport's share (``portal.aserver.transport_us``), computed by the
parent.

Stages inside ``dispatch`` cannot be reached from outside, so each is
called again with the same arguments right after the dispatch it belongs
to and recorded as that dispatch span's child; dispatch self time is the
dispatch span minus those replays.
"""

import socket
import statistics
import time

from repro.observability import NULL_TELEMETRY
from repro.portal import alto, protocol
from repro.portal.aserver import AsyncPortalServer

import fixture
import procs
import schedules
from spans import NullRecorder, Recorder

#: Span name -> reported metric (µs per replayed request unless noted).
REQUEST_STAGES = {
    "portal.protocol.decode": "portal.protocol.decode_us",
    "portal.protocol.validate": "portal.protocol.validate_us",
    "portal.overload.admit": "portal.overload.admit_us",
    "portal.views.restricted": "portal.views.restricted_us",
    "portal.protocol.to_wire": "portal.protocol.to_wire_us",
    "portal.alto.costmap": "portal.alto.costmap_us",
    "portal.protocol.encode": "portal.protocol.encode_us",
}
#: Per update, in ms.
UPDATE_STAGES = {
    "core.itracker.price_update": "core.itracker.price_update_ms",
    "portal.views.publish": "portal.views.publish_ms",
    "core.pdistance.external_view": "core.pdistance.external_view_ms",
}


def _admit(governor):
    # Admission as the server's own request path applies it: the gate is
    # closed while the governor is disabled, so this should cost ~nothing.
    if governor.enabled or governor.draining:
        governor.admit(may_queue=False)
        governor.release()


def _apply_update(server, null_server, entries, rec, op):
    """One price update, applied once to each server as in the socket
    pass -- not once per traced/untraced side, which would time the two
    sides of ``trace.overhead_share`` on different price states."""
    itracker = server.itracker
    loads = fixture.loads_from_wire(entries)
    root = rec.open("update", op)
    rec.call("core.itracker.price_update", op, root, itracker.observe_loads, loads)
    rec.call("portal.views.publish", op, root, server.publisher.current)
    rec.call("core.pdistance.external_view", op, root, itracker.view_snapshot)
    rec.close(root)
    null_server.itracker.observe_loads(loads)
    null_server.publisher.current()


def _replay_requests(server, null_server, far, near, requests, rec, op):
    """A block's requests in-process; returns the next free operation id."""
    publisher = server.publisher
    itracker = server.itracker
    governor = server.overload
    for method, params in requests:
        near.sendall(schedules.encode_request(method, params))
        root = rec.open("request", op)
        message, _ = rec.call(
            "portal.protocol.decode", op, root, protocol.read_frame_ex, far
        )
        rec.call("portal.overload.admit", op, root, _admit, governor)
        response = rec.call("portal.dispatch", op, root, server.dispatch, message)
        dispatch = len(rec.spans) - 1 if rec.enabled else -1
        rec.call(
            "portal.protocol.validate", op, dispatch,
            protocol.validate_params, method, params,
        )
        if method in schedules.VIEW_METHODS:
            view = rec.call(
                "portal.views.restricted", op, dispatch,
                publisher.view, params.get("pids"),
            )
            if method == "get_pdistances":
                rec.call(
                    "portal.protocol.to_wire", op, dispatch,
                    protocol.pdistance_to_wire, view,
                )
            else:
                rec.call(
                    "portal.alto.costmap", op, dispatch,
                    alto.cost_map_document, view,
                    mode=alto.NUMERICAL, map_vtag=f"p4p-{itracker.version}",
                )
        rec.call(
            "portal.protocol.encode", op, root, protocol.encode_frame, response
        )
        rec.call("portal.dispatch.null", op, root, null_server.dispatch, message)
        rec.close(root)
        op += 1
    return op


def _replay(server, null_server, blocks, rec):
    """Every block's update once, then its requests twice -- spans on and
    spans off, alternating which goes first so a drifting host bends both
    sides alike.  Returns the span bounds of every block and the two
    request-replay walls."""
    silent = NullRecorder()
    near, far = socket.socketpair()
    bounds = []
    walls = {True: 0.0, False: 0.0}
    op = 0
    try:
        for number, block in enumerate(blocks):
            first = len(rec.spans)
            if block["update"] is not None:
                _apply_update(server, null_server, block["update"], rec, op)
                op += 1
            for traced in (True, False) if number % 2 == 0 else (False, True):
                started = time.perf_counter()
                op = _replay_requests(
                    server, null_server, far, near, block["requests"],
                    rec if traced else silent, op,
                )
                walls[traced] += time.perf_counter() - started
            bounds.append((first, len(rec.spans)))
    finally:
        near.close()
        far.close()
    return bounds, walls[True], walls[False]


def run(server, message):
    """Handle the ``trace`` control message; returns the stage report."""
    blocks = message["blocks"]
    # Same handlers, instruments switched off: the telemetry share of
    # dispatch is the difference between the two.
    null_server = AsyncPortalServer(
        fixture.build_itracker(), workers=1, telemetry=NULL_TELEMETRY
    )
    try:
        rec = Recorder()
        bounds, traced_wall, untraced_wall = _replay(
            server, null_server, blocks, rec
        )
    finally:
        null_server.close()

    # Median over blocks of each stage's cost per replayed request.  Only
    # spans that fired count: a stage that never ran reports nothing, and
    # the parent fails the run if this workload had to produce it.
    idle = (0, 0.0, 0.0)
    per_block = []
    for (first, last), block in zip(bounds, blocks):
        totals = rec.totals(first, last)
        requests = len(block["requests"])
        row = {}
        for name, metric in REQUEST_STAGES.items():
            if name in totals:
                row[metric] = totals[name][1] / requests * 1e6
        dispatch = totals["portal.dispatch"]
        # The replayed children are not truly nested, so on large frames
        # their sum can exceed the dispatch that contains them by noise.
        row["portal.dispatch.self_us"] = max(0.0, dispatch[2]) / requests * 1e6
        row["portal.dispatch.total_us"] = dispatch[1] / requests * 1e6
        row["observability.dispatch_overhead_us"] = (
            (dispatch[1] - totals["portal.dispatch.null"][1]) / requests * 1e6
        )
        for name, metric in UPDATE_STAGES.items():
            calls, total, _ = totals.get(name, idle)
            if calls:
                row[metric] = total / calls * 1e3
        per_block.append(row)
    metrics = {}
    for key in set().union(*per_block):
        if key.endswith("_ms"):  # per update: over the blocks that had one
            values = [row[key] for row in per_block if key in row]
        else:  # per request: a stage that did not run in a block cost 0 there
            values = [row.get(key, 0.0) for row in per_block]
        metrics[key] = statistics.median(values)
    path = procs.OUT_DIR / f"trace-{message['workload']}.json"
    rec.write(path, workload=message["workload"], seed=message["seed"])
    return {
        "metrics": metrics,
        "requests": sum(len(block["requests"]) for block in blocks),
        "spans": len(rec.spans),
        "traced_wall": traced_wall,
        "untraced_wall": untraced_wall,
        "trace_file": str(path.relative_to(procs.ROOT)),
    }
