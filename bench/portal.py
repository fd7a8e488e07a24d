"""Parent side of the portal workloads: schedule, oracle, load, metrics.

The generator loop (``loadgen.drive``) touches nothing from ``repro``;
this module does, but only before the measured phase, to let the twin
iTracker work out what every checked response must be.
"""

import statistics
import time
from dataclasses import dataclass, field

import hostspeed
import loadgen
import schedules
from procs import Child

CONNECTIONS = 2
#: Fixed operation counts, the same on every commit (``--quick`` aside):
#: rounds, and requests per round.
ROUNDS = 15
TRACED_ROUNDS = 5
PER_ROUND = {"portal-swarm-reads": 10_000, "portal-fullmesh-updates": 150}
#: A reference probe (``hostspeed``) runs between stretches of this many
#: requests, while nothing is in flight.
PROBE_EVERY = 1000
#: Byte-compare every Nth response against the twin.
ORACLE_EVERY = 50
#: portal-fullmesh-updates: one price update per this many requests ...
UPDATE_EVERY = 25
#: ... and each connection is reopened after carrying this many.
RECONNECT_EVERY = 50
VERSION_FRAME = schedules.encode_request("get_version", {})
FULL_MESH_FRAME = schedules.encode_request("get_pdistances", {})


@dataclass
class Block:
    """Requests sent back to back, and what precedes them."""

    requests: list
    frames: list
    base: int  # index of the first request in the whole run
    update: list = None  # observe_loads entries applied before the block
    reconnect: bool = False  # reopen both connections before the block


@dataclass
class Plan:
    rounds: list  # list of rounds, each a list of Blocks
    expected: dict = field(default_factory=dict)  # request index -> frame
    updates: int = 0

    @property
    def blocks(self):
        return [block for blocks in self.rounds for block in blocks]

    def frames_digest(self):
        return schedules.digest(
            b"".join(frame for block in self.blocks for frame in block.frames)
        )


def spawn():
    return Child("child_portal.py")


def sizes(workload, options):
    per_round = PER_ROUND[workload] // (10 if options.quick else 1)
    return (TRACED_ROUNDS if options.trace else ROUNDS), per_round


def plan(workload, options, twin):
    """The whole run's requests, and the twin's answer to the checked
    ones (every ``ORACLE_EVERY``-th, and the first after each update)."""
    rounds, per_round = sizes(workload, options)
    out = Plan(rounds=[])
    base = 0
    if workload == "portal-swarm-reads":
        for requests in schedules.swarm_reads(
            options.seed, twin.pids, rounds, per_round
        ):
            out.rounds.append([_block(requests, base)])
            base += len(requests)
    else:
        # Requests carried by both connections between reconnects.
        reopen_after = RECONNECT_EVERY * CONNECTIONS // (10 if options.quick else 1)
        updates = iter(
            schedules.load_updates(
                options.seed, twin.links,
                rounds * -(-per_round // UPDATE_EVERY),  # one per block
            )
        )
        for requests in schedules.fullmesh_reads(options.seed, rounds, per_round):
            blocks = []
            for offset in range(0, len(requests), UPDATE_EVERY):
                block = _block(requests[offset : offset + UPDATE_EVERY], base)
                block.update = next(updates)
                block.reconnect = base > 0 and base % reopen_after == 0
                blocks.append(block)
                base += len(block.requests)
                out.updates += 1
            out.rounds.append(blocks)
    for block in out.blocks:
        if block.update is not None:
            twin.update(block.update)
        for offset, (method, params) in enumerate(block.requests):
            index = block.base + offset
            first_after_update = offset == 0 and block.update is not None
            if index % ORACLE_EVERY == ORACLE_EVERY - 1 or first_after_update:
                out.expected[index] = twin.response(method, params)
    return out


def _block(requests, base):
    return Block(
        requests=requests,
        frames=[schedules.encode_request(*request) for request in requests],
        base=base,
    )


def connect(child):
    """The first operation of a cold start: connect, pull the full mesh
    (which publishes the first view)."""
    conn = loadgen.Connection(("127.0.0.1", child.hello["port"]))
    conn.open()
    conn.send(FULL_MESH_FRAME)
    total = conn.recv_frame()
    if not loadgen.well_formed(conn.view, total):
        raise RuntimeError("portal child did not answer its first request")
    conn.close()


def measure(child, the_plan, corrupt_at=None):
    """The socket pass: every round of the plan, closed loop.

    A round's wall is the sum of its stretches -- reconnects, updates and
    requests, first send to last response -- with a reference probe between
    stretches, outside the clock, while the server sits idle.
    """
    expected = the_plan.expected

    def check(index, view, total):
        if index == corrupt_at:  # the smoke test's deliberate fault
            view[total - 2] ^= 1
        frame = expected.get(index)
        if frame is None:
            return loadgen.well_formed(view, total)
        return view[:total] == frame

    address = ("127.0.0.1", child.hello["port"])
    conns = [loadgen.Connection(address) for _ in range(CONNECTIONS)]
    for conn in conns:
        conn.open()
    rounds = []
    all_sizes = []
    connect_s = []
    clock = time.perf_counter
    sampler = hostspeed.Sampler()
    try:
        for blocks in the_plan.rounds:
            latencies = []
            failed = 0
            wall = 0.0
            own = 0.0
            before = sampler.totals()
            sampler.sample()
            cpu = child.ask(op="cpu")["cpu"]
            for block in blocks:
                for offset in range(0, len(block.frames), PROBE_EVERY):
                    frames = block.frames[offset : offset + PROBE_EVERY]
                    busy = time.thread_time()
                    started = clock()
                    if offset == 0 and block.reconnect:
                        for conn in conns:
                            begun = clock()
                            conn.reopen()
                            conn.send(VERSION_FRAME)
                            conn.recv_frame()
                            connect_s.append(clock() - begun)
                    if offset == 0 and block.update is not None:
                        child.ask(op="update", loads=block.update)
                    stretch_latencies = [0.0] * len(frames)
                    stretch_sizes = [0] * len(frames)
                    failed += loadgen.drive(
                        conns, frames, check, stretch_latencies, stretch_sizes,
                        base=block.base + offset,
                    )
                    wall += clock() - started
                    own += time.thread_time() - busy
                    latencies += stretch_latencies
                    all_sizes += stretch_sizes
                    sampler.sample()
            cpu = child.ask(op="cpu")["cpu"] - cpu
            latencies.sort()
            rounds.append(
                {
                    "ops": len(latencies),
                    "failed": failed,
                    "wall": wall,
                    "cpu": cpu,
                    "loadgen_cpu": own,
                    "p50": loadgen.percentile(latencies, 0.50),
                    "latencies": latencies,
                    "host": hostspeed.window(before, sampler.totals()),
                }
            )
    finally:
        for conn in conns:
            conn.close()
    return rounds, all_sizes, connect_s


def calibrate(the_plan, all_sizes, limit):
    """The generator's ceiling: the same frames against ``null_server``,
    which answers each with a canned frame of the real response's size."""
    frames = [frame for block in the_plan.blocks for frame in block.frames][:limit]
    response_sizes = all_sizes[: len(frames)]
    child = Child("null_server.py")
    try:
        child.send(
            sizes=[response_sizes[c::CONNECTIONS] for c in range(CONNECTIONS)]
        )
        conns = [
            loadgen.Connection(("127.0.0.1", child.hello["port"]))
            for _ in range(CONNECTIONS)
        ]
        for conn in conns:
            conn.open()
        try:
            started = time.perf_counter()
            rejected = loadgen.drive(
                conns, frames,
                lambda index, view, total: loadgen.well_formed(view, total),
                [0.0] * len(frames), [0] * len(frames),
            )
            wall = time.perf_counter() - started
        finally:
            for conn in conns:
                conn.close()
    finally:
        child.kill()
    if rejected:
        raise RuntimeError("null server sent a malformed frame")
    return len(frames) / wall


def trace_blocks(the_plan, per_block):
    """The in-process replay's input: a prefix of every measured block."""
    return [
        {"update": block.update, "requests": block.requests[:per_block]}
        for block in the_plan.blocks
    ]


def run(child, workload, options, the_plan):
    corrupt_at = ORACLE_EVERY - 1 if options.corrupt else None
    rounds, all_sizes, connect_s = measure(child, the_plan, corrupt_at)
    stats = child.ask(op="stats")
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = []
    if failed:
        problems.append(f"{failed} responses differ from the oracle")
    if stats["publications"] != the_plan.updates + 1:
        problems.append(
            f"{stats['publications']} view publications for "
            f"{the_plan.updates} price updates"
        )
    timings, raw = hostspeed.timing_metrics(rounds, lambda r: r["p50"] * 1e3)
    # Generator against server as the clock read both, moments apart.
    throughput = raw["raw.throughput_ops_s"]
    ceiling = calibrate(the_plan, all_sizes, limit=max(200, attempted // 10))
    if throughput > ceiling / 2:
        problems.append(
            f"loadgen_bound: served {throughput:.0f}/s against a generator "
            f"ceiling of {ceiling:.0f}/s"
        )
    pooled = sorted(lat for r in rounds for lat in r["latencies"])
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": {
            "rounds": len(rounds),
            "frames_sha256": the_plan.frames_digest(),
            "oracle_checked": len(the_plan.expected),
            "price_updates": the_plan.updates,
            "view_publications": stats["publications"],
            "reconnects": len(connect_s),
            "loadgen.ceiling_ops_s": ceiling,
            "engine.class": "none",
            **raw,
        },
    }
    if not options.trace:
        result["end_to_end"] = timings
        return result
    # The stages below are clock readings of this same process, so the
    # transport residual is taken from the served CPU as the clock read it.
    cpu_us = raw["raw.server_cpu_us_per_op"]

    per_block = 2000 if workload == "portal-swarm-reads" else 10
    if options.quick:
        per_block //= 10
    traced = child.ask(
        op="trace", workload=workload, seed=options.seed,
        blocks=trace_blocks(the_plan, per_block),
    )
    stages = traced["metrics"]
    in_process = sum(
        stages.get(name, 0.0)
        for name in (
            "portal.protocol.decode_us", "portal.overload.admit_us",
            "portal.dispatch.total_us", "portal.protocol.encode_us",
        )
    )
    transport = cpu_us - in_process
    if workload == "portal-swarm-reads" and transport < 0:
        problems.append(
            f"in-process stages ({in_process:.1f} us) exceed the served "
            f"CPU per request ({cpu_us:.1f} us)"
        )
    result["notes"].update(
        spans=traced["spans"], trace_file=traced["trace_file"],
        traced_requests=traced["requests"], in_process_us=in_process,
    )
    result["per_layer"] = {
        name: value for name, value in stages.items()
        if name != "portal.dispatch.total_us"
    }
    result["per_layer"].update(
        {
            "portal.aserver.transport_us": transport,
            "portal.protocol.response_bytes": statistics.fmean(all_sizes),
            "portal.views.publications": stats["publications"],
            "loadgen.ceiling_ops_s": ceiling,
            "loadgen.cpu_us_per_op": statistics.median(
                r["loadgen_cpu"] / r["ops"] for r in rounds
            ) * 1e6,
            "loadgen.latency_p99_ms": loadgen.percentile(pooled, 0.99) * 1e3,
            "machine.spin_ms": raw["machine.spin_ms"],
            "machine.fill_ms": raw["machine.fill_ms"],
            "trace.overhead_share": (
                traced["traced_wall"] / traced["untraced_wall"] - 1.0
            ),
            "engine.class": 0,
        }
    )
    if connect_s:
        result["per_layer"]["portal.aserver.connect_us"] = (
            statistics.median(connect_s) * 1e6
        )
    return result
