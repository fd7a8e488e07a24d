"""Parent side of the simulator workloads: inputs, checks, metrics."""

import statistics

import hostspeed
import schedules
from child_sim import DOWN_MBPS, RATE_CAP, UP_MBPS
from procs import Child

ENGINE = "vectorized"
ENGINE_CLASS = "VectorizedFlowNetwork"
#: ``engine.class`` as a number for the result line.
ENGINE_CODES = {"FlowNetwork": 1, "VectorizedFlowNetwork": 2}
#: Fixed operation counts, the same on every commit (``--quick`` aside).
COMPARE_ROUNDS = 3
FLOW_SLICES = 7


def spawn():
    return Child("child_sim.py", engine=ENGINE)


# -- swarm-compare ---------------------------------------------------------


def run_compare(child, options):
    """``run_comparison`` on Abilene, native vs localized vs p4p."""
    n_peers = 30 if options.quick else 300
    rounds = 1 if options.trace else COMPARE_ROUNDS
    answer = child.ask(
        op="compare", n_peers=n_peers, rounds=rounds, traced=options.trace,
        seed=options.seed,
    )
    played = answer["rounds"]
    problems = []
    if child.hello["engine"] != ENGINE_CLASS:
        problems.append(f"engine fell back to {child.hello['engine']}")
    attempted = sum(r["expected_ops"] for r in played)
    failed = sum(r["expected_ops"] - r["ops"] for r in played)
    if failed:
        problems.append("not every peer finished")
    digests = {r["digest"] for r in played}
    ratios = {
        (r["bottleneck_traffic_ratio"], r["completion_time_ratio"]) for r in played
    }
    if options.trace:
        traced = answer["traced"]
        digests.add(traced["round"]["digest"])
        if traced["engines"] != [ENGINE_CLASS]:
            problems.append(f"simulations ran on {traced['engines']}")
    if len(digests) != 1 or len(ratios) != 1:
        problems.append("result digest differs between rounds")
    # What a user waits for: one three-way comparison.
    timings, raw = hostspeed.timing_metrics(played, lambda r: r["wall"] * 1e3)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": {
            "rounds": len(played),
            "n_peers": n_peers,
            "result_digest": sorted(digests)[0][:16],
            "engine.class": child.hello["engine"],
            **raw,
        },
    }
    if not options.trace:
        result["end_to_end"] = {
            **timings,
            "bottleneck_traffic_ratio": played[0]["bottleneck_traffic_ratio"],
            "completion_time_ratio": played[0]["completion_time_ratio"],
        }
        return result
    metrics = traced["metrics"]
    run_wall = traced["run_wall"]
    accounted = sum(
        metrics.get(name, 0.0)
        for name in (
            "simulator.swarm.self_s", "simulator.tcp.busy_s",
            "apptracker.selection.busy_s", "core.itracker.hook_busy_s",
        )
    )
    if abs(accounted - run_wall) > 0.10 * run_wall:
        problems.append(
            f"trace accounts for {accounted:.2f}s of a {run_wall:.2f}s run"
        )
    result["notes"].update(
        spans=traced["spans"], trace_file=traced["trace_file"],
        traced_run_wall_s=run_wall,
        selection_busy_s=metrics.get("apptracker.selection.busy_s"),
        hook_busy_s=metrics.get("core.itracker.hook_busy_s"),
    )
    # Only what the proxies saw: a layer that never fired is missing, and
    # ``run.py`` fails the run for it.
    result["per_layer"] = {
        name: value for name, value in metrics.items()
        if not name.endswith("busy_s") or name == "simulator.tcp.busy_s"
    }
    result["per_layer"].update(
        {
            "machine.spin_ms": raw["machine.spin_ms"],
            "machine.fill_ms": raw["machine.fill_ms"],
            "trace.overhead_share": traced["round"]["wall"] / played[0]["wall"] - 1.0,
            "engine.class": ENGINE_CODES.get(child.hello["engine"], 0),
        }
    )
    return result


# -- flows-uniform / flows-localized ----------------------------------------


def flow_sizes(options):
    scale = 10 if options.quick else 1
    slices = FLOW_SLICES
    sizes = {
        "n_peers": 1000 // scale,
        "concurrency": 2000 // scale,
        "ramp": 500 // scale,
        "slice": 500 // scale,
        "slices": slices,
    }
    sizes["n_transfers"] = (
        sizes["concurrency"] + sizes["ramp"] + slices * sizes["slice"]
    )
    return sizes


def flow_inputs(options, locality, n_pops):
    sizes = flow_sizes(options)
    schedule = schedules.flow_schedule(
        options.seed, n_pops, sizes["n_peers"], sizes["n_transfers"], locality
    )
    return sizes, schedule


def _check_flows(schedule, answer):
    """Every scheduled flow finished, none faster than its access links
    allow, and every access link carried exactly what crossed it."""
    transfers = schedule["transfers"]
    fastest = min(UP_MBPS, DOWN_MBPS, RATE_CAP)
    failed = 0
    up = [0.0] * len(schedule["peers"])
    down = [0.0] * len(schedule["peers"])
    for (src, dst, size), start, finish in zip(
        transfers, answer["started_at"], answer["finished_at"]
    ):
        up[src] += size
        down[dst] += size
        if finish is None or finish - start < (size - 1e-4) / fastest:
            failed += 1
    problems = []
    if answer["done"] != len(transfers) or failed:
        problems.append(f"{failed} flows unfinished or impossibly fast")
    for name, expected in (("up_mbit", up), ("down_mbit", down)):
        worst = max(
            abs(got - want) for got, want in zip(answer[name], expected)
        )
        if worst > 1e-3:
            problems.append(f"{name} off by {worst:.4g} Mbit on some link")
    return failed, problems


def run_flows(child, options, locality, workload):
    sizes, schedule = flow_inputs(options, locality, child.hello["n_pops"])
    message = dict(
        op="flows", workload=workload, seed=options.seed, traced=False,
        stop_after_window=False, peers=schedule["peers"],
        transfers=schedule["transfers"],
        **{key: sizes[key] for key in ("concurrency", "ramp", "slice", "slices")},
    )
    reference = None
    if options.trace:
        # Untraced reference for trace.overhead_share: the same replay,
        # stopped after its first window slices.
        reference = child.ask(
            **{**message, "slices": min(3, sizes["slices"]), "stop_after_window": True}
        )
        message["traced"] = True
    answer = child.ask(**message)
    failed, problems = _check_flows(schedule, answer)
    if answer["engine"] != ENGINE_CLASS:
        problems.append(f"engine fell back to {answer['engine']}")
    if len(answer["slices"]) != sizes["slices"]:
        problems.append("steady-state window incomplete")
    played = answer["slices"]
    # Latency: median wall of one engine event -- next completion,
    # advance, pop, start the replacements.
    timings, raw = hostspeed.timing_metrics(played, lambda s: s["p50_step_ms"])
    result = {
        "attempted": len(schedule["transfers"]),
        "failed": failed,
        "problems": problems,
        "notes": {
            "rounds": len(played),
            "schedule_sha256": schedules.digest(schedule),
            "engine.class": answer["engine"],
            **raw,
            **sizes,
        },
    }
    if not options.trace:
        result["end_to_end"] = timings
        return result
    # An engine without public ``stats`` reports no counts: missing layers.
    stats = answer["stats"] or {}
    solves = stats.get("full_solves", 0) + stats.get("incremental_solves", 0)
    shared = len(reference["slices"])
    result["notes"].update(spans=answer["spans"], trace_file=answer["trace_file"])
    result["per_layer"] = {
        **{
            f"simulator.tcp.{name}_us": value
            for name, value in answer["per_call_us"].items()
        },
        **{f"simulator.tcp.{name}": value for name, value in stats.items()},
        **(
            {"simulator.tcp.incremental_share": stats["incremental_solves"] / solves}
            if solves else {}
        ),
        "optimization.maxmin.fill_ms": answer["fill_ms"],
        "machine.spin_ms": raw["machine.spin_ms"],
        "machine.fill_ms": raw["machine.fill_ms"],
        "trace.overhead_share": (
            statistics.median(s["ops"] / s["wall"] for s in reference["slices"])
            / statistics.median(s["ops"] / s["wall"] for s in played[:shared])
            - 1.0
        ),
        "engine.class": ENGINE_CODES.get(answer["engine"], 0),
    }
    return result
