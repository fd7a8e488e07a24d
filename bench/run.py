#!/usr/bin/env python3
"""The performance ledger: ``python3 bench/run.py --workload W --seed S``.

Runs one workload (or all five) against the code as shipped, prints every
metric by name with its unit, checks the outputs, and exits non-zero on a
wrong answer.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``) of
``BENCHMARK.json``.  See ``bench/README.md``.
"""

import argparse
import gc
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Cold starts per run; ``setup_s`` is their median and the last one is
#: the process the measured phase uses.
COLD_STARTS = 5
#: A run that has not finished by then is killed (the contract's cap is 180 s).
RUN_DEADLINE_S = 170
#: End-to-end metrics that exist on some workloads only.  The run contract
#: wants every metric in every result line, so elsewhere the line carries
#: this placeholder and the table says ``n/a``.
ONLY_ON = {
    "bottleneck_traffic_ratio": ("swarm-compare",),
    "completion_time_ratio": ("swarm-compare",),
}
PLACEHOLDER = 1.0
#: Per-layer metrics each workload must produce, from spans that actually
#: fired.  A layer a workload never enters reads 0; one listed here that is
#: missing fails the run, so a timing proxy that silently stops firing
#: cannot pass for a layer that got cheaper.
_HARNESS = (
    "machine.spin_ms", "machine.fill_ms", "trace.overhead_share", "engine.class",
)
_PORTAL_LAYERS = _HARNESS + (
    "portal.protocol.decode_us", "portal.protocol.validate_us",
    "portal.overload.admit_us", "portal.dispatch.self_us",
    "portal.views.restricted_us", "observability.dispatch_overhead_us",
    "portal.aserver.transport_us", "portal.protocol.to_wire_us",
    "portal.alto.costmap_us", "portal.protocol.encode_us",
    "portal.protocol.response_bytes", "portal.views.publications",
    "loadgen.ceiling_ops_s", "loadgen.cpu_us_per_op", "loadgen.latency_p99_ms",
)
_FLOW_LAYERS = _HARNESS + (
    "simulator.tcp.start_flow_us", "simulator.tcp.advance_us",
    "simulator.tcp.next_completion_us", "simulator.tcp.pop_finished_us",
    "simulator.tcp.full_solves", "simulator.tcp.incremental_solves",
    "simulator.tcp.incremental_share", "simulator.tcp.dirty_flows_peak",
    "simulator.tcp.compactions", "optimization.maxmin.fill_ms",
)
LAYERS_ON = {
    "portal-swarm-reads": _PORTAL_LAYERS,
    "portal-fullmesh-updates": _PORTAL_LAYERS + (
        "portal.views.publish_ms", "core.itracker.price_update_ms",
        "core.pdistance.external_view_ms", "portal.aserver.connect_us",
    ),
    "swarm-compare": _HARNESS + (
        "apptracker.selection.select_us", "apptracker.selection.calls",
        "core.itracker.hook_ms", "core.itracker.updates",
        "simulator.tcp.busy_s", "simulator.swarm.self_s",
    ),
    "flows-uniform": _FLOW_LAYERS,
    "flows-localized": _FLOW_LAYERS,
}


def cold_starts(spawn, first_operation, count):
    """Start the child ``count`` times; time spawn -> first answer, with a
    reference probe on either side of each start."""
    import hostspeed

    sampler = hostspeed.Sampler()
    setups = []
    child = None
    for _ in range(count):
        if child is not None:
            child.stop()
        before = sampler.totals()
        sampler.sample()
        child = spawn()
        try:
            first_operation(child)
        except BaseException:
            child.kill()
            raise
        wall = time.perf_counter() - child.spawned_at
        sampler.sample()
        setups.append(
            {"wall": wall, "host": hostspeed.window(before, sampler.totals())}
        )
    return child, setups


def run_workload(name, options):
    starts = 1 if options.trace else 2 if options.quick else COLD_STARTS
    if name.startswith("portal-"):
        import fixture
        import portal

        the_plan = portal.plan(name, options, fixture.Twin())
        # The plan is 10^5 long-lived objects: keep the generator's
        # collector from walking them in the middle of a round.
        gc.collect()
        gc.freeze()
        child, setups = cold_starts(portal.spawn, portal.connect, starts)
        try:
            result = portal.run(child, name, options, the_plan)
        finally:
            last = child.stop()
    else:
        import sims

        child, setups = cold_starts(sims.spawn, lambda child: None, starts)
        try:
            if name == "swarm-compare":
                result = sims.run_compare(child, options)
            else:
                locality = 1.0 if name == "flows-localized" else 0.0
                result = sims.run_flows(child, options, locality, name)
        finally:
            last = child.stop()
    if last is None:
        result["problems"].append("child died before reporting its peak RSS")
        last = {"rss_kb": float("nan")}
    result["notes"]["cold_starts_s"] = [round(s["wall"], 4) for s in setups]
    result["notes"]["raw.setup_s"] = statistics.median(s["wall"] for s in setups)
    if not options.trace:
        result["end_to_end"]["setup_s"] = statistics.median(
            s["wall"] / s["host"]["slowdown"] for s in setups
        )
        result["end_to_end"]["peak_rss_mb"] = last["rss_kb"] / 1024.0
    return result


def result_line(name, result, trace):
    """The contract's last line: every declared metric, with its unit."""
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    measured = result["per_layer"] if trace else result["end_to_end"]
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    required = LAYERS_ON[name] if trace else [
        metric["name"] for metric in declared
        if name in ONLY_ON.get(metric["name"], WORKLOADS)
    ]
    metrics = {}
    for metric in declared:
        key = metric["name"]
        if key in measured:
            value = float(measured[key])
            if not math.isfinite(value):
                result["problems"].append(f"{key} is not finite")
        elif key in required:
            result["problems"].append(f"{key} was not measured")
            value = float("nan")
        else:
            # Per-layer: a layer this workload never enters -- 0 calls, 0 s.
            # End-to-end: a metric this workload does not have.
            value = 0.0 if trace else PLACEHOLDER
        metrics[key] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report(name, options, result, line):
    print(f"== {name}  seed={options.seed}  trace={options.trace}"
          f"{'  quick' if options.quick else ''}")
    measured = result["per_layer" if options.trace else "end_to_end"]
    for key, value in line["metrics"].items():
        if key in measured or options.trace:
            shown = f"{value['value']:>16.6g}"
        else:
            shown = f"{'n/a':>16}"
        print(f"  {key:<40} {shown} {value['unit']}")
    for key, value in result["notes"].items():
        print(f"  # {key} = {value}")
    print(f"  ops attempted={line['attempted']} "
          f"succeeded={line['attempted'] - line['failed']} failed={line['failed']}")
    for problem in result["problems"]:
        print(f"  !! {problem}")


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def pin_to_one_cpu():
    """Generator, server and simulator all on one CPU.

    The box's two vCPUs share a core: with generator and server on one
    each, both run 15-45% slower and the split wanders (README, "Sizing
    findings").  On one CPU they simply take turns, the other vCPU stays
    idle, and round-to-round medians agree.  Children inherit the mask.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(name, options):
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run_workload(name, options)
    finally:
        signal.alarm(0)
    line = result_line(name, result, options.trace)
    report(name, options, result, line)
    print(json.dumps(line))
    return line["correct"]


# -- A/A noise report -------------------------------------------------------

#: Metrics also printed as the clock read them (``# raw.<name>`` notes).
RAW = ("setup_s", "throughput_ops_s", "latency_p50_ms", "server_cpu_us_per_op")


def _quartile_spread(values):
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _note(out, key):
    (row,) = [row for row in out if row.startswith(f"  # {key} = ")]
    return float(row.split(" = ")[1])


def noise_report(options):
    """Run every workload ``--aa N`` times, alternating between two sets,
    and write what two sets of runs of the same code disagree by."""
    raw = {}
    for name in options.workloads:
        raw[name] = runs = []
        for index in range(options.aa):
            command = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(options.seed + index),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit(f"{name} seed {options.seed + index} failed")
            out = done.stdout.rstrip().splitlines()
            run = {k: v["value"] for k, v in json.loads(out[-1])["metrics"].items()}
            for key in RAW:
                run[f"raw.{key}"] = _note(out, f"raw.{key}")
            run["host.slowdown"] = _note(out, "host.slowdown")
            runs.append(run)
            print(f"{name} run {index + 1}/{options.aa} done", file=sys.stderr)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    (BENCH_DIR / "out" / "aa-runs.json").write_text(json.dumps(raw))
    text, ok = render_noise(raw)
    (BENCH_DIR / "NOISE.md").write_text(text)
    print(f"wrote {BENCH_DIR / 'NOISE.md'}")
    return ok


def render_noise(raw):
    count = len(next(iter(raw.values())))
    lines = [
        "# A/A noise report",
        "",
        f"`python3 bench/run.py --aa {count}`: every workload run {count} "
        "times on the same code, a new `--seed` each time, runs alternating "
        "between set A and set B.",
        "",
        "* `rel diff` = |median B - median A| / median A: what two interleaved "
        "sets of runs disagree by.  `ok` = rel diff within the bound.",
        "* `spread` = (Q3 - Q1) / median (`statistics.quantiles(n=4)`) over all "
        "runs: what single runs disagree by.  `steady` = spread within the "
        "bound (not asked of `setup_s`).",
        "* `raw spread`: the same for the metric as the clock read it, before "
        "it is put at reference host speed (`hostspeed.py`).",
        "* `host slowdown`: reference-probe time over its nominal, per run.",
        "",
    ]
    ok = True
    for name, runs in raw.items():
        slow = [run["host.slowdown"] for run in runs]
        lines += [
            f"## {name}", "",
            f"host slowdown over the runs: min {min(slow):.3f}, median "
            f"{statistics.median(slow):.3f}, max {max(slow):.3f}", "",
            "| metric | unit | median A | median B | rel diff | bound | ok "
            "| spread | steady | raw spread |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for spec in SPEC["end_to_end"]:
            key = spec["name"]
            if name not in ONLY_ON.get(key, WORKLOADS):
                continue
            values = [run[key] for run in runs]
            a, b = statistics.median(values[0::2]), statistics.median(values[1::2])
            diff = abs(b - a) / a
            spread = _quartile_spread(values)
            steady = key == "setup_s" or spread <= spec["bound"]
            ok = ok and diff <= spec["bound"] and steady
            raw_spread = (
                f"{_quartile_spread([run[f'raw.{key}'] for run in runs]):.4f}"
                if key in RAW else ""
            )
            lines.append(
                f"| `{key}` | {spec['unit']} | {a:.6g} | {b:.6g} | {diff:.4f} | "
                f"{spec['bound']} | {'yes' if diff <= spec['bound'] else 'NO'} | "
                f"{spread:.4f} | {'yes' if steady else 'NO'} | {raw_spread} |"
            )
        lines.append("")
    return "\n".join(lines), ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=SPEC["run_seconds"],
        help="what the run harness passes; the measured phase is a fixed "
        "operation count sized for BENCHMARK.json's run_seconds, so no other "
        "value is taken",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced pass, per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="a tenth of the work per round, two cold starts: smoke test only",
    )
    parser.add_argument("--aa", type=int, metavar="N", help="write bench/NOISE.md")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="flip one byte of a checked portal response (the run must fail)",
    )
    options = parser.parse_args(argv)
    if options.seconds != SPEC["run_seconds"]:
        parser.error(
            f"--seconds must be {SPEC['run_seconds']} (BENCHMARK.json "
            "run_seconds): the operation counts are fixed"
        )
    options.workloads = [options.workload] if options.workload else WORKLOADS
    # bench/ for its own modules, src/ for the parent-side oracle twin.
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    if options.aa:
        return 0 if noise_report(options) else 1
    pin_to_one_cpu()
    correct = [run_one(name, options) for name in options.workloads]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
