"""Smoke test of the benchmark itself: ``pytest bench/tests``.

Outside the tier-1 ``testpaths`` on purpose: it starts servers and takes
tens of seconds.  ``--quick`` numbers are never reported; this only
checks that the harness runs, names every metric, builds its inputs from
the seed alone, and fails when an answer is wrong.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402  (bench/run.py: the tables of who must report what)


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    # The benchmark finds the program by itself: no PYTHONPATH from here.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170, env=env,
    )
    return done, time.perf_counter() - started


def result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def check_metrics(stdout, declared):
    lines = result_lines(stdout)
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [metric["name"] for metric in declared]
        for metric in declared:
            got = line["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"])
    # The human-readable table names every metric once per workload.
    for metric in declared:
        rows = [
            row for row in stdout.splitlines()
            if row.startswith(f"  {metric['name']} ")
        ]
        assert len(rows) == len(WORKLOADS), metric["name"]
    return dict(zip(WORKLOADS, lines))


@pytest.fixture(scope="module")
def quick_pass():
    done, elapsed = bench("--quick", "--seed", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, elapsed


def test_quick_pass_is_fast_and_names_every_end_to_end_metric(quick_pass):
    stdout, elapsed = quick_pass
    assert elapsed < 30.0
    lines = check_metrics(stdout, SPEC["end_to_end"])
    for workload, line in lines.items():
        for name, metric in line["metrics"].items():
            if workload in run.ONLY_ON.get(name, WORKLOADS):
                assert metric["value"] > 0, (workload, name)
            else:  # not a metric of this workload: the placeholder, not a number
                assert metric["value"] == run.PLACEHOLDER, (workload, name)
                assert f"  {name:<40} {'n/a':>16}" in stdout


def test_traced_pass_names_every_per_layer_metric():
    done, _ = bench("--quick", "--seed", "1", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    # ``correct`` above also says every layer of ``run.LAYERS_ON`` fired.
    check_metrics(done.stdout, SPEC["per_layer"])
    for workload in WORKLOADS:
        trace = json.loads((BENCH_DIR / "out" / f"trace-{workload}.json").read_text())
        assert trace["columns"] == ["name", "start", "end", "parent", "op"]
        assert trace["spans"]


def test_a_layer_that_stops_firing_fails_the_run():
    """A required per-layer metric nobody measured is a problem, not a 0."""
    result = {
        "per_layer": {"machine.spin_ms": 1.0},
        "problems": [], "attempted": 1, "failed": 0,
    }
    line = run.result_line("swarm-compare", result, trace=1)
    assert line["correct"] is False
    assert "simulator.tcp.busy_s was not measured" in result["problems"]
    # ... while a layer the workload never enters reads 0 without complaint.
    assert line["metrics"]["portal.protocol.decode_us"]["value"] == 0.0
    assert not any("decode_us" in problem for problem in result["problems"])


def _options(seed):
    return argparse.Namespace(seed=seed, trace=0, quick=True)


def _input_digests(seed):
    import fixture
    import portal
    import schedules
    import sims

    digests = {
        workload: portal.plan(workload, _options(seed), fixture.Twin()).frames_digest()
        for workload in ("portal-swarm-reads", "portal-fullmesh-updates")
    }
    for workload, locality in (("flows-uniform", 0.0), ("flows-localized", 1.0)):
        _, schedule = sims.flow_inputs(_options(seed), locality, n_pops=11)
        digests[workload] = schedules.digest(schedule)
    return digests


def test_inputs_are_a_function_of_the_seed():
    first, again, other = _input_digests(1), _input_digests(1), _input_digests(2)
    assert first == again
    for workload in first:
        assert first[workload] != other[workload], workload


def test_the_seed_renames_the_flow_instance_and_nothing_else():
    """Every seed replays the same transfers between renamed peers, so the
    engine's work per completed flow does not depend on the seed."""
    import schedules

    one = schedules.flow_schedule(1, 11, 100, 600, 1.0)
    two = schedules.flow_schedule(2, 11, 100, 600, 1.0)
    assert one["peers"] == two["peers"]
    assert one["transfers"] != two["transfers"]
    renamed = {}
    for (src1, dst1, size1), (src2, dst2, size2) in zip(
        one["transfers"], two["transfers"]
    ):
        assert size1 == size2
        assert renamed.setdefault(src1, src2) == src2
        assert renamed.setdefault(dst1, dst2) == dst2
        assert one["peers"][src1] == two["peers"][src2]
    assert len(set(renamed.values())) == len(renamed)


def test_only_the_sized_run_length_is_taken():
    done, _ = bench("--quick", "--workload", "flows-uniform", "--seconds", "7")
    assert done.returncode == 2
    assert "run_seconds" in done.stderr


def test_printed_digests_match_the_generators(quick_pass):
    stdout, _ = quick_pass
    for digest in _input_digests(1).values():
        assert digest in stdout


def test_corrupted_response_fails_the_run():
    done, _ = bench(
        "--workload", "portal-swarm-reads", "--quick", "--seed", "1", "--corrupt"
    )
    assert done.returncode != 0
    (line,) = result_lines(done.stdout)
    assert line["correct"] is False
    assert line["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    """The contract's empty-checkout probe: only BENCHMARK.json and the
    benchmark's own directory -> non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    for workload in ("portal-swarm-reads", "flows-uniform"):
        done, elapsed = bench(
            "--workload", workload, "--seed", "1", "--seconds", "15", "--trace", "0",
            cwd=tmp_path, script=tmp_path / "bench" / "run.py",
        )
        assert done.returncode != 0
        assert not result_lines(done.stdout)
        assert elapsed < 30.0


def test_engine_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        done, _ = bench(
            "--workload", "flows-localized", "--quick", "--seed", "5", "--trace", "1"
        )
        assert done.returncode == 0, done.stdout + done.stderr
        (line,) = result_lines(done.stdout)
        counts.append(
            {
                name: metric["value"]
                for name, metric in line["metrics"].items()
                if metric["unit"] in ("count", "class")
                or name == "simulator.tcp.incremental_share"
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["simulator.tcp.full_solves"] > 0
    assert counts[0]["engine.class"] == 2
