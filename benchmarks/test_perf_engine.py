"""Throughput benchmark: production flow engine vs its reference oracle.

Replays the same randomized transfer schedule through the engine every
simulation runs (``VectorizedFlowNetwork``) and through the scalar
reference it is checked against (``FlowNetwork``), both constructed
directly, and measures completed transfers per wall-clock second.  The
workload is the simulator's real shape: every transfer crosses the source
peer's uplink, the backbone links on the Abilene route between the two
peers' PoPs, and the destination's downlink, with up to two in-flight
transfers per peer (new transfers start as old ones complete).

Two traffic mixes are measured at each swarm size:

* ``uniform`` -- destination drawn uniformly at random, so most transfers
  cross the backbone and the whole network stays one connected component.
  Both are bound by the same iterative water-filling here, so the
  speedup is modest.
* ``localized`` -- destination drawn from the source's own PoP whenever
  possible (the steady state a P4P/localized tracker produces).  Intra-PoP
  transfers have empty backbone routes, the flow graph shatters into small
  per-PoP components, and the production engine's dirty-set incremental
  path re-solves only the touched component.  This is the headline
  scenario: the acceptance bar is a >= 5x speedup at 1,000 peers.

Results are written to ``BENCH_engine.json`` at the repo root.  A
checked-in baseline (``benchmarks/baseline_engine.json``) pins the
expected speedups; the test fails if any measured speedup regresses more
than 20% below its baseline.  The 10,000-peer size runs only under
``P4P_BENCH_FULL=1`` (minutes of reference runtime).  The JSON keeps its
``scalar_*`` / ``vectorized_*`` keys: reference and production.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.simulator.tcp import FlowNetwork, VectorizedFlowNetwork

from conftest import full_scale, print_rows

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_engine.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_engine.json"

#: Allowed fractional drop below the checked-in baseline speedup.
REGRESSION_BUDGET = 0.20
#: Reference first, production second; the names are the JSON key prefixes.
CONTENDERS = (("scalar", FlowNetwork), ("vectorized", VectorizedFlowNetwork))
#: Best-of-N wall-time trials per contender (min is the standard
#: noise-robust estimator; a loaded machine only ever slows a run down).
TRIALS = 2
#: The issue's acceptance bar for the 1,000-peer localized scenario.
HEADLINE_SPEEDUP = 5.0

UP_MBPS = 10.0
DOWN_MBPS = 20.0
RATE_CAP = 25.0


def _swarm_sizes():
    sizes = [(100, 3000), (1000, 2000)]
    if full_scale():
        sizes.append((10000, 2000))
    return sizes


def _build_workload(n_peers, n_events, locality, seed):
    """Peer placement on Abilene PoPs plus a fixed transfer schedule."""
    topology = abilene()
    pids = sorted(topology.nodes)
    rng = random.Random(seed)
    peers = [rng.choice(pids) for _ in range(n_peers)]
    by_pid = {}
    for index, pid in enumerate(peers):
        by_pid.setdefault(pid, []).append(index)
    schedule = []
    for _ in range(n_events):
        src = rng.randrange(n_peers)
        dst = src
        if rng.random() < locality and len(by_pid[peers[src]]) > 1:
            while dst == src:
                dst = rng.choice(by_pid[peers[src]])
        else:
            while dst == src:
                dst = rng.randrange(n_peers)
        schedule.append((src, dst, rng.uniform(1.0, 4.0)))
    return topology, peers, schedule


def _replay(network_cls, topology, routing, peers, schedule):
    """Run the schedule to completion; return (events/sec, completed)."""
    net = network_cls()
    backbone = {
        key: net.add_link(("bb", key), link.headroom)
        for key, link in topology.links.items()
        if link.headroom > 0
    }
    ups = [net.add_link(("up", i), UP_MBPS) for i in range(len(peers))]
    downs = [net.add_link(("down", i), DOWN_MBPS) for i in range(len(peers))]
    route_cache = {}

    def links_for(src, dst):
        pair = (peers[src], peers[dst])
        route = route_cache.get(pair)
        if route is None:
            route = tuple(
                backbone[key]
                for key in routing.route(*pair)
                if key in backbone
            )
            route_cache[pair] = route
        return (ups[src],) + route + (downs[dst],)

    pending = iter(schedule)
    concurrency = min(2 * len(peers), len(schedule))
    start = time.perf_counter()
    for _ in range(concurrency):
        src, dst, size = next(pending)
        net.start_flow(links_for(src, dst), size, rate_cap=RATE_CAP)
    done = 0
    exhausted = False
    while True:
        when = net.next_completion()
        if when is None:
            break
        net.advance(when)
        for _ in net.pop_finished():
            done += 1
            if not exhausted:
                try:
                    src, dst, size = next(pending)
                except StopIteration:
                    exhausted = True
                else:
                    net.start_flow(links_for(src, dst), size, rate_cap=RATE_CAP)
    elapsed = time.perf_counter() - start
    return done / elapsed, done


@pytest.mark.perf
def test_engine_throughput_and_regression_gate():
    baseline = json.loads(BASELINE_PATH.read_text())["speedup"]
    scenarios = {}
    rows = []
    for n_peers, n_events in _swarm_sizes():
        for label, locality in (("uniform", 0.0), ("localized", 1.0)):
            topology, peers, schedule = _build_workload(
                n_peers, n_events, locality, seed=42
            )
            routing = RoutingTable.build(topology)
            rates = {}
            for engine, network_cls in CONTENDERS:
                best = 0.0
                for _ in range(TRIALS):
                    events_per_sec, done = _replay(
                        network_cls, topology, routing, peers, schedule
                    )
                    assert done == n_events, (engine, n_peers, label)
                    best = max(best, events_per_sec)
                rates[engine] = best
            speedup = rates["vectorized"] / rates["scalar"]
            name = f"n{n_peers}-{label}"
            scenarios[name] = {
                "n_peers": n_peers,
                "locality": locality,
                "events": n_events,
                "scalar_events_per_sec": round(rates["scalar"], 1),
                "vectorized_events_per_sec": round(rates["vectorized"], 1),
                "speedup": round(speedup, 3),
            }
            rows.append(
                f"{name:<18} scalar={rates['scalar']:9.1f} ev/s  "
                f"vectorized={rates['vectorized']:9.1f} ev/s  "
                f"speedup={speedup:5.2f}x"
            )
    print_rows("engine throughput (abilene replay)", rows)

    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "engine-throughput",
                "topology": "abilene",
                "full_scale": full_scale(),
                "scenarios": scenarios,
            },
            indent=2,
        )
        + "\n"
    )

    # Acceptance bar: the localized 1k-peer swarm must clear 5x.
    headline = scenarios["n1000-localized"]["speedup"]
    assert headline >= HEADLINE_SPEEDUP, (
        f"vectorized engine {headline:.2f}x on the 1k localized swarm; "
        f"the acceptance bar is {HEADLINE_SPEEDUP:.1f}x"
    )

    # Regression gate: no scenario may fall >20% below its checked-in
    # baseline speedup (scenarios without a baseline, e.g. the 10k full
    # run, are reported but not gated).
    for name, expected in baseline.items():
        if name not in scenarios:
            continue
        measured = scenarios[name]["speedup"]
        floor = (1.0 - REGRESSION_BUDGET) * expected
        assert measured >= floor, (
            f"{name}: speedup {measured:.2f}x regressed more than "
            f"{REGRESSION_BUDGET:.0%} below the baseline {expected:.2f}x "
            f"(floor {floor:.2f}x); if the slowdown is intentional, "
            f"update benchmarks/baseline_engine.json"
        )
