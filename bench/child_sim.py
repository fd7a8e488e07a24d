"""Simulator child: the program under test for the simulator workloads.

The parent exports ``P4P_SIM_ENGINE`` before this process starts, so the
engine is picked the way a user picks it; the class actually built is
reported back so a silent fall-back to the scalar engine shows.

Control pipe (JSON lines): ``compare`` (``run_comparison`` rounds),
``flows`` (one ``make_flow_network()`` replay), ``quit``.
"""

import json
import resource
import statistics
import sys
import time
from unittest import mock

import hostspeed
import procs
import schedules
from spans import NullRecorder, Recorder

UP_MBPS = 10.0
DOWN_MBPS = 20.0
RATE_CAP = 25.0
#: Engine methods the traced pass times (the public surface the swarm
#: simulation drives).
NET_METHODS = (
    "start_flow", "advance", "next_completion", "pop_finished", "abort_flow",
)


def _reply(**message):
    sys.stdout.write(json.dumps(message, separators=(",", ":")) + "\n")
    sys.stdout.flush()


# -- swarm-compare ---------------------------------------------------------


class _TimedNet:
    """Timing proxy over the flow engine a simulation drives."""

    def __init__(self, net, rec, parent):
        self._net = net
        for name in NET_METHODS:
            setattr(self, name, self._timed(name, getattr(net, name), rec, parent))

    @staticmethod
    def _timed(name, method, rec, parent):
        span = f"simulator.tcp.{name}"

        def call(*args, **kwargs):
            return rec.call(span, 0, parent[0], method, *args, **kwargs)

        return call

    def __getattr__(self, name):
        return getattr(self._net, name)


class _TimedSelector:
    def __init__(self, selector, rec, parent):
        self._selector = selector
        self._rec = rec
        self._parent = parent

    def select(self, client, candidates, m, rng):
        return self._rec.call(
            "apptracker.selection.select", 0, self._parent[0],
            self._selector.select, client, candidates, m, rng,
        )

    def __getattr__(self, name):
        return getattr(self._selector, name)


def _traced_simulation(rec, parent, engines):
    """A ``SwarmSimulation`` factory that hands the simulation timing
    proxies for its selector, tracker hook and flow engine."""
    from repro.simulator.swarm import SwarmSimulation

    def build(topology, routing, config, selector, peers, seeds, tracker_hook=None):
        hook = tracker_hook
        if tracker_hook is not None:
            def hook(*args):
                return rec.call(
                    "core.itracker.hook", 0, parent[0], tracker_hook, *args
                )
        sim = SwarmSimulation(
            topology, routing, config, _TimedSelector(selector, rec, parent),
            peers, seeds, tracker_hook=hook,
        )
        engines.add(type(sim.net).__name__)
        sim.net = _TimedNet(sim.net, rec, parent)
        return sim

    return build


def _compare_once(topology, n_peers, sampler):
    from repro.experiments.comparison import ComparisonConfig, run_comparison

    config = ComparisonConfig(n_peers=n_peers)
    before = sampler.totals()
    cpu = time.process_time()
    started = time.perf_counter()
    outcomes = run_comparison(topology, config)
    sampler.sample()
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu
    host = hostspeed.window(before, sampler.totals())
    blocks = config.swarm_config(0).n_blocks
    finished = {
        scheme: len(outcome.result.completion_times)
        for scheme, outcome in outcomes.items()
    }
    native, p4p = outcomes["native"], outcomes["p4p"]
    return {
        "wall": wall - host["wall_s"],
        "cpu": cpu - host["cpu_s"],
        "host": host,
        "ops": sum(finished.values()) * blocks,
        "expected_ops": len(outcomes) * n_peers * blocks,
        "finished": finished,
        "bottleneck_traffic_ratio": (
            p4p.bottleneck_traffic_mbit / native.bottleneck_traffic_mbit
        ),
        "completion_time_ratio": p4p.mean_completion / native.mean_completion,
        "digest": schedules.digest(
            {
                scheme: [
                    sorted(outcome.result.completion_times.items()),
                    sorted(
                        (list(key), value)
                        for key, value in outcome.result.link_traffic_mbit.items()
                    ),
                ]
                for scheme, outcome in outcomes.items()
            }
        ),
    }


def compare(topology, message):
    from repro.experiments import comparison

    n_peers = message["n_peers"]
    # The timer interleaves the reference probe with ``run_comparison``,
    # which is one call from here.
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        rounds = [
            _compare_once(topology, n_peers, sampler)
            for _ in range(message["rounds"])
        ]
    finally:
        sampler.stop()
    result = {"rounds": rounds}
    if message["traced"]:
        rec = Recorder()
        parent = [-1]
        engines = set()
        with mock.patch.object(
            comparison, "SwarmSimulation", _traced_simulation(rec, parent, engines)
        ):
            parent[0] = rec.open("experiments.comparison.run", 0)
            traced = _compare_once(topology, n_peers, sampler)
            rec.close(parent[0])
        totals = rec.totals()
        run = totals["experiments.comparison.run"]
        # A proxy that never fired reports nothing, so the parent sees a
        # missing layer instead of a layer that cost 0.
        metrics = {"simulator.swarm.self_s": run[2]}
        select = totals.get("apptracker.selection.select")
        if select:
            metrics["apptracker.selection.select_us"] = select[1] / select[0] * 1e6
            metrics["apptracker.selection.calls"] = select[0]
            metrics["apptracker.selection.busy_s"] = select[1]
        hook = totals.get("core.itracker.hook")
        if hook:
            metrics["core.itracker.hook_ms"] = hook[1] / hook[0] * 1e3
            metrics["core.itracker.updates"] = hook[0]
            metrics["core.itracker.hook_busy_s"] = hook[1]
        tcp = [
            totals[f"simulator.tcp.{name}"][1]
            for name in NET_METHODS
            if f"simulator.tcp.{name}" in totals
        ]
        if tcp:
            metrics["simulator.tcp.busy_s"] = sum(tcp)
        path = procs.OUT_DIR / "trace-swarm-compare.json"
        rec.write(path, workload="swarm-compare", seed=message["seed"])
        result["traced"] = {
            "round": traced,
            "engines": sorted(engines),
            "run_wall": run[1],
            "metrics": metrics,
            "spans": len(rec.spans),
            "trace_file": str(path.relative_to(procs.ROOT)),
        }
    return result


# -- flows-uniform / flows-localized ----------------------------------------


def flows(topology, routing, message, rec):
    """One replay with replacement; per-slice timing over the window.

    ``transfers`` start ``concurrency`` at once; every completion starts
    the next until the schedule runs out, then the network drains.
    Completions ``ramp .. ramp + slices*slice`` are the steady-state
    window, cut into equal slices (the rounds).  ``stop_after_window``
    ends the replay there (the untraced reference of a traced run).
    """
    from repro.optimization.maxmin import maxmin_rates
    from repro.simulator.tcp import make_flow_network

    pops = sorted(topology.nodes)
    peers = [pops[index] for index in message["peers"]]
    transfers = message["transfers"]
    ramp, width, slices = message["ramp"], message["slice"], message["slices"]
    window_end = ramp + width * slices

    net = make_flow_network()
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
            route = route_cache[pair] = tuple(
                backbone[key] for key in routing.route(*pair) if key in backbone
            )
        return (ups[src],) + route + (downs[dst],)

    call = rec.call
    root = rec.open("flows.replay", 0)
    started_at = [0.0] * len(transfers)
    finished_at = [None] * len(transfers)
    following = 0
    for _ in range(min(message["concurrency"], len(transfers))):
        src, dst, size = transfers[following]
        call(
            "simulator.tcp.start_flow", following, root, net.start_flow,
            links_for(src, dst), size, meta=following, rate_cap=RATE_CAP,
        )
        following += 1

    fill_ms = None
    if message["traced"]:
        # The flow set at peak concurrency, solved once from scratch by
        # the public progressive-filling entry point.
        snapshot = [
            (flow.link_indices, flow.rate_cap) for flow in net.flows()
        ]
        capacities = [net.capacity(index) for index in range(net.n_links)]
        samples = []
        for _ in range(5):
            begun = time.perf_counter()
            maxmin_rates(
                [links for links, _ in snapshot], capacities,
                [cap for _, cap in snapshot],
            )
            samples.append((time.perf_counter() - begun) * 1e3)
        fill_ms = statistics.median(samples)

    clock = time.perf_counter
    # Reference probes ride a timer through the window; a traced replay
    # takes them at slice boundaries only, outside every span.
    sampler = hostspeed.Sampler()
    done = 0
    slices_out = []
    steps = []
    opened = None  # (done, wall, cpu, sampler totals) at the open slice's start
    boundary = ramp
    try:
        while True:
            step_started = clock()
            when = call("simulator.tcp.next_completion", done, root, net.next_completion)
            if when is None:
                break
            call("simulator.tcp.advance", done, root, net.advance, when)
            for flow in call("simulator.tcp.pop_finished", done, root, net.pop_finished):
                finished_at[flow.meta] = when
                done += 1
                if following < len(transfers):
                    src, dst, size = transfers[following]
                    started_at[following] = when
                    call(
                        "simulator.tcp.start_flow", following, root, net.start_flow,
                        links_for(src, dst), size, meta=following, rate_cap=RATE_CAP,
                    )
                    following += 1
            if opened is not None:
                steps.append(clock() - step_started)
            if done < boundary or boundary > window_end:
                continue
            if opened is not None:
                sampler.sample()
                host = hostspeed.window(opened[3], sampler.totals())
                slices_out.append(
                    {
                        "ops": done - opened[0],
                        "wall": clock() - opened[1] - host["wall_s"],
                        "cpu": time.process_time() - opened[2] - host["cpu_s"],
                        "p50_step_ms": statistics.median(steps) * 1e3,
                        "host": host,
                    }
                )
                opened = None
            if boundary < window_end:
                if boundary == ramp and not message["traced"]:
                    sampler.start()
                steps = []
                opened = (done, clock(), time.process_time(), sampler.totals())
            else:
                sampler.stop()
                if message["stop_after_window"]:
                    break
            boundary += width
    finally:
        sampler.stop()
    rec.close(root)

    stats = getattr(net, "stats", None)
    traffic = net.link_traffic()
    return {
        "engine": type(net).__name__,
        "slices": slices_out,
        "done": done,
        "started_at": started_at,
        "finished_at": finished_at,
        "up_mbit": [traffic[("up", i)] for i in range(len(peers))],
        "down_mbit": [traffic[("down", i)] for i in range(len(peers))],
        "stats": {
            "full_solves": stats.full_solves,
            "incremental_solves": stats.incremental_solves,
            "dirty_flows_peak": stats.dirty_flows_peak,
            "compactions": stats.compactions,
        } if stats is not None else None,
        "fill_ms": fill_ms,
    }


def traced_flows(topology, routing, message):
    rec = Recorder()
    result = flows(topology, routing, message, rec)
    totals = rec.totals()
    # A method that was never called reports nothing: the parent then sees
    # a missing layer instead of one that cost 0.
    result["per_call_us"] = {
        name: totals[f"simulator.tcp.{name}"][1] / totals[f"simulator.tcp.{name}"][0] * 1e6
        for name in ("start_flow", "advance", "next_completion", "pop_finished")
        if f"simulator.tcp.{name}" in totals
    }
    path = procs.OUT_DIR / f"trace-{message['workload']}.json"
    rec.write(path, workload=message["workload"], seed=message["seed"])
    result["spans"] = len(rec.spans)
    result["trace_file"] = str(path.relative_to(procs.ROOT))
    return result


def main():
    procs.require_checkout_program()
    from repro.experiments.comparison import ComparisonConfig, run_comparison
    from repro.network.library import abilene
    from repro.network.routing import RoutingTable
    from repro.simulator.tcp import make_flow_network

    topology = abilene()
    routing = RoutingTable.build(topology)
    # First operation answered: a toy comparison drives every layer the
    # measured phase will (three selectors, iTracker hook, flow engine).
    run_comparison(topology, ComparisonConfig(n_peers=6, file_mbit=8.0))
    _reply(
        ready=True,
        n_pops=len(topology.nodes),
        engine=type(make_flow_network()).__name__,
    )
    for line in sys.stdin:
        message = json.loads(line)
        op = message["op"]
        if op == "compare":
            _reply(**compare(topology, message))
        elif op == "flows":
            if message["traced"]:
                _reply(**traced_flows(topology, routing, message))
            else:
                _reply(**flows(topology, routing, message, NullRecorder()))
        elif op == "quit":
            _reply(
                cpu=time.process_time(),
                rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            )
            break
        else:
            _reply(error=f"unknown op {op!r}")


if __name__ == "__main__":
    main()
