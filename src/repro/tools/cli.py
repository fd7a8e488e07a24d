"""Command-line experiment runner: ``python -m repro.tools.cli <experiment>``.

Runs any reproduced table/figure at an adjustable scale and prints the
same rows the benchmarks report -- the quickest way to regenerate one
result without invoking pytest.

Examples::

    python -m repro.tools.cli table1
    python -m repro.tools.cli fig6 --peers 120 --runs 2
    python -m repro.tools.cli fieldtest --clients 600
    python -m repro.tools.cli telemetry --portal 127.0.0.1:6671
    python -m repro.tools.cli lint --format json
    python -m repro.tools.cli chaos --seed 11
    python -m repro.tools.cli list

``chaos`` runs the seeded crash/partition/corruption scenario of
:mod:`repro.simulator.chaos` (primary + standby, state store, failover
client) and exits non-zero if any invariant -- version monotonicity,
bounded staleness, no price reset, MLU re-convergence -- is violated.

``telemetry`` is the operator-facing scrape: it calls ``get_metrics`` on
one or more live portals and renders the text dashboard (request rates,
latency percentiles, price-update convergence, resilience counters), or
dumps the raw Prometheus/JSON exposition for piping elsewhere.

``lint`` runs p4plint (:mod:`repro.analysis`), the repo's AST-based
invariant checker, over the source tree; it exits non-zero on any
non-baselined finding, which is how CI gates on the invariants.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence


def _run_table1(args: argparse.Namespace, out) -> None:
    from repro.experiments.table1_topologies import format_table1, run_table1

    print(format_table1(run_table1()), file=out)


def _run_fig6(args: argparse.Namespace, out) -> None:
    from repro.experiments.fig6_internet import run_fig6

    fig6 = run_fig6(n_peers=args.peers, n_runs=args.runs)
    for scheme in ("native", "localized", "p4p"):
        print(
            f"{scheme:<10} mean {fig6.mean_completion(scheme):7.1f}s  "
            f"bottleneck {fig6.bottleneck_mbit(scheme):8.1f} Mbit",
            file=out,
        )


def _run_fig7(args: argparse.Namespace, out) -> None:
    from repro.experiments.fig7_fig8_sweep import run_fig7

    sweep = run_fig7(swarm_sizes=tuple(args.sizes))
    for point in sweep.points:
        row = "  ".join(
            f"{scheme} {point.mean_completion[scheme]:6.1f}s"
            for scheme in sorted(point.mean_completion)
        )
        print(f"size {point.swarm_size:4d}: {row}", file=out)
    print(f"p4p improvement vs native: {sweep.improvement_percent('p4p'):.1f}%", file=out)


def _run_fig8(args: argparse.Namespace, out) -> None:
    from repro.experiments.fig7_fig8_sweep import run_fig8

    sweep = run_fig8(swarm_sizes=tuple(args.sizes))
    for scheme in ("native", "localized", "p4p"):
        series = "  ".join(
            f"{size}:{value:.2f}" for size, value in sweep.normalized_series(scheme)
        )
        print(f"{scheme:<10} {series}", file=out)


def _run_fig9(args: argparse.Namespace, out) -> None:
    from repro.experiments.fig9_liveswarms import run_fig9

    fig9 = run_fig9(n_clients=args.clients, duration=args.duration)
    print(
        f"native {fig9.mean_backbone_mb('native'):8.2f} MB/link   "
        f"p4p {fig9.mean_backbone_mb('p4p'):8.2f} MB/link   "
        f"reduction {fig9.reduction_percent():.1f}%",
        file=out,
    )


def _run_fig10(args: argparse.Namespace, out) -> None:
    from repro.experiments.fig10_interdomain import run_fig10

    fig10 = run_fig10(n_peers=args.peers)
    for scheme in ("native", "localized", "p4p"):
        volumes = "  ".join(
            f"{link[0]}->{link[1]}:{fig10.charging[scheme].get(link, 0.0):8.1f}"
            for link in fig10.interdomain_links
        )
        print(f"{scheme:<10} {volumes}", file=out)


def _run_fieldtest(args: argparse.Namespace, out) -> None:
    from repro.experiments.fig11_12_fieldtest import run_field_test
    from repro.simulator.fieldtest import FieldTestConfig

    figures = run_field_test(FieldTestConfig(n_clients=args.clients))
    table2 = figures.table2()
    for row, ratio in table2["ratio"].items():
        print(
            f"{row:<24} native {table2['native'][row]:10.0f}  "
            f"p4p {table2['p4p'][row]:10.0f}  ratio {ratio:5.2f}",
            file=out,
        )
    bdp = figures.unit_bdp()
    print(
        f"unit BDP {bdp['native']:.2f} -> {bdp['p4p']:.2f}; "
        f"completion improvement {figures.overall_improvement_percent():.1f}%",
        file=out,
    )


def _run_sec8(args: argparse.Namespace, out) -> None:
    from repro.experiments.sec8_swarms import run_sec8

    result = run_sec8(n_swarms=args.swarms)
    print(
        f"{result.n_swarms} swarms: {result.empirical_tail * 100:.2f}% above "
        f"{result.threshold} leechers (paper {result.paper_tail * 100:.2f}%)",
        file=out,
    )


def _run_ablations(args: argparse.Namespace, out) -> None:
    from repro.experiments.ablations import (
        run_ablation_charging,
        run_ablation_decomposition,
        run_ablation_granularity,
    )

    for entry in run_ablation_decomposition(n_iterations=args.iterations):
        print(
            f"decomposition mu={entry.step_size} theta={entry.damping} "
            f"decay={entry.step_decay}: MLU {entry.achieved_mlu:.4f} vs "
            f"optimal {entry.optimal_mlu:.4f} (gap {entry.gap_percent:+.1f}%)",
            file=out,
        )
    charging = run_ablation_charging()
    print(
        f"charging predictor: hybrid err {charging.hybrid_mean_error:.3f} vs "
        f"sliding {charging.sliding_mean_error:.3f}",
        file=out,
    )
    granularity = run_ablation_granularity()
    print(
        f"rank coarsening penalty: {granularity.rank_penalty_percent:.1f}%",
        file=out,
    )


def _parse_portal(spec: str):
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad --portal {spec!r}; expected host:port")
    return host, int(port)


def _run_telemetry(args: argparse.Namespace, out) -> None:
    from repro.observability.dashboard import render_dashboard
    from repro.portal.client import PortalClient

    documents = {}
    for spec in args.portal:
        host, port = _parse_portal(spec)
        with PortalClient(host, port, timeout=args.timeout) as client:
            if args.format == "prometheus":
                print(client.get_metrics(format="prometheus")["text"], file=out)
            elif args.format == "json":
                documents[spec] = client.get_metrics()
            else:
                print(render_dashboard(client.get_metrics(), title=spec), file=out)
    if args.format == "json":
        import json

        print(json.dumps(documents, sort_keys=True, indent=2), file=out)


def _run_lint(args: argparse.Namespace, out) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args, out=out)


def _run_fuzz(args: argparse.Namespace, out) -> int:
    from repro.fuzz.cli import run_fuzz

    return run_fuzz(args, out=out)


def _run_chaos(args: argparse.Namespace, out) -> int:
    from repro.simulator.chaos import ChaosSchedule, format_chaos, run_chaos

    schedule = ChaosSchedule.seeded(
        args.seed, horizon=args.horizon, with_state=not args.no_state
    )
    result = run_chaos(
        schedule=schedule,
        seed=args.seed,
        with_state=not args.no_state,
        n_peers=args.peers,
    )
    print(format_chaos(result, epsilon=args.epsilon), file=out)
    return 1 if result.violations else 0


def _run_overload(args: argparse.Namespace, out) -> int:
    import json

    from repro.simulator.overload import (
        OverloadScenarioSpec,
        format_overload,
        run_overload,
    )

    spec = OverloadScenarioSpec(
        seed=args.seed,
        multiple=args.multiple,
        duration=args.duration,
        drain_at=None if args.no_drain else args.drain_at,
    )
    report = run_overload(spec)
    if args.format == "json":
        print(json.dumps(report.document, sort_keys=True, indent=2), file=out)
    else:
        print(format_overload(report), file=out)
    return 1 if report.violations else 0


def _run_trace(args: argparse.Namespace, out) -> int:
    import json

    from repro.observability.assembler import (
        canonical_json,
        critical_path,
        format_trace_tree,
        slowest,
    )

    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        from repro.simulator.traced import run_traced_scenario

        document = run_traced_scenario(seed=args.seed)
    trees = document.get("traces", [])
    if args.format == "json":
        out.write(canonical_json(document))
        return 0
    ranked = slowest(trees, args.slowest) if args.slowest else trees
    for tree in ranked:
        print(f"trace {tree['trace_id']}:", file=out)
        print(format_trace_tree(tree), file=out)
        path = critical_path(tree)
        names = " -> ".join(node["name"] for node in path)
        tail = path[-1]
        duration = tail["duration"]
        timing = f"{duration * 1000.0:.3f}ms" if duration is not None else "open"
        print(f"critical path: {names} (leaf {timing})", file=out)
        print(file=out)
    print(f"{len(trees)} trace(s) exported", file=out)
    return 0


def _loadtest_itracker(topology_name: str):
    from repro.core.itracker import ITracker
    from repro.core.pdistance import uniform_pid_map
    from repro.observability import NULL_TELEMETRY

    if topology_name == "abilene":
        from repro.network.library import abilene

        topo = abilene()
    elif topology_name in ("isp-a", "isp-b", "isp-c"):
        from repro.network import generators

        topo = getattr(generators, topology_name.replace("-", "_"))()
    else:
        raise SystemExit(f"unknown --topology {topology_name!r}")
    return ITracker(
        topology=topo, pid_map=uniform_pid_map(topo), telemetry=NULL_TELEMETRY
    )


def _run_loadtest(args: argparse.Namespace, out) -> int:
    from repro.observability import NULL_TELEMETRY
    from repro.portal.aserver import AsyncPortalServer
    from repro.workloads.loadgen import (
        LoadSpec,
        build_schedule,
        dump_json,
        format_summary,
        run,
    )

    probe = _loadtest_itracker(args.topology)
    spec = LoadSpec(
        connections=args.connections,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        churn=args.churn,
        pid_pool=tuple(probe.get_pdistances().pids),
    )
    schedule = build_schedule(spec)
    with AsyncPortalServer(
        _loadtest_itracker(args.topology),
        workers=args.workers,
        telemetry=NULL_TELEMETRY,
    ) as server:
        summary = run(spec, server.address, schedule=schedule)
    if args.format == "text":
        print(format_summary("portal", summary), file=out)
    else:
        print(dump_json(summary.to_document()), file=out)
    return 1 if summary.errors else 0


_EXPERIMENTS: Dict[str, Callable] = {
    "table1": _run_table1,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fieldtest": _run_fieldtest,
    "sec8": _run_sec8,
    "ablations": _run_ablations,
    "telemetry": _run_telemetry,
    "lint": _run_lint,
    "chaos": _run_chaos,
    "overload": _run_overload,
    "fuzz": _run_fuzz,
    "trace": _run_trace,
    "loadtest": _run_loadtest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the P4P paper (SIGCOMM 2008).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("table1", help="Table 1: networks evaluated")
    fig6 = sub.add_parser("fig6", help="Fig. 6: Abilene BitTorrent comparison")
    fig6.add_argument("--peers", type=int, default=120)
    fig6.add_argument("--runs", type=int, default=2)
    for name in ("fig7", "fig8"):
        sweep = sub.add_parser(name, help=f"{name}: swarm-size sweep")
        sweep.add_argument("--sizes", type=int, nargs="+", default=[100, 200])
    fig9 = sub.add_parser("fig9", help="Fig. 9: Liveswarms volumes")
    fig9.add_argument("--clients", type=int, default=40)
    fig9.add_argument("--duration", type=float, default=300.0)
    fig10 = sub.add_parser("fig10", help="Fig. 10: interdomain charging")
    fig10.add_argument("--peers", type=int, default=100)
    fieldtest = sub.add_parser("fieldtest", help="Figs. 11/12, Tables 2/3")
    fieldtest.add_argument("--clients", type=int, default=600)
    sec8 = sub.add_parser("sec8", help="Sec. 8: swarm-population tail")
    sec8.add_argument("--swarms", type=int, default=34_721)
    ablations = sub.add_parser("ablations", help="design-choice ablations")
    ablations.add_argument("--iterations", type=int, default=60)
    telemetry = sub.add_parser(
        "telemetry", help="scrape live portals' get_metrics and render them"
    )
    telemetry.add_argument(
        "--portal",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="portal address; repeat to scrape several iTrackers",
    )
    telemetry.add_argument(
        "--format",
        choices=("dashboard", "prometheus", "json"),
        default="dashboard",
    )
    telemetry.add_argument("--timeout", type=float, default=5.0)
    chaos = sub.add_parser(
        "chaos",
        help="seeded crash/partition/corruption scenario with invariant "
        "checks; exits non-zero on any violation",
    )
    chaos.add_argument("--seed", type=int, default=11)
    chaos.add_argument("--peers", type=int, default=12)
    chaos.add_argument(
        "--horizon", type=float, default=100.0,
        help="window of simulation time the seeded events land in",
    )
    chaos.add_argument(
        "--epsilon", type=float, default=0.15,
        help="relative MLU re-convergence tolerance vs the fault-free twin",
    )
    chaos.add_argument(
        "--no-state",
        action="store_true",
        help="restart the crashed portal without its state store "
        "(demonstrates the amnesiac-restart violations the store prevents)",
    )
    overload = sub.add_parser(
        "overload",
        help="seeded flash-crowd scenario replaying the real admission/"
        "brownout/drain state machines against an unprotected twin; "
        "exits non-zero on any overload-invariant violation",
    )
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument(
        "--multiple", type=float, default=2.0,
        help="offered load as a multiple of server capacity",
    )
    overload.add_argument("--duration", type=float, default=8.0)
    overload.add_argument(
        "--drain-at", type=float, default=6.0,
        help="simulation time at which the graceful drain starts",
    )
    overload.add_argument(
        "--no-drain", action="store_true",
        help="run the whole scenario without draining",
    )
    overload.add_argument("--format", choices=("text", "json"), default="text")
    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzer over the chaos, differential, "
        "and view-validation oracles; exits non-zero on any finding",
    )
    from repro.fuzz.cli import add_fuzz_arguments

    add_fuzz_arguments(fuzz)
    trace = sub.add_parser(
        "trace",
        help="run the scripted faulted scenario (or load an export) and "
        "render its distributed trace trees",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--format",
        choices=("tree", "json"),
        default="tree",
        help="tree: ASCII causal trees + critical paths; json: the "
        "canonical deterministic export document",
    )
    trace.add_argument(
        "--input",
        metavar="FILE",
        default=None,
        help="render a previously exported trace document instead of "
        "running the scripted scenario",
    )
    trace.add_argument(
        "--slowest",
        type=int,
        default=0,
        metavar="N",
        help="only render the N slowest traces (by root duration)",
    )
    loadtest = sub.add_parser(
        "loadtest",
        help="drive the portal with a seeded open-loop workload and report "
        "QPS + latency percentiles",
    )
    loadtest.add_argument("--connections", type=int, default=100)
    loadtest.add_argument(
        "--rate", type=float, default=2000.0,
        help="offered load, requests/second across all connections",
    )
    loadtest.add_argument("--duration", type=float, default=2.0)
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--churn", type=float, default=0.005,
        help="probability a request is preceded by a reconnect",
    )
    loadtest.add_argument(
        "--workers", type=int, default=2, help="server worker loops"
    )
    loadtest.add_argument(
        "--topology", choices=("abilene", "isp-a", "isp-b", "isp-c"),
        default="abilene",
    )
    loadtest.add_argument("--format", choices=("text", "json"), default="text")
    lint = sub.add_parser(
        "lint", help="run p4plint, the AST-based invariant checker"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in _EXPERIMENTS:
            print(name, file=out)
        return 0
    status = _EXPERIMENTS[args.experiment](args, out)
    return int(status) if status is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
