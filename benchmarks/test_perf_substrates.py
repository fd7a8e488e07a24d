"""Performance benchmarks of the numerical substrates.

These are true pytest-benchmark microbenchmarks (multiple rounds) for the
hot paths the simulator and iTracker lean on; regressions here translate
directly into slower experiment turnaround.
"""

import random

import numpy as np
import pytest

from repro.core.session import SessionDemand, max_matching_throughput
from repro.network.generators import isp_b
from repro.network.routing import RoutingTable
from repro.optimization.maxmin import maxmin_rates
from repro.optimization.projection import project_weighted_simplex


def test_perf_maxmin_5000_flows(benchmark):
    """Water-filling at simulator scale: 5k flows over 500 links."""
    rng = random.Random(1)
    n_links, n_flows = 500, 5000
    capacities = [rng.uniform(10.0, 1000.0) for _ in range(n_links)]
    flows = [
        [rng.randrange(n_links) for _ in range(rng.randint(2, 6))]
        for _ in range(n_flows)
    ]
    rates = benchmark(maxmin_rates, flows, capacities)
    assert rates.shape == (n_flows,)
    assert np.all(rates[np.isfinite(rates)] >= 0)


def test_perf_simplex_projection_10k(benchmark):
    """The eq. 14 projection at 10k-link scale."""
    rng = np.random.default_rng(2)
    q = rng.normal(size=10_000)
    c = rng.uniform(0.5, 100.0, size=10_000)
    p = benchmark(project_weighted_simplex, q, c)
    assert float(c @ p) == pytest.approx(1.0, abs=1e-6)


def test_perf_routing_table_isp_b(benchmark):
    """All-pairs route construction on the 52-PoP ISP-B map."""
    topo = isp_b()
    table = benchmark(RoutingTable.build, topo)
    assert table.has_route(topo.pids[0], topo.pids[-1])


def test_perf_matching_lp_52_pids(benchmark):
    """The bandwidth-matching LP at field-test width (52 PIDs, 2652 vars)."""
    topo = isp_b()
    rng = random.Random(3)
    pids = topo.aggregation_pids
    session = SessionDemand(
        name="big",
        uploads={pid: rng.uniform(1.0, 100.0) for pid in pids},
        downloads={pid: rng.uniform(1.0, 100.0) for pid in pids},
    )
    opt, _ = benchmark(max_matching_throughput, session)
    assert opt > 0
