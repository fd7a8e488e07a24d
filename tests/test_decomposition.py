"""Tests for the optimization-decomposition loop (Sec. 5)."""

import numpy as np
import pytest

from repro.core.decomposition import DecompositionLoop, optimality_gap
from repro.core.objectives import BandwidthDistanceProduct, MinMaxUtilization
from repro.core.session import SessionDemand
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.network.topology import Topology


def diamond_topology():
    """A and C connected via B (cap 10) and via D (cap 10)."""
    topo = Topology()
    for pid in "ABCD":
        topo.add_pid(pid)
    topo.add_edge("A", "B", capacity=10.0)
    topo.add_edge("B", "C", capacity=10.0)
    topo.add_edge("A", "D", capacity=10.0)
    topo.add_edge("D", "C", capacity=10.0)
    return topo


def swarm(pids, cap=5.0, name="swarm"):
    return SessionDemand(
        name=name,
        uploads={pid: cap for pid in pids},
        downloads={pid: cap for pid in pids},
    )


def make_loop(topo, sessions, objective=None, **kwargs):
    routing = RoutingTable.build(topo)
    return DecompositionLoop(
        topology=topo,
        routing=routing,
        objective=objective or MinMaxUtilization(),
        sessions=sessions,
        **kwargs,
    )


class TestLoopMechanics:
    def test_initial_prices_on_simplex(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD")])
        prices = loop.initial_prices()
        capacities = np.array(
            [loop.topology.links[key].capacity for key in loop.topology.links]
        )
        assert float(capacities @ prices) == pytest.approx(1.0)

    def test_price_update_stays_on_simplex(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD")])
        prices = loop.initial_prices()
        updated = loop.price_update(prices, {("A", "B"): 5.0})
        capacities = np.array(
            [loop.topology.links[key].capacity for key in loop.topology.links]
        )
        assert float(capacities @ updated) == pytest.approx(1.0)
        assert np.all(updated >= 0)

    def test_hot_link_price_rises(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD")], step_size=0.01)
        prices = loop.initial_prices()
        updated = loop.price_update(prices, {("A", "B"): 9.0})
        order = list(loop.topology.links)
        hot = order.index(("A", "B"))
        cold = order.index(("D", "C"))
        assert updated[hot] > updated[cold]

    def test_run_produces_history(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD")])
        result = loop.run(n_iterations=5)
        assert result.iterations == 5
        assert len(result.price_history) == 5
        assert len(result.final_patterns) == 1

    def test_invalid_parameters_rejected(self):
        topo = diamond_topology()
        with pytest.raises(ValueError):
            make_loop(topo, [swarm("ABCD")], step_size=0.0)
        with pytest.raises(ValueError):
            make_loop(topo, [swarm("ABCD")], damping=0.0)
        with pytest.raises(ValueError):
            make_loop(topo, [swarm("ABCD")]).run(n_iterations=0)

    def test_throughput_floor_maintained(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD", cap=2.0)], beta=0.9)
        result = loop.run(n_iterations=8)
        from repro.core.session import max_matching_throughput

        opt, _ = max_matching_throughput(loop.sessions[0])
        assert result.final_patterns[0].total() >= 0.9 * opt - 1e-6

    def test_custom_best_response_used(self):
        from repro.core.session import TrafficPattern

        calls = []

        def fixed_response(session, pdistance):
            calls.append(session.name)
            return TrafficPattern(flows={("A", "C"): 1.0})

        loop = make_loop(
            diamond_topology(), [swarm("ABCD")], best_response=fixed_response
        )
        result = loop.run(n_iterations=3)
        assert calls == ["swarm"] * 3
        assert result.final_patterns[0].flow("A", "C") == pytest.approx(1.0)


class TestConvergence:
    def test_mlu_approaches_centralized_optimum(self):
        """The headline decomposition property: the distributed loop's MLU
        comes close to the full-information LP optimum."""
        topo = diamond_topology()
        sessions = [swarm("ABCD", cap=4.0)]
        # Damping < 1 is essential here: with theta = 1 the best response
        # oscillates between equal-cost vertex solutions (the behaviour the
        # paper's damped update t + theta * (t-bar - t) is designed to fix);
        # a diminishing schedule then averages the residual oscillation out.
        loop = make_loop(
            topo, sessions, step_size=0.02, beta=1.0, damping=0.5, step_decay=0.1
        )
        result = loop.run(n_iterations=80)
        achieved, optimum = optimality_gap(loop, result)
        assert optimum > 0
        assert achieved <= optimum * 1.25 + 1e-9

    def test_mlu_improves_over_first_iteration(self):
        topo = abilene()
        pids = ["SEAT", "NYCM", "CHIN", "ATLA", "WASH", "LOSA"]
        sessions = [swarm(pids, cap=500.0)]
        loop = make_loop(topo, sessions, step_size=0.001, beta=0.9)
        result = loop.run(n_iterations=30)
        assert min(result.objective_history) <= result.objective_history[0] + 1e-9

    def test_converged_detection(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD", cap=1.0)], step_size=0.01)
        result = loop.run(n_iterations=40)
        tail = result.objective_history[-5:]
        assert max(tail) - min(tail) <= 0.2 * max(tail)

    def test_damped_response_moves_gradually(self):
        loop = make_loop(
            diamond_topology(), [swarm("ABCD", cap=4.0)], damping=0.3, beta=1.0
        )
        result = loop.run(n_iterations=2)
        from repro.core.session import max_matching_throughput

        opt, _ = max_matching_throughput(loop.sessions[0])
        # After one damped step the pattern is only 30% of the way there.
        first_total = result.final_patterns[0].total()
        assert first_total < opt

    def test_bdp_objective_decreases(self):
        topo = abilene()
        pids = ["SEAT", "NYCM", "CHIN", "ATLA"]
        sessions = [swarm(pids, cap=200.0)]
        loop = make_loop(
            topo, sessions, objective=BandwidthDistanceProduct(), step_size=1e-5, beta=0.8
        )
        result = loop.run(n_iterations=10)
        assert min(result.objective_history) <= result.objective_history[0] + 1e-9
