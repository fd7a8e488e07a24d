"""Tests for the optimization-decomposition loop (Sec. 5)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.decomposition import DecompositionLoop, optimality_gap
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import BandwidthDistanceProduct, MinMaxUtilization
from repro.core.session import SessionDemand
from repro.experiments.ablations import _abilene_sessions
from repro.network.library import abilene
from repro.network.topology import Topology

REPO = Path(__file__).resolve().parent.parent


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


def make_loop(topo, sessions, objective=None, step_size=0.05, step_decay=0.0, **kwargs):
    itracker = ITracker(
        topology=topo,
        config=ITrackerConfig(step_size=step_size, step_decay=step_decay),
        objective=objective or MinMaxUtilization(),
    )
    return DecompositionLoop(itracker=itracker, sessions=sessions, **kwargs)


def capacities(loop):
    topology = loop.itracker.topology
    return np.array([topology.links[key].capacity for key in topology.links])


class TestLoopMechanics:
    def test_initial_prices_on_simplex(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD")])
        prices = np.array(list(loop.itracker.link_prices.values()))
        assert float(capacities(loop) @ prices) == pytest.approx(1.0)

    def test_price_update_stays_on_simplex(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD")])
        loop.itracker.observe_loads({("A", "B"): 5.0})
        updated = np.array(list(loop.itracker.link_prices.values()))
        assert float(capacities(loop) @ updated) == pytest.approx(1.0)
        assert np.all(updated >= 0)

    def test_hot_link_price_rises(self):
        loop = make_loop(diamond_topology(), [swarm("ABCD")], step_size=0.01)
        loop.itracker.observe_loads({("A", "B"): 9.0})
        updated = loop.itracker.link_prices
        assert updated[("A", "B")] > updated[("D", "C")]

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
        with pytest.raises(ValueError):
            make_loop(topo, [swarm("ABCD")], step_decay=-0.1)

    def test_static_itracker_rejected(self):
        """A loop over static prices would never step them."""
        itracker = ITracker(
            topology=diamond_topology(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        with pytest.raises(ValueError):
            DecompositionLoop(itracker=itracker, sessions=[swarm("ABCD")])

    def test_the_loop_steps_the_itracker(self):
        """Each round is one forced ``observe_loads``: the iTracker's version
        counts the rounds and its prices are the last step's."""
        loop = make_loop(diamond_topology(), [swarm("ABCD")])
        result = loop.run(n_iterations=4)
        assert loop.itracker.version == 4
        assert result.final_pdistance == loop.itracker.view_snapshot()

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


def _history_doc(result):
    """A loop's objective and price histories as JSON-ready lists
    (``repr``-exact floats)."""
    return [
        result.objective_history,
        [[[src, dst, float(value)] for (src, dst), value in prices.items()]
         for prices in result.price_history],
    ]


def _bdp_loop():
    """The ablation's Abilene sessions under the BDP objective, with the
    diminishing damped schedule."""
    return make_loop(
        abilene(),
        _abilene_sessions(),
        objective=BandwidthDistanceProduct(),
        step_size=0.01,
        damping=0.5,
        step_decay=0.1,
        beta=1.0,
    )


class TestReplay:
    def test_histories_do_not_follow_the_hash_seed(self):
        """Two processes with different ``PYTHONHASHSEED`` replay the same
        loop: the blended patterns' pair order (and with it every link-load
        sum) is insertion order, not set order."""
        code = (
            "import json\n"
            "from tests.test_decomposition import _bdp_loop, _history_doc\n"
            "print(json.dumps(_history_doc(_bdp_loop().run(n_iterations=40))))\n"
        )
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-c", code],
                cwd=REPO,
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(json.loads(done.stdout))
        objectives, prices = zip(*outputs)
        assert objectives[0] == objectives[1]
        assert prices[0] == prices[1]


class TestPinnedHistories:
    def test_ablation_and_bdp_histories_are_pinned(self):
        """The ablation's three schedules (MLU) and the BDP loop repeat
        their objective and price histories bit for bit."""
        docs = []
        for step_size, damping, decay in ((0.02, 1.0, 0.0), (0.02, 0.5, 0.0), (0.02, 0.5, 0.1)):
            loop = make_loop(
                abilene(),
                _abilene_sessions(),
                step_size=step_size,
                damping=damping,
                step_decay=decay,
                beta=1.0,
            )
            docs.append(_history_doc(loop.run(n_iterations=80)))
        docs.append(_history_doc(_bdp_loop().run(n_iterations=40)))
        digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
        assert digest == (
            "70ad3524d098dca755e365ca88f459dc292dfd0b3fd0d8ad2dfff8c54fba6d33"
        )
