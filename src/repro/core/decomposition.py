"""The P4P optimization-decomposition loop (Sec. 5, Fig. 5).

The iTracker and the application sessions interact through p-distances only:

1. the iTracker publishes per-link prices ``{p_e}`` aggregated into pair
   distances ``{p_ij}``;
2. each session computes its best response ``t-bar^k`` -- the cheapest
   acceptable traffic pattern under those distances (eq. 5 style local
   optimization);
3. sessions move their *actual* traffic a damped step toward the best
   response: ``t^k(tau+1) = t^k(tau) + theta * (t-bar^k(tau) - t^k(tau))``;
4. the iTracker measures per-link loads, forms the super-gradient
   (Proposition 1) and takes a projected step on the weighted price simplex
   ``{p : sum_e c_e p_e = 1, p >= 0}`` (eq. 14).

Neither side needs the other's internals: the decomposition decouples the
provider objective from application-specific optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.objectives import ProviderObjective, effective_capacity
from repro.core.pdistance import PDistanceMap, external_view
from repro.core.session import (
    SessionDemand,
    TrafficPattern,
    combine_link_loads,
    max_matching_throughput,
    min_cost_traffic,
)
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.optimization.projection import project_weighted_simplex, uniform_price

LinkKey = Tuple[str, str]

#: Best response callback: (session, pdistances) -> traffic pattern.
BestResponse = Callable[[SessionDemand, PDistanceMap], TrafficPattern]


@dataclass
class DecompositionResult:
    """Trajectory and outcome of one decomposition run."""

    objective_history: List[float]
    price_history: List[Dict[LinkKey, float]]
    final_patterns: List[TrafficPattern]
    final_pdistance: PDistanceMap
    link_order: Tuple[LinkKey, ...]

    def settled_objective(self, window: int = 5) -> float:
        """Mean objective over the last ``window`` iterations.

        Averages out the vertex oscillation of LP best responses.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        tail = self.objective_history[-window:]
        return sum(tail) / len(tail)

    @property
    def iterations(self) -> int:
        return len(self.objective_history)


@dataclass
class DecompositionLoop:
    """Runnable configuration of the iTracker/application interaction.

    Attributes:
        topology: Provider network (internal view).
        routing: Routing table for the topology.
        objective: Provider objective supplying super-gradients.
        sessions: Application sessions sharing the network.
        step_size: ``mu`` of the projected super-gradient update; the paper
            notes a constant step is used in practice because network and
            applications continuously evolve.
        step_decay: When > 0, both ``mu`` and ``theta`` decay as
            ``1 / (1 + decay * tau)`` -- the diminishing schedule that makes
            the damped iterates average out best-response oscillation.
        damping: ``theta`` -- how far a session moves toward its best
            response each round (1.0 = jump straight there).
        beta: Efficiency factor of the application-side constraint (6).
        best_response: Override of the application-side optimization; the
            default solves the min-cost LP (5)-(7).
    """

    topology: Topology
    routing: RoutingTable
    objective: ProviderObjective
    sessions: Sequence[SessionDemand]
    step_size: float = 0.05
    step_decay: float = 0.0
    damping: float = 1.0
    beta: float = 0.8
    best_response: Optional[BestResponse] = None

    def __post_init__(self) -> None:
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.step_decay < 0:
            raise ValueError("step_decay must be >= 0")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")
        self._link_order: Tuple[LinkKey, ...] = tuple(self.topology.links)
        self._capacities = np.array(
            [effective_capacity(self.topology.links[key]) for key in self._link_order]
        )
        self._opts = {
            session.name: max_matching_throughput(session)[0]
            for session in self.sessions
        }

    # -- pieces ---------------------------------------------------------------

    def initial_prices(self) -> np.ndarray:
        return uniform_price(self._capacities)

    def pdistances(self, prices: np.ndarray) -> PDistanceMap:
        link_prices = dict(zip(self._link_order, prices))
        offsets = self.objective.cost_offsets(self.topology)
        return external_view(self.topology, self.routing, link_prices, offsets)

    def respond(self, session: SessionDemand, pdistance: PDistanceMap) -> TrafficPattern:
        if self.best_response is not None:
            return self.best_response(session, pdistance)
        return min_cost_traffic(
            session,
            pdistance.restricted_to(session.pids),
            beta=self.beta,
            opt=self._opts[session.name],
        )

    def price_update(
        self,
        prices: np.ndarray,
        loads: Mapping[LinkKey, float],
        iteration: int = 0,
    ) -> np.ndarray:
        """One projected super-gradient step (eq. 14).

        With ``step_decay`` > 0 the step is ``mu / (1 + decay * tau)`` --
        the diminishing schedule convergence theory asks for; the paper
        notes practice uses a constant step because traffic evolves anyway.
        """
        xi = self.objective.supergradient(self.topology, self._link_order, loads)
        mu = self.step_size / (1.0 + self.step_decay * iteration)
        return project_weighted_simplex(prices + mu * xi, self._capacities)

    # -- the loop ---------------------------------------------------------------

    def run(
        self,
        n_iterations: int = 50,
        initial_prices: Optional[np.ndarray] = None,
    ) -> DecompositionResult:
        """Iterate price update / best response for ``n_iterations`` rounds."""
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        prices = (
            np.array(initial_prices, dtype=float)
            if initial_prices is not None
            else self.initial_prices()
        )
        patterns: List[TrafficPattern] = [
            TrafficPattern.zero() for _ in self.sessions
        ]
        objective_history: List[float] = []
        price_history: List[Dict[LinkKey, float]] = []
        pdistance = self.pdistances(prices)
        for _ in range(n_iterations):
            responses = [
                self.respond(session, pdistance) for session in self.sessions
            ]
            theta = self.damping / (1.0 + self.step_decay * len(objective_history))
            patterns = [
                current.blend(target, theta)
                for current, target in zip(patterns, responses)
            ]
            loads = combine_link_loads(patterns, self.routing)
            objective_history.append(self.objective.evaluate(self.topology, loads))
            price_history.append(dict(zip(self._link_order, prices)))
            prices = self.price_update(prices, loads, iteration=len(objective_history))
            pdistance = self.pdistances(prices)
        return DecompositionResult(
            objective_history=objective_history,
            price_history=price_history,
            final_patterns=patterns,
            final_pdistance=pdistance,
            link_order=self._link_order,
        )


def optimality_gap(
    loop: DecompositionLoop, result: DecompositionResult
) -> Tuple[float, float]:
    """(achieved, optimal) objective values vs the centralized LP benchmark.

    "Achieved" is the settled (late-iteration average) objective so ramping
    artifacts do not fake super-optimality.
    """
    optimum, _ = loop.objective.centralized_optimum(
        loop.topology, loop.routing, loop.sessions, beta=loop.beta
    )
    return result.settled_objective(), optimum
