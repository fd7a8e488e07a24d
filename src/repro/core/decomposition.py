"""The P4P optimization-decomposition loop (Sec. 5, Fig. 5).

The loop is an :class:`~repro.core.itracker.ITracker` plus application
sessions, and the two interact through p-distances only:

1. the iTracker publishes its per-link prices ``{p_e}`` aggregated into
   pair distances ``{p_ij}`` (:meth:`~repro.core.itracker.ITracker.view_snapshot`);
2. each session computes its best response ``t-bar^k`` -- the cheapest
   acceptable traffic pattern under those distances (eq. 5 style local
   optimization);
3. sessions move their *actual* traffic a damped step toward the best
   response: ``t^k(tau+1) = t^k(tau) + theta * (t-bar^k(tau) - t^k(tau))``;
4. the iTracker measures per-link loads, forms the super-gradient
   (Proposition 1) and takes a projected step on the weighted price simplex
   ``{p : sum_e c_e p_e = 1, p >= 0}`` (eq. 14,
   :meth:`~repro.core.itracker.ITracker.observe_loads`).

Neither side needs the other's internals: the decomposition decouples the
provider objective from application-specific optimization.  The loop keeps
no price state of its own, so it steps the same code a deployed portal runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.itracker import ITracker, PriceMode
from repro.core.pdistance import PDistanceMap
from repro.core.session import (
    SessionDemand,
    TrafficPattern,
    combine_link_loads,
    max_matching_throughput,
    min_cost_traffic,
)

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
        itracker: The provider side, in :attr:`PriceMode.DYNAMIC`: its
            topology, routing and objective are the loop's, its
            ``step_size`` / ``step_decay`` set the price step, and each
            round steps its prices in place.
        sessions: Application sessions sharing the network.
        damping: ``theta`` -- how far a session moves toward its best
            response each round (1.0 = jump straight there).  With the
            iTracker's ``step_decay`` > 0, ``theta`` decays as ``1 / (1 +
            decay * tau)`` too: the diminishing schedule that makes the
            damped iterates average out best-response oscillation.
        beta: Efficiency factor of the application-side constraint (6).
        best_response: Override of the application-side optimization; the
            default solves the min-cost LP (5)-(7).
    """

    itracker: ITracker
    sessions: Sequence[SessionDemand]
    damping: float = 1.0
    beta: float = 0.8
    best_response: Optional[BestResponse] = None

    def __post_init__(self) -> None:
        if self.itracker.config.mode is not PriceMode.DYNAMIC:
            raise ValueError("the decomposition loop needs a DYNAMIC-mode iTracker")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")
        self._opts = {
            session.name: max_matching_throughput(session)[0]
            for session in self.sessions
        }

    def respond(self, session: SessionDemand, pdistance: PDistanceMap) -> TrafficPattern:
        if self.best_response is not None:
            return self.best_response(session, pdistance)
        return min_cost_traffic(
            session,
            pdistance.restricted_to(session.pids),
            beta=self.beta,
            opt=self._opts[session.name],
        )

    def run(self, n_iterations: int = 50) -> DecompositionResult:
        """Iterate price update / best response for ``n_iterations`` rounds."""
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        itracker = self.itracker
        decay = itracker.config.step_decay
        patterns: List[TrafficPattern] = [
            TrafficPattern.zero() for _ in self.sessions
        ]
        objective_history: List[float] = []
        price_history: List[Dict[LinkKey, float]] = []
        pdistance = itracker.view_snapshot()
        for _ in range(n_iterations):
            responses = [
                self.respond(session, pdistance) for session in self.sessions
            ]
            theta = self.damping / (1.0 + decay * len(objective_history))
            patterns = [
                current.blend(target, theta)
                for current, target in zip(patterns, responses)
            ]
            loads = combine_link_loads(patterns, itracker.routing)
            objective_history.append(
                itracker.objective.evaluate(itracker.topology, loads)
            )
            price_history.append(itracker.link_prices)
            itracker.observe_loads(loads)
            pdistance = itracker.view_snapshot()
        return DecompositionResult(
            objective_history=objective_history,
            price_history=price_history,
            final_patterns=patterns,
            final_pdistance=pdistance,
        )


def optimality_gap(
    loop: DecompositionLoop, result: DecompositionResult
) -> Tuple[float, float]:
    """(achieved, optimal) objective values vs the centralized LP benchmark.

    "Achieved" is the settled (late-iteration average) objective so ramping
    artifacts do not fake super-optimality.
    """
    itracker = loop.itracker
    optimum, _ = itracker.objective.centralized_optimum(
        itracker.topology, itracker.routing, loop.sessions, beta=loop.beta
    )
    return result.settled_objective(), optimum
