"""Inter-AS peer selection under conflicting p-distances (Sec. 6.2).

Two ASes may disagree on cross-AS traffic: a provider prefers sending to
its customer, who prefers sending to *its* customers.  The paper's
implementation sidesteps the conflict by using the joining client's AS
view (the inter-PID weights of :func:`repro.apptracker.selection.pdistance_weights`
on that view); it names the **Nash Bargaining Solution** as the principled
alternative, which :func:`nash_bargaining_weights` implements: choose the
allocation ``w`` (a distribution over cross-AS PID pairs) maximizing
``(U_A(w)) * (U_B(w))`` where each ISP's utility is its cost saving
relative to the disagreement point (the uniform split both would face
without cooperation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.core.pdistance import PDistanceMap

PidPair = Tuple[str, str]


@dataclass(frozen=True)
class BargainingOutcome:
    """The agreed cross-AS traffic split and both sides' surpluses."""

    weights: Dict[PidPair, float]
    utility_a: float
    utility_b: float
    disagreement_cost_a: float
    disagreement_cost_b: float

    @property
    def nash_product(self) -> float:
        return self.utility_a * self.utility_b


def nash_bargaining_weights(
    pairs: Sequence[PidPair],
    cost_a: Mapping[PidPair, float],
    cost_b: Mapping[PidPair, float],
) -> BargainingOutcome:
    """NBS over a distribution of cross-AS peering weight.

    Args:
        pairs: Candidate cross-AS PID pairs the traffic can use.
        cost_a: AS-A's per-unit cost (its p-distance) for each pair.
        cost_b: AS-B's per-unit cost for each pair.

    The disagreement point is the uniform split (no cooperation: neither
    side can steer, so traffic spreads evenly).  Each ISP's utility is its
    cost saving vs that point; the NBS maximizes the product of utilities
    over the weight simplex.  If no allocation improves on the
    disagreement point for both sides simultaneously, the uniform split is
    returned with zero utilities.

    Raises:
        ValueError: On empty pairs or missing/negative costs.
    """
    from scipy.optimize import minimize  # here, so importing repro never loads SciPy

    if not pairs:
        raise ValueError("need at least one candidate pair")
    n = len(pairs)
    a = np.array([float(cost_a[pair]) for pair in pairs])
    b = np.array([float(cost_b[pair]) for pair in pairs])
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("costs must be non-negative")

    uniform = np.full(n, 1.0 / n)
    disagreement_a = float(a @ uniform)
    disagreement_b = float(b @ uniform)

    def negative_log_nash(w: np.ndarray) -> float:
        utility_a = disagreement_a - float(a @ w)
        utility_b = disagreement_b - float(b @ w)
        if utility_a <= 0 or utility_b <= 0:
            return 1e9 + max(0.0, -utility_a) + max(0.0, -utility_b)
        return -(math.log(utility_a) + math.log(utility_b))

    best_w = uniform
    best_value = negative_log_nash(uniform)
    # Multi-start projected optimization over the simplex (small n).
    candidates = [uniform]
    cheapest_a = np.zeros(n)
    cheapest_a[int(np.argmin(a))] = 1.0
    cheapest_b = np.zeros(n)
    cheapest_b[int(np.argmin(b))] = 1.0
    candidates.append(0.5 * (cheapest_a + cheapest_b))
    candidates.append(0.25 * cheapest_a + 0.25 * cheapest_b + 0.5 * uniform)
    constraints = [{"type": "eq", "fun": lambda w: float(np.sum(w)) - 1.0}]
    bounds = [(0.0, 1.0)] * n
    for start in candidates:
        result = minimize(
            negative_log_nash,
            start,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-10},
        )
        if result.success and result.fun < best_value:
            best_value = result.fun
            best_w = np.clip(result.x, 0.0, None)
            total = best_w.sum()
            if total > 0:
                best_w = best_w / total

    utility_a = disagreement_a - float(a @ best_w)
    utility_b = disagreement_b - float(b @ best_w)
    if utility_a <= 0 or utility_b <= 0:
        # No mutually beneficial deal: fall back to the disagreement point.
        best_w = uniform
        utility_a = 0.0
        utility_b = 0.0
    return BargainingOutcome(
        weights={pair: float(w) for pair, w in zip(pairs, best_w)},
        utility_a=utility_a,
        utility_b=utility_b,
        disagreement_cost_a=disagreement_a,
        disagreement_cost_b=disagreement_b,
    )


def bargaining_from_views(
    view_a: PDistanceMap,
    view_b: PDistanceMap,
    pairs: Sequence[PidPair],
) -> BargainingOutcome:
    """Convenience wrapper: build per-pair costs from two ASes' views."""
    cost_a = {pair: view_a.distance(*pair) for pair in pairs}
    cost_b = {pair: view_b.distance(*pair) for pair in pairs}
    return nash_bargaining_weights(pairs, cost_a, cost_b)
