"""Application sessions and their acceptable traffic patterns ``T^k``.

An application session ``k`` (one P2P swarm) aggregates its per-PID upload
(supply) and download (demand) capacities.  The set of acceptable inter-PID
traffic patterns ``T^k`` is defined by the paper's constraints (2)-(4),
optionally tightened by the robustness lower bounds (7) and an efficiency
floor (6).

This module provides the session data model, the *traffic pattern* value
type, and the two LPs from the application use cases of Sec. 4:

* ``max_matching_throughput`` -- maximize matched upload/download bandwidth,
  objective (1) under (2)-(4), yielding ``OPT``;
* ``min_cost_traffic`` -- minimize ``sum p_ij * t_ij``, objective (5), under
  (2)-(4), the efficiency floor (6) with factor ``beta``, and the robustness
  constraints (7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.pdistance import PDistanceMap
from repro.optimization.linprog import LinearProgram

PidPair = Tuple[str, str]


@dataclass(frozen=True)
class TrafficPattern:
    """An inter-PID traffic assignment ``t_ij`` (Mbps), ``i != j``."""

    flows: Mapping[PidPair, float]

    def __post_init__(self) -> None:
        for (src, dst), value in self.flows.items():
            if src == dst:
                raise ValueError(f"intra-PID flow ({src}, {dst}) not allowed")
            if value < -1e-9:
                raise ValueError(f"negative flow on ({src}, {dst})")

    def total(self) -> float:
        return sum(self.flows.values())

    def flow(self, src: str, dst: str) -> float:
        return self.flows.get((src, dst), 0.0)

    def cost(self, pdistance: PDistanceMap) -> float:
        """``sum p_ij * t_ij`` under a p-distance map."""
        return sum(
            pdistance.distance(src, dst) * value
            for (src, dst), value in self.flows.items()
        )

    def link_loads(self, routing) -> Dict[Tuple[str, str], float]:
        """Per-link load when the pattern is routed over a topology."""
        loads: Dict[Tuple[str, str], float] = {}
        for (src, dst), value in self.flows.items():
            if value <= 0:
                continue
            for key in routing.route(src, dst):
                loads[key] = loads.get(key, 0.0) + value
        return loads

    def blend(self, target: "TrafficPattern", theta: float) -> "TrafficPattern":
        """Damped move toward ``target``: ``t + theta * (target - t)``.

        This is the practical application response of Sec. 5 -- a session
        cannot rewire all its connections instantly.
        """
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        # Insertion order, not set order: the link-load sums downstream
        # follow this order, so it must not depend on ``PYTHONHASHSEED``.
        pairs = dict.fromkeys([*self.flows, *target.flows])
        blended = {
            pair: (1 - theta) * self.flows.get(pair, 0.0)
            + theta * target.flows.get(pair, 0.0)
            for pair in pairs
        }
        return TrafficPattern(flows=blended)

    @classmethod
    def zero(cls) -> "TrafficPattern":
        return cls(flows={})


@dataclass
class SessionDemand:
    """Aggregated per-PID capacities of one application session.

    Attributes:
        name: Session label.
        uploads: ``u_i^k`` -- total upload capacity of PID-i peers (Mbps).
        downloads: ``d_i^k`` -- total download capacity of PID-i peers.
        rho: Robustness lower bounds ``rho_ij`` -- minimum fraction of
            PID-i's total outgoing traffic that must go to PID-j (eq. 7).
    """

    name: str
    uploads: Dict[str, float]
    downloads: Dict[str, float]
    rho: Dict[PidPair, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.uploads) != set(self.downloads):
            raise ValueError("uploads and downloads must cover the same PIDs")
        for pid, value in self.uploads.items():
            if value < 0 or self.downloads[pid] < 0:
                raise ValueError(f"negative capacity at PID {pid!r}")
        by_src: Dict[str, float] = {}
        for (src, dst), bound in self.rho.items():
            if src == dst:
                raise ValueError("rho is defined for distinct PIDs only")
            if not 0.0 <= bound <= 1.0:
                raise ValueError("rho bounds must be in [0, 1]")
            by_src[src] = by_src.get(src, 0.0) + bound
        for src, total in by_src.items():
            if total >= 1.0:
                raise ValueError(f"rho bounds from {src!r} sum to >= 1")

    @property
    def pids(self) -> List[str]:
        return list(self.uploads)

    def pairs(self) -> List[PidPair]:
        """All ordered PID pairs the session can send traffic over."""
        pids = self.pids
        return [(i, j) for i in pids for j in pids if i != j]


def _add_capacity_constraints(lp: LinearProgram, session: SessionDemand) -> None:
    """Constraints (2)-(4): per-PID aggregate upload and download caps."""
    for pid in session.pids:
        out_terms = {f"t_{pid}_{dst}": 1.0 for dst in session.pids if dst != pid}
        in_terms = {f"t_{src}_{pid}": 1.0 for src in session.pids if src != pid}
        if out_terms:
            lp.add_le(out_terms, session.uploads[pid])
        if in_terms:
            lp.add_le(in_terms, session.downloads[pid])


def _add_robustness_constraints(lp: LinearProgram, session: SessionDemand) -> None:
    """Constraints (7): ``t_ij >= rho_ij * sum_j' t_ij'``."""
    for (src, dst), bound in session.rho.items():
        if bound <= 0:
            continue
        coeffs = {
            f"t_{src}_{other}": -bound for other in session.pids if other != src
        }
        coeffs[f"t_{src}_{dst}"] = coeffs.get(f"t_{src}_{dst}", 0.0) + 1.0
        lp.add_ge(coeffs, 0.0)


def max_matching_throughput(session: SessionDemand) -> Tuple[float, TrafficPattern]:
    """LP (1)-(4): maximize total matched upload/download bandwidth.

    Returns ``(OPT, pattern)`` where OPT is the network-oblivious optimum
    the efficiency floor (6) is expressed against.
    """
    pairs = session.pairs()
    if not pairs:
        return 0.0, TrafficPattern.zero()
    lp = LinearProgram(name=f"matching[{session.name}]")
    for src, dst in pairs:
        lp.add_var(f"t_{src}_{dst}")
    _add_capacity_constraints(lp, session)
    lp.set_objective({f"t_{src}_{dst}": 1.0 for src, dst in pairs}, maximize=True)
    solution = lp.solve()
    pattern = TrafficPattern(
        flows={
            (src, dst): max(0.0, solution[f"t_{src}_{dst}"]) for src, dst in pairs
        }
    )
    return solution.objective, pattern


def min_cost_traffic(
    session: SessionDemand,
    pdistance: PDistanceMap,
    beta: float = 0.8,
    opt: Optional[float] = None,
) -> TrafficPattern:
    """LP (5)-(7): minimize network cost at ``>= beta * OPT`` throughput.

    Args:
        session: The session's acceptable-set parameters.
        pdistance: The external-view p-distances to price traffic with.
        beta: Efficiency factor of constraint (6).
        opt: Pre-computed OPT; computed via the matching LP when omitted.

    Raises:
        InfeasibleError: If the robustness bounds make the floor unreachable.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if opt is None:
        opt, _ = max_matching_throughput(session)
    pairs = session.pairs()
    if not pairs or opt <= 0:
        return TrafficPattern.zero()
    lp = LinearProgram(name=f"mincost[{session.name}]")
    for src, dst in pairs:
        lp.add_var(f"t_{src}_{dst}")
    _add_capacity_constraints(lp, session)
    _add_robustness_constraints(lp, session)
    lp.add_ge({f"t_{src}_{dst}": 1.0 for src, dst in pairs}, beta * opt)
    lp.set_objective(
        {
            f"t_{src}_{dst}": pdistance.distance(src, dst)
            for src, dst in pairs
        }
    )
    solution = lp.solve()
    return TrafficPattern(
        flows={
            (src, dst): max(0.0, solution[f"t_{src}_{dst}"]) for src, dst in pairs
        }
    )


def combine_link_loads(
    patterns: Iterable[TrafficPattern], routing
) -> Dict[Tuple[str, str], float]:
    """Total per-link P4P load of several sessions routed together."""
    loads: Dict[Tuple[str, str], float] = {}
    for pattern in patterns:
        for key, value in pattern.link_loads(routing).items():
            loads[key] = loads.get(key, 0.0) + value
    return loads
