"""Provider traffic-engineering objectives and their decomposition hooks.

Each objective supplies, per Sec. 5:

* ``effective_capacity`` -- the capacity used in the price simplex
  ``{p : sum c_e p_e = 1}`` and in constraints; interdomain links use their
  virtual capacity ``v_e`` (constraint 16) when set, so the multihoming cost
  objective composes with either intradomain objective;
* ``cost_offsets`` -- per-link additive costs exposed to applications on top
  of the dual prices (``d_e`` for the bandwidth-distance product, eq. 15);
* ``supergradient`` -- the super-gradient ``xi`` of the dual function at the
  current prices, from Proposition 1 and its BDP analogue;
* ``evaluate`` -- the primal objective value of a given load assignment;
* ``centralized_optimum`` -- the full-information LP benchmark the
  distributed loop is compared against.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.session import (
    SessionDemand,
    TrafficPattern,
    _add_capacity_constraints,
    _add_robustness_constraints,
    max_matching_throughput,
)
from repro.network.routing import RoutingTable
from repro.network.topology import Link, Topology
from repro.optimization.linprog import LinearProgram

LinkKey = Tuple[str, str]


def effective_capacity(link: Link) -> float:
    """``c_e``, or the virtual capacity ``v_e`` on a charged link."""
    if link.interdomain and link.virtual_capacity is not None:
        return max(link.virtual_capacity, 1e-9)
    return link.capacity


def link_vector(
    link_order: Sequence[LinkKey], values: Mapping[LinkKey, float]
) -> np.ndarray:
    """Per-link ``values`` as a float vector over ``link_order`` (0 where
    a link has none)."""
    return np.fromiter(map(values.get, link_order, repeat(0.0)), float, len(link_order))


def _link_state(
    topology: Topology, link_order: Sequence[LinkKey]
) -> Tuple[np.ndarray, np.ndarray]:
    """Background ``b_e`` and effective capacity ``c_e`` over ``link_order``,
    read from the links as they are now."""
    links = list(map(topology.links.__getitem__, link_order))
    background = np.fromiter(map(attrgetter("background"), links), float, len(links))
    capacity = np.fromiter(map(effective_capacity, links), float, len(links))
    return background, capacity


class ProviderObjective(abc.ABC):
    """Interface every ISP objective implements for the decomposition loop."""

    name: str = "objective"

    @abc.abstractmethod
    def cost_offsets(self, topology: Topology) -> Dict[LinkKey, float]:
        """Per-link additive costs shown to applications (may be empty)."""

    @abc.abstractmethod
    def supergradient(
        self,
        topology: Topology,
        link_order: Sequence[LinkKey],
        loads: Mapping[LinkKey, float],
    ) -> np.ndarray:
        """Super-gradient of the dual at the measured P4P ``loads``, over
        ``link_order`` (every link of ``topology``)."""

    @abc.abstractmethod
    def evaluate(self, topology: Topology, loads: Mapping[LinkKey, float]) -> float:
        """Primal objective value for per-link P4P loads."""

    def centralized_optimum(
        self,
        topology: Topology,
        routing: RoutingTable,
        sessions: Sequence[SessionDemand],
        beta: float = 0.8,
    ) -> Tuple[float, List[TrafficPattern]]:
        """Full-information LP benchmark (infeasible to deploy; Sec. 5).

        Solves the joint problem over all sessions with each session held to
        at least ``beta`` of its standalone matching optimum.
        """
        lp, pair_vars = _session_lp_base(sessions, beta)
        self._add_objective(lp, topology, routing, sessions, pair_vars)
        solution = lp.solve()
        patterns = [
            TrafficPattern(
                flows={
                    pair: max(0.0, solution[var])
                    for pair, var in pair_vars[index].items()
                }
            )
            for index in range(len(sessions))
        ]
        return solution.objective, patterns

    @abc.abstractmethod
    def _add_objective(
        self,
        lp: LinearProgram,
        topology: Topology,
        routing: RoutingTable,
        sessions: Sequence[SessionDemand],
        pair_vars: List[Dict[Tuple[str, str], str]],
    ) -> None:
        """Install objective + link constraints into the centralized LP."""


def _session_lp_base(
    sessions: Sequence[SessionDemand], beta: float
) -> Tuple[LinearProgram, List[Dict[Tuple[str, str], str]]]:
    """Variables + per-session acceptable-set constraints (2)-(4), (6), (7)."""
    lp = LinearProgram(name="centralized")
    pair_vars: List[Dict[Tuple[str, str], str]] = []
    for index, session in enumerate(sessions):
        variables: Dict[Tuple[str, str], str] = {}
        for src, dst in session.pairs():
            variables[(src, dst)] = lp.add_var(f"t{index}_{src}_{dst}")
        pair_vars.append(variables)
        # Reuse the session constraint builders on a namespaced facade.
        facade = _NamespacedLp(lp, prefix=f"t{index}_", inner_prefix="t_")
        _add_capacity_constraints(facade, session)
        _add_robustness_constraints(facade, session)
        opt, _ = max_matching_throughput(session)
        if opt > 0 and variables:
            lp.add_ge({var: 1.0 for var in variables.values()}, beta * opt)
    return lp, pair_vars


class _NamespacedLp:
    """Adapter renaming ``t_i_j`` to ``t{k}_i_j`` for shared constraint code."""

    def __init__(self, lp: LinearProgram, prefix: str, inner_prefix: str) -> None:
        self._lp = lp
        self._prefix = prefix
        self._inner = inner_prefix

    def _rename(self, coeffs: Mapping[str, float]) -> Dict[str, float]:
        renamed = {}
        for name, value in coeffs.items():
            if not name.startswith(self._inner):
                raise KeyError(f"unexpected variable {name!r}")
            renamed[self._prefix + name[len(self._inner):]] = value
        return renamed

    def add_le(self, coeffs: Mapping[str, float], rhs: float) -> None:
        self._lp.add_le(self._rename(coeffs), rhs)

    def add_ge(self, coeffs: Mapping[str, float], rhs: float) -> None:
        self._lp.add_ge(self._rename(coeffs), rhs)


def _link_load_terms(
    topology: Topology,
    routing: RoutingTable,
    sessions: Sequence[SessionDemand],
    pair_vars: List[Dict[Tuple[str, str], str]],
) -> Dict[LinkKey, Dict[str, float]]:
    """For each link, the LP terms ``sum_k sum_ij I_e(i,j) t^k_ij``."""
    terms: Dict[LinkKey, Dict[str, float]] = {key: {} for key in topology.links}
    for variables in pair_vars:
        for (src, dst), var in variables.items():
            for key in routing.route(src, dst):
                terms[key][var] = terms[key].get(var, 0.0) + 1.0
    return terms


def _interdomain_constraints(
    lp: LinearProgram,
    topology: Topology,
    load_terms: Dict[LinkKey, Dict[str, float]],
) -> None:
    """Constraint (16): P4P load on a charged link bounded by ``v_e``."""
    for link in topology.interdomain_links:
        if link.virtual_capacity is None:
            continue
        terms = load_terms[link.key]
        if terms:
            lp.add_le(dict(terms), link.virtual_capacity)


@dataclass
class MinMaxUtilization(ProviderObjective):
    """Minimize the maximum link utilization (Fig. 4).

    Super-gradient (Proposition 1): ``xi_e = b_e + t_e - alpha * c_e`` with
    ``alpha`` the achieved MLU at the measured loads.
    """

    name: str = "mlu"

    def cost_offsets(self, topology: Topology) -> Dict[LinkKey, float]:
        return {}

    def evaluate(self, topology: Topology, loads: Mapping[LinkKey, float]) -> float:
        return max(
            (link.background + loads.get(key, 0.0)) / effective_capacity(link)
            for key, link in topology.links.items()
        )

    def supergradient(
        self,
        topology: Topology,
        link_order: Sequence[LinkKey],
        loads: Mapping[LinkKey, float],
    ) -> np.ndarray:
        background, capacity = _link_state(topology, link_order)
        total = background + link_vector(link_order, loads)
        alpha = (total / capacity).max()  # the MLU ``evaluate`` gives: every link
        return total - alpha * capacity

    def _add_objective(self, lp, topology, routing, sessions, pair_vars) -> None:
        load_terms = _link_load_terms(topology, routing, sessions, pair_vars)
        lp.add_var("alpha")
        for key, link in topology.links.items():
            coeffs = dict(load_terms[key])
            coeffs["alpha"] = -effective_capacity(link)
            lp.add_le(coeffs, -link.background)
        _interdomain_constraints(lp, topology, load_terms)
        lp.set_objective({"alpha": 1.0})


@dataclass
class BandwidthDistanceProduct(ProviderObjective):
    """Minimize the bandwidth-distance product ``sum_e d_e t_e`` (Sec. 5).

    Applications see ``p_e + d_e`` per link (eq. 15); the super-gradient is
    ``xi_e = b_e + t_e - c_e``.
    """

    name: str = "bdp"

    def cost_offsets(self, topology: Topology) -> Dict[LinkKey, float]:
        return {key: link.distance for key, link in topology.links.items()}

    def evaluate(self, topology: Topology, loads: Mapping[LinkKey, float]) -> float:
        return sum(
            topology.links[key].distance * value for key, value in loads.items()
        )

    def supergradient(
        self,
        topology: Topology,
        link_order: Sequence[LinkKey],
        loads: Mapping[LinkKey, float],
    ) -> np.ndarray:
        background, capacity = _link_state(topology, link_order)
        return background + link_vector(link_order, loads) - capacity

    def _add_objective(self, lp, topology, routing, sessions, pair_vars) -> None:
        load_terms = _link_load_terms(topology, routing, sessions, pair_vars)
        objective: Dict[str, float] = {}
        for key, link in topology.links.items():
            for var, coefficient in load_terms[key].items():
                objective[var] = objective.get(var, 0.0) + coefficient * link.distance
            terms = dict(load_terms[key])
            if terms:
                lp.add_le(terms, effective_capacity(link) - link.background)
        _interdomain_constraints(lp, topology, load_terms)
        lp.set_objective(objective)


def apply_peak_background(
    topology: Topology, peak_background: Mapping[LinkKey, float]
) -> Topology:
    """The 'peak bandwidth' objective variant (Sec. 5).

    Returns a copy of the topology whose per-link background traffic is set
    to its peak-time value, so either intradomain objective optimizes for
    the peak; nothing else changes.
    """
    peaked = topology.copy()
    for key, value in peak_background.items():
        if key not in peaked.links:
            raise KeyError(f"unknown link {key}")
        if value < 0:
            raise ValueError(f"negative peak background on {key}")
        peaked.links[key].background = value
    return peaked
