"""A small linear-programming modelling layer over ``scipy.optimize.linprog``.

The P4P formulations (centralized MLU, bandwidth matching, interdomain
constraints) are most naturally written with named variables and sparse
constraints; this module provides that, assembling the matrices for the
HiGHS solver.

SciPy is imported by the first :meth:`LinearProgram.solve`, not by this
module: a process that builds no LP -- the simulator, the portal server,
the CLI's other commands -- never pays its start-up time or memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


class InfeasibleError(Exception):
    """Raised when an LP has no feasible solution (or is unbounded)."""


@dataclass
class LpSolution:
    """Optimal values of a solved :class:`LinearProgram`."""

    objective: float
    values: Dict[str, float]
    dual_ub: Optional[np.ndarray] = None

    def value(self, name: str) -> float:
        return self.values[name]

    def __getitem__(self, name: str) -> float:
        return self.values[name]


@dataclass
class _Constraint:
    coeffs: Dict[int, float]
    rhs: float


@dataclass
class LinearProgram:
    """Incrementally-built LP: named variables, <= and >= constraints.

    Internally the objective is always minimized; ``set_objective`` with
    ``maximize=True`` negates coefficients and flips the reported optimum
    back.
    """

    name: str = "lp"
    _index: Dict[str, int] = field(default_factory=dict)
    _names: List[str] = field(default_factory=list)
    _lb: List[float] = field(default_factory=list)
    _ub: List[float] = field(default_factory=list)
    _objective: Dict[int, float] = field(default_factory=dict)
    _maximize: bool = False
    _le: List[_Constraint] = field(default_factory=list)

    # -- model building ------------------------------------------------------

    def add_var(
        self, name: str, lb: float = 0.0, ub: Optional[float] = None
    ) -> str:
        """Add a variable; returns its name for chaining convenience."""
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._lb.append(lb)
        self._ub.append(np.inf if ub is None else ub)
        return name

    def _row(self, coeffs: Mapping[str, float]) -> Dict[int, float]:
        row: Dict[int, float] = {}
        for name, coefficient in coeffs.items():
            if name not in self._index:
                raise KeyError(f"unknown variable {name!r}")
            if coefficient:
                row[self._index[name]] = row.get(self._index[name], 0.0) + coefficient
        return row

    def add_le(self, coeffs: Mapping[str, float], rhs: float) -> None:
        """Add ``sum coeffs * vars <= rhs``."""
        self._le.append(_Constraint(self._row(coeffs), rhs))

    def add_ge(self, coeffs: Mapping[str, float], rhs: float) -> None:
        """Add ``sum coeffs * vars >= rhs`` (stored as negated <=)."""
        row = self._row(coeffs)
        self._le.append(_Constraint({k: -v for k, v in row.items()}, -rhs))

    def set_objective(self, coeffs: Mapping[str, float], maximize: bool = False) -> None:
        self._objective = self._row(coeffs)
        self._maximize = maximize

    # -- solving ---------------------------------------------------------------

    def solve(self) -> LpSolution:
        """Solve with HiGHS; raise :class:`InfeasibleError` on failure."""
        from scipy.optimize import linprog

        n = len(self._names)
        if n == 0:
            raise ValueError("LP has no variables")
        c = np.zeros(n)
        for index, coefficient in self._objective.items():
            c[index] = coefficient
        if self._maximize:
            c = -c

        a_ub, b_ub = _assemble(self._le, n)
        bounds = list(zip(self._lb, self._ub))

        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            raise InfeasibleError(f"{self.name}: {result.message}")
        objective = float(result.fun)
        if self._maximize:
            objective = -objective
        values = {name: float(result.x[index]) for name, index in self._index.items()}
        dual_ub = None
        if result.ineqlin is not None and a_ub is not None:
            dual_ub = np.asarray(result.ineqlin.marginals)
        return LpSolution(objective=objective, values=values, dual_ub=dual_ub)


def _assemble(
    constraints: List[_Constraint], n_vars: int
) -> Tuple[Optional[csr_matrix], Optional[np.ndarray]]:
    if not constraints:
        return None, None
    from scipy import sparse

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    rhs = np.zeros(len(constraints))
    for row_index, constraint in enumerate(constraints):
        rhs[row_index] = constraint.rhs
        for col, coefficient in constraint.coeffs.items():
            rows.append(row_index)
            cols.append(col)
            data.append(coefficient)
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(constraints), n_vars)
    )
    return matrix, rhs
