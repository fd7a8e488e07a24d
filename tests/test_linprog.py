"""Tests for the LP modelling layer."""

import pytest

from repro.optimization.linprog import InfeasibleError, LinearProgram


class TestLinearProgram:
    def test_simple_minimize(self):
        lp = LinearProgram()
        lp.add_var("x", lb=1.0)
        lp.add_var("y", lb=2.0)
        lp.set_objective({"x": 1.0, "y": 1.0})
        solution = lp.solve()
        assert solution.objective == pytest.approx(3.0)
        assert solution["x"] == pytest.approx(1.0)

    def test_simple_maximize(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0, ub=4.0)
        lp.set_objective({"x": 2.0}, maximize=True)
        solution = lp.solve()
        assert solution.objective == pytest.approx(8.0)
        assert solution.value("x") == pytest.approx(4.0)

    def test_le_constraint(self):
        lp = LinearProgram()
        lp.add_var("x")
        lp.add_var("y")
        lp.add_le({"x": 1.0, "y": 1.0}, 10.0)
        lp.set_objective({"x": 1.0, "y": 2.0}, maximize=True)
        assert lp.solve().objective == pytest.approx(20.0)

    def test_ge_constraint(self):
        lp = LinearProgram()
        lp.add_var("x")
        lp.add_ge({"x": 1.0}, 5.0)
        lp.set_objective({"x": 1.0})
        assert lp.solve().objective == pytest.approx(5.0)

    def test_infeasible_raises(self):
        lp = LinearProgram(name="bad")
        lp.add_var("x", lb=0.0, ub=1.0)
        lp.add_ge({"x": 1.0}, 5.0)
        lp.set_objective({"x": 1.0})
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram()
        lp.add_var("x")
        lp.set_objective({"x": 1.0}, maximize=True)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(ValueError):
            lp.add_var("x")

    def test_unknown_variable_in_constraint_rejected(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(KeyError):
            lp.add_le({"z": 1.0}, 1.0)

    def test_empty_lp_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram().solve()

    def test_repeated_coefficients_accumulate(self):
        lp = LinearProgram()
        lp.add_var("x", ub=10.0)
        lp.set_objective({"x": 1.0}, maximize=True)
        lp.add_le({"x": 3.0}, 6.0)  # one coefficient entry
        assert lp.solve()["x"] == pytest.approx(2.0)

    def test_duals_available_for_le(self):
        # max x s.t. x <= 5 has dual 1 on the constraint (reported negative
        # by HiGHS convention for a minimization of -x).
        lp = LinearProgram()
        lp.add_var("x")
        lp.add_le({"x": 1.0}, 5.0)
        lp.set_objective({"x": 1.0}, maximize=True)
        solution = lp.solve()
        assert solution.dual_ub is not None
        assert abs(solution.dual_ub[0]) == pytest.approx(1.0)

    def test_transport_problem(self):
        # Two sources (supply 10, 20), two sinks (demand 15 each), unit
        # costs; optimum matches the classic transportation solution.
        lp = LinearProgram()
        costs = {("s1", "d1"): 1.0, ("s1", "d2"): 4.0, ("s2", "d1"): 2.0, ("s2", "d2"): 1.0}
        for key in costs:
            lp.add_var(f"f_{key[0]}_{key[1]}")
        lp.add_le({"f_s1_d1": 1.0, "f_s1_d2": 1.0}, 10.0)
        lp.add_le({"f_s2_d1": 1.0, "f_s2_d2": 1.0}, 20.0)
        lp.add_ge({"f_s1_d1": 1.0, "f_s2_d1": 1.0}, 15.0)
        lp.add_ge({"f_s1_d2": 1.0, "f_s2_d2": 1.0}, 15.0)
        lp.set_objective({f"f_{a}_{b}": cost for (a, b), cost in costs.items()})
        solution = lp.solve()
        assert solution.objective == pytest.approx(10 * 1 + 5 * 2 + 15 * 1)
