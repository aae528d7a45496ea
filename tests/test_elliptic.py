import numpy as np
import pytest

from crflab.errors import NonConvergence, NotPositiveDefinite
from crflab.elliptic import (
    EllipticProblem,
    _residual_field,
    certify_estimates,
    solve_elliptic,
)
from crflab.geometry import (
    HermitianMatrixField,
    ScalarField,
    herm_det,
    min_eigenvalue,
)

from conftest import bandlimited_scalar


def manufactured_problem(chart, base, seed, amplitude):
    """F built by forward evaluation from a known band-limited potential."""
    phistar = bandlimited_scalar(chart, seed, amplitude=amplitude)
    g = HermitianMatrixField.constant(chart, base)
    Gp = g.values + chart.complex_hessian(phistar.values)
    F = ScalarField(chart, np.log(herm_det(Gp)) - np.log(herm_det(g.values)))
    return EllipticProblem(g, F), phistar


def meanfree(vals):
    return vals - vals.mean()


class TestSolve:
    def test_zero_rhs_gives_constant(self, chart2):
        prob = EllipticProblem(
            HermitianMatrixField.identity(chart2), ScalarField.zeros(chart2)
        )
        sol = solve_elliptic(prob, "newton-continuation")
        assert np.max(np.abs(sol.phi.values)) <= 1e-10
        assert abs(sol.b) <= 1e-10

    def test_manufactured_recovery_n1(self, chart1):
        prob, phistar = manufactured_problem(chart1, np.array([[1.3]]), 5, 0.25)
        sol = solve_elliptic(prob, "newton-continuation")
        err = np.max(np.abs(meanfree(sol.phi.values) - meanfree(phistar.values)))
        assert err <= 1e-6
        assert abs(sol.b) <= 1e-8
        assert min_eigenvalue(sol.updated_metric()) > 0

    def test_manufactured_recovery_n2(self, chart2):
        base = np.array([[1.2, 0.15 + 0.05j], [0.15 - 0.05j, 1.0]])
        prob, phistar = manufactured_problem(chart2, base, 6, 0.12)
        sol = solve_elliptic(prob, "newton-continuation")
        err = np.max(np.abs(meanfree(sol.phi.values) - meanfree(phistar.values)))
        assert err <= 1e-4
        assert abs(sol.b) <= 1e-6

    def test_methods_agree(self, chart1):
        prob, _ = manufactured_problem(chart1, np.array([[1.3]]), 7, 0.2)
        newton = solve_elliptic(prob, "newton-continuation")
        relaxed = solve_elliptic(prob, "gill-flow")
        diff = np.max(
            np.abs(meanfree(newton.phi.values) - meanfree(relaxed.phi.values))
        )
        assert diff <= 1e-6
        assert abs(newton.b - relaxed.b) <= 1e-6

    def test_kahler_constant_identity(self, chart2):
        x1 = chart2.axis_coordinates(0)
        x2 = chart2.axis_coordinates(2)
        Fv = 0.3 * np.sin(x1) * np.ones(chart2.shape) + 0.2 * np.cos(
            2 * x2 + 1.0
        ) * np.ones(chart2.shape)
        prob = EllipticProblem(
            HermitianMatrixField.identity(chart2), ScalarField(chart2, Fv)
        )
        sol = solve_elliptic(prob, "newton-continuation", tol=1e-10)
        num = chart2.integral(herm_det(prob.omega.values))
        den = chart2.integral(np.exp(Fv) * herm_det(prob.omega.values))
        assert abs(np.exp(sol.b) - num / den) <= 1e-8

    def test_uniqueness_up_to_constant(self, chart1):
        prob, _ = manufactured_problem(chart1, np.array([[1.1]]), 9, 0.2)
        sol1 = solve_elliptic(prob, "newton-continuation")
        sol2 = solve_elliptic(prob, "gill-flow")
        d = meanfree(sol1.phi.values) - meanfree(sol2.phi.values)
        assert np.max(np.abs(d)) <= 1e-7

    def test_rhs_shift_moves_constant(self, chart2):
        # Kahler case: F -> F + 10 leaves phi and shifts b by -10
        x1 = chart2.axis_coordinates(0)
        Fv = 0.2 * np.sin(x1) * np.ones(chart2.shape)
        g = HermitianMatrixField.identity(chart2)
        sol1 = solve_elliptic(
            EllipticProblem(g, ScalarField(chart2, Fv)), tol=1e-9
        )
        sol2 = solve_elliptic(
            EllipticProblem(g, ScalarField(chart2, Fv + 10.0)), tol=1e-9
        )
        assert abs((sol2.b - sol1.b) + 10.0) <= 1e-8
        assert np.max(np.abs(sol1.phi.values - sol2.phi.values)) <= 1e-7

    def test_sup_normalization(self, chart1):
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 10, 0.15)
        prob.normalization = "sup"
        sol = solve_elliptic(prob, "newton-continuation")
        assert abs(sol.phi.values.max()) <= 1e-12

    def test_rhs_shift_nonkahler_measured(self, chart2):
        # the non-Kahler bookkeeping of b under F -> F + c has no closed
        # form on record: measure the shift and only require consistency
        from crflab.models import random_metric_recipe

        rng = np.random.default_rng(20)
        g = random_metric_recipe(rng, 2, scale=0.1, peaked=False).build(chart2)
        x1 = chart2.axis_coordinates(0)
        Fv = 0.15 * np.sin(x1) * np.ones(chart2.shape)
        sol1 = solve_elliptic(EllipticProblem(g, ScalarField(chart2, Fv)), tol=1e-9)
        sol2 = solve_elliptic(
            EllipticProblem(g, ScalarField(chart2, Fv + 10.0)), tol=1e-9
        )
        measured = sol2.b - sol1.b
        assert np.isfinite(measured)
        # solutions themselves agree after normalization
        assert np.max(np.abs(sol1.phi.values - sol2.phi.values)) <= 1e-6

    def test_gill_flow_inherits_monitor_contract(self, chart1):
        # the relaxation reuses the flow engine; its trajectory satisfies
        # the same maximum-principle monitor contracts
        from crflab.flow import FlowScenario, run
        from crflab.geometry import VolumeField

        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 14, 0.2)
        density = VolumeField(
            chart1, herm_det(prob.omega.values) * np.exp(prob.F.values)
        )
        chi = HermitianMatrixField(chart1, np.zeros(chart1.shape + (1, 1)))
        scenario = FlowScenario(prob.omega, 100.0, chi, density)
        record, _ = run(scenario, 2.0)
        assert np.max(np.diff(record.column("q1_max"))) <= 1e-8
        assert np.min(np.diff(record.column("q0_min"))) >= -1e-8

    def test_budget_exhaustion_raises(self, chart1):
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 11, 0.2)
        with pytest.raises(NonConvergence):
            solve_elliptic(prob, "gill-flow", max_steps=10)

    def test_residual_rejects_negative_definite_metric(self, chart2):
        # diag(-1, -1) has det = 1 > 0; the line search must see it fail
        problem = EllipticProblem(
            HermitianMatrixField.identity(chart2), ScalarField.zeros(chart2)
        )
        vals = problem.omega.values.copy()
        vals[3, 0, 5, 0] = -np.eye(2)
        problem.omega = HermitianMatrixField(chart2, vals)
        with pytest.raises(NotPositiveDefinite):
            _residual_field(problem, np.zeros(chart2.shape), 0.0)

    def test_unknown_method_rejected(self, chart1):
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 12, 0.1)
        with pytest.raises(ValueError):
            solve_elliptic(prob, "simplex")


class TestEstimates:
    def test_flat_problem_statistics(self, chart2):
        prob = EllipticProblem(
            HermitianMatrixField.identity(chart2), ScalarField.zeros(chart2)
        )
        sol = solve_elliptic(prob)
        rep = certify_estimates(sol, (0.0, 1.0, 2.0))
        assert rep.oscillation <= 1e-10
        assert all(abs(c - 2.0) <= 1e-8 for c in rep.C_coarse)
        assert rep.stable_A == 0.0

    def test_manufactured_statistics_stable(self, chart2):
        base = np.array([[1.2, 0.1], [0.1, 1.0]])
        prob, _ = manufactured_problem(chart2, base, 13, 0.12)
        sol = solve_elliptic(prob)
        grid = (0.0, 0.5, 1.0, 2.0, 4.0)
        rep = certify_estimates(sol, grid)
        assert all(np.isfinite(c) for c in rep.C_coarse)
        # C(A) is non-increasing in A
        assert all(
            rep.C_coarse[i + 1] <= rep.C_coarse[i] + 1e-12
            for i in range(len(grid) - 1)
        )
        assert rep.stable_A is not None
        idx = grid.index(rep.stable_A)
        assert rep.stability_ratio[idx] <= 0.10
