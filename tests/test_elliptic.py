import dataclasses
import re

import numpy as np
import pytest

from crflab import elliptic
from crflab.errors import NonConvergence, NotPositiveDefinite
from crflab.elliptic import (
    EllipticProblem,
    _bicgstab,
    _residual_field,
    certify_estimates,
    solve_elliptic,
)
from crflab.geometry import (
    HermitianMatrixField,
    ScalarField,
    TorusChart,
    herm_components,
    herm_det,
    herm_inv,
    herm_logdet,
    min_eigenvalue,
    refine_field,
)
from crflab.models import Perturbation, ScalarRecipe, TorusMetricRecipe

from conftest import bandlimited_scalar, count_transforms


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
        prob = dataclasses.replace(prob, normalization="sup")
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

    def test_gill_flow_stall_raises(self):
        # on 16 nodes the oscillation floors near 1.5e-5, above tol, while
        # t runs off: the solve stops on the stall, long before max_steps
        with pytest.raises(
            NonConvergence,
            match=r"oscillation stalled at 1\.4\d*e-05: no new minimum in 100 steps",
        ):
            solve_elliptic(gill_problem(16), "gill-flow", tol=1e-6, max_steps=1000)

    def test_budget_exhaustion_raises(self, chart1):
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 11, 0.2)
        with pytest.raises(NonConvergence):
            solve_elliptic(prob, "gill-flow", max_steps=10)

    def test_gill_flow_repeats_its_loop_over_step_bitwise(self):
        # gill-flow steps in the flow engine's loop; the loop it had of its
        # own, over flow.step, is the reference
        from crflab.flow import FlowScenario, FlowState, step
        from crflab.geometry import VolumeField

        problem, tol, max_steps = gill_problem(32), 1e-8, 2_000_000
        chart = problem.chart
        density = VolumeField(
            chart, herm_det(problem.omega.values) * np.exp(problem.F.values)
        )
        chi = HermitianMatrixField(chart, np.zeros(chart.shape + (chart.n, chart.n)))
        scenario = FlowScenario(problem.omega, 1e12, chi, density)
        scenario.step_tol = elliptic._GILL_STEP_TOL
        state = FlowState.initial(scenario, np.zeros(chart.shape))
        osc = best = np.inf
        steps = since_best = 0
        while steps < max_steps:
            state = step(state, scenario)
            steps += 1
            pd = state.phidot
            osc = float(pd.max() - pd.min())
            if osc <= 0.5 * tol:
                break
            if osc < best:
                best, since_best = osc, 0
            else:
                since_best += 1
                assert since_best < elliptic._GILL_STALL_STEPS
        else:
            raise AssertionError(f"reference loop: {osc:.3e} after {steps} steps")
        ref = elliptic._solution(problem, state.phi, 0.0, "gill-flow", steps, {"t_end": state.t})

        sol = solve_elliptic(problem, "gill-flow", tol=tol)
        assert np.array_equal(sol.phi.values, ref.phi.values)
        assert sol.b == ref.b
        assert sol.iterations == ref.iterations == steps
        assert sol.extras["t_end"] == ref.extras["t_end"]

    def test_gill_flow_relaxes_in_few_steps(self):
        # stepping toward stationarity, not along the transient: 202 steps
        # at the flows' step tolerance
        sol = solve_elliptic(gill_problem(32), "gill-flow", tol=1e-8)
        assert sol.iterations <= 30
        assert sol.residual <= 1e-8

    def test_gill_flow_matches_newton_n2(self):
        problem, tol = wave_problem(32), 1e-6
        relaxed = solve_elliptic(problem, "gill-flow", tol=tol)
        newton = solve_elliptic(problem, tol=tol)
        assert relaxed.residual <= tol
        assert np.max(np.abs(relaxed.phi.values - newton.phi.values)) <= 1e-6
        assert abs(relaxed.b - newton.b) <= 1e-6

    def test_gill_flow_step_tolerance_is_no_option(self, monkeypatch):
        # the flows keep their tolerance; gill-flow's is set on its own
        # scenario, not in the StepControl a cfg's [control] section builds
        from crflab import flow

        seen = []
        step = flow.step

        def spy(state, scenario, dt_max=None):
            seen.append(scenario.step_tol)
            return step(state, scenario, dt_max)

        monkeypatch.setattr(flow, "step", spy)
        assert solve_elliptic(gill_problem(16), "gill-flow", tol=1e-4).iterations > 0
        assert set(seen) == {elliptic._GILL_STEP_TOL}
        assert flow.FlowScenario.step_tol == 1e-6
        assert flow.NormalizedScenario.step_tol == 1e-6
        assert "step_tol" not in {f.name for f in dataclasses.fields(flow.StepControl)}

    def test_gill_flow_makes_no_monitor_rows(self, monkeypatch):
        from crflab import flow

        rows = []
        monkeypatch.setattr(flow, "_monitor_row", lambda *a: rows.append(a))
        assert solve_elliptic(gill_problem(16), "gill-flow", tol=1e-4).iterations > 0
        assert rows == []

    def test_gill_flow_assembles_no_matrix(self, monkeypatch):
        # the relaxation's states keep the metric as real components
        from crflab import flow, geometry

        calls = []
        assemble = geometry.herm_from_components

        def counted(parts, shape):
            calls.append(shape)
            return assemble(parts, shape)

        monkeypatch.setattr(geometry, "herm_from_components", counted)
        monkeypatch.setattr(flow, "herm_from_components", counted)
        assert solve_elliptic(gill_problem(16), "gill-flow", tol=1e-4).iterations > 0
        assert calls == []

    @pytest.mark.parametrize("method", ["gill-flow", "newton-continuation"])
    @pytest.mark.parametrize("max_steps", [0, -1, 2.5, "10"])
    def test_max_steps_must_be_a_positive_integer(self, chart1, method, max_steps):
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 11, 0.2)
        with pytest.raises(ValueError, match="max_steps must be a positive integer"):
            solve_elliptic(prob, method, max_steps=max_steps)

    def test_residual_rejects_negative_definite_metric(self, chart2):
        # phi = 8 (cos x_0 + cos x_2) puts diag(-1, -1), of det 1 > 0, at the
        # origin; the line search must see it fail
        problem = EllipticProblem(
            HermitianMatrixField.identity(chart2), ScalarField.zeros(chart2)
        )
        phi = 8.0 * (np.cos(chart2.axis_coordinates(0)) + np.cos(chart2.axis_coordinates(2)))
        phi = phi * np.ones(chart2.shape)
        origin = (0,) * chart2.naxes
        at_origin = (problem.omega.values + chart2.complex_hessian(phi))[origin]
        assert np.max(np.abs(at_origin + np.eye(2))) <= 1e-13
        with pytest.raises(NotPositiveDefinite):
            _residual_field(problem, phi, 0.0)

    def test_problem_is_frozen(self, chart2):
        # a replaced metric or normalization goes through the checks again
        problem = EllipticProblem(
            HermitianMatrixField.identity(chart2), ScalarField.zeros(chart2)
        )
        with pytest.raises(ValueError, match="normalization"):
            dataclasses.replace(problem, normalization="maybe")
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.omega = HermitianMatrixField.identity(chart2)

    def test_problem_rejects_n3_background_with_two_negative_eigenvalues(self):
        # det = 3 > 0 and tr = 1 > 0, yet the background is indefinite
        chart = TorusChart(3, 8, active_axes=(0,))
        omega = HermitianMatrixField.constant(chart, np.diag([-1.0, -1.0, 3.0]))
        with pytest.raises(NotPositiveDefinite, match="background metric"):
            EllipticProblem(omega, ScalarField.zeros(chart))

    def test_normalize_moves_no_visible_mode(self):
        # a mode with Nyquist along x_0 and wavenumber 1 along x_2 has a
        # nonzero d_1 d_1bar entry: normalizing must keep it
        prob = wave_problem(32)
        chart = prob.chart
        x, y = chart.axis_coordinates(0), chart.axis_coordinates(2)
        phi = (0.01 * np.cos(16 * x) * np.cos(y) + 0.02 * np.sin(x + y)) * np.ones(chart.shape)
        out = elliptic._normalize(prob, phi)
        moved = chart.complex_hessian(out) - chart.complex_hessian(phi)
        assert np.max(np.abs(moved)) <= 1e-14

    def test_normalizing_keeps_the_converged_residual(self, monkeypatch):
        normalize = elliptic._normalize
        seen = []

        def capture(problem, phi):
            seen.append(phi)
            return normalize(problem, phi)

        monkeypatch.setattr(elliptic, "_normalize", capture)
        sol = solve_elliptic(wave_problem(32), tol=1e-7)
        before, _ = _residual_field(sol.problem, seen[0], 0.0)
        assert sol.residual <= 1e-7
        assert abs(sol.residual - np.max(np.abs(before - before.mean()))) <= 1e-11

    def test_residual_at_the_rounding_floor_stays_below_tol(self):
        # on this grid and tol the last iterate's residual is below tol, but
        # the normalized pair's once rounded to 1.39e-11; Newton goes on from
        # there, and if it cannot get below tol it names the floor
        try:
            sol = solve_elliptic(wave_problem(128), tol=1e-11, max_steps=8)
        except NonConvergence as err:
            assert "rounding floor" in str(err)
        else:
            assert sol.residual <= 1e-11

    @staticmethod
    def _lifting_normalize(monkeypatch, lifts):
        # a normalization that adds a visible mode, which lifts the
        # residual of the normalized pair above tol, the first ``lifts`` times
        normalize = elliptic._normalize
        calls = []

        def lifted(problem, phi):
            calls.append(phi)
            out = normalize(problem, phi)
            if len(calls) <= lifts:
                out = out + 1e-6 * np.cos(problem.chart.axis_coordinates(0))
            return out

        monkeypatch.setattr(elliptic, "_normalize", lifted)
        return calls

    def test_newton_goes_on_when_normalizing_lifts_the_residual(self, monkeypatch):
        problem = wave_problem(32)
        cold = solve_elliptic(problem, tol=1e-7)
        calls = self._lifting_normalize(monkeypatch, 1)
        sol = solve_elliptic(problem, tol=1e-7)
        assert len(calls) == 2
        assert sol.iterations > cold.iterations
        assert sol.residual <= 1e-7
        res, _ = _residual_field(problem, sol.phi.values, sol.b)
        assert np.max(np.abs(res)) <= 1e-7

    def test_floor_newton_cannot_step_below_is_named(self, monkeypatch):
        calls = self._lifting_normalize(monkeypatch, 10 ** 6)
        with pytest.raises(NonConvergence, match="rounding floor"):
            solve_elliptic(wave_problem(32), tol=1e-7, max_steps=12)
        assert len(calls) >= 2

    def test_stalled_line_search_names_the_invisible_part(self):
        # on 32^2 at tol 1e-8 most of the stalled residual sits in modes no
        # Wirtinger operator sees, which no Newton step can reduce
        solve = elliptic._bicgstab
        applies = []

        def counted(op, rhs, tol, **kwargs):
            def apply(v):
                applies.append(1)
                return op(v)

            return solve(apply, rhs, tol, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(elliptic, "_bicgstab", counted)
            with pytest.raises(NonConvergence) as err:
                solve_elliptic(wave_problem(32), tol=1e-8)
        found = re.search(r"stalled at residual (\S+), (\S+) of it in modes no "
                          r"Wirtinger operator sees", str(err.value))
        assert found
        res, invisible = (float(x) for x in found.groups())
        assert res > 1e-8 and 0.5 * res < invisible <= res
        assert len(applies) <= 1658

    def test_unknown_method_rejected(self, chart1):
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 12, 0.1)
        with pytest.raises(ValueError):
            solve_elliptic(prob, "simplex")


RESIDUAL_BASES = {
    1: np.array([[1.3]]),
    2: np.array([[1.2, 0.1 + 0.05j], [0.1 - 0.05j, 1.0]]),
    3: np.array([[1.2, 0.1 + 0.05j, 0.0], [0.1 - 0.05j, 1.0, 0.05j], [0.0, -0.05j, 1.1]]),
}


class TestComponentResidual:
    @pytest.mark.parametrize("chart", [
        TorusChart(1, 32, active_axes=(0,)),
        TorusChart(2, 32, active_axes=(0, 2)),
        TorusChart(2, 8),
        TorusChart(3, 8, active_axes=(0, 2, 4)),
    ], ids=["n1", "n2_axes_0_2", "n2_all", "n3_axes_0_2_4"])
    def test_repeats_the_matrix_residual_bitwise(self, chart):
        problem, _ = manufactured_problem(chart, RESIDUAL_BASES[chart.n], 21, 0.1)
        phi = bandlimited_scalar(chart, 22, amplitude=0.05).values
        res, parts = _residual_field(problem, phi, 0.3)
        Gp = problem.omega.values + chart.complex_hessian(phi)
        expected = herm_logdet(Gp) - herm_logdet(problem.omega.values) - problem.F.values - 0.3
        assert np.array_equal(res, expected)
        assert all(np.array_equal(p, q) for p, q in zip(parts, herm_components(Gp)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_n_builds_the_matrix(self, n, monkeypatch):
        chart = TorusChart(n, 8, active_axes=(0,))
        problem, _ = manufactured_problem(chart, np.eye(n), 23, 0.05)
        built = []
        hessian = TorusChart.complex_hessian

        def counted(self, *args, **kwargs):
            built.append(1)
            return hessian(self, *args, **kwargs)

        monkeypatch.setattr(TorusChart, "complex_hessian", counted)
        phi = bandlimited_scalar(chart, 24, amplitude=0.05).values
        res, parts = _residual_field(problem, phi, 0.0)
        assert len(built) == 0 and len(parts) == n * n
        monkeypatch.undo()
        Gp = problem.omega.values + chart.complex_hessian(phi)
        assert np.array_equal(res, herm_logdet(Gp) - problem._logdet - problem.F.values)

    def test_newton_inverts_no_matrix(self, monkeypatch):
        # the Krylov weights and the preconditioner invert components in
        # closed form for n <= 2, so no LAPACK inverse runs; on all four
        # axes every component of the mean metric is live
        chart = TorusChart(2, 8)
        problem, _ = manufactured_problem(chart, RESIDUAL_BASES[2], 25, 0.01)
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
        sol = solve_elliptic(problem, "newton-continuation")
        assert sol.iterations > 0 and not calls

    def test_solution_keeps_the_updated_metric(self, chart2):
        base = np.array([[1.2, 0.1], [0.1, 1.0]])
        prob, _ = manufactured_problem(chart2, base, 13, 0.12)
        for method in ("newton-continuation", "gill-flow"):
            sol = solve_elliptic(prob, method, tol=1e-6)
            Gp = prob.omega.values + chart2.complex_hessian(sol.phi.values)
            assert np.array_equal(sol.updated_metric().values, Gp)


class TestKrylov:
    def test_stagnating_solve_returns_its_best_iterate(self):
        # a Gaussian matrix has its spectrum in a disk around 0, where
        # BiCGStab stagnates and its residual jumps up and down
        rng = np.random.default_rng(4)
        A = rng.normal(size=(40, 40))
        rhs = rng.normal(size=40)
        results = [_bicgstab(lambda v: A @ v, rhs, 1e-12, max_iter=k)
                   for k in range(1, 13)]
        residuals = [res for _, res in results]
        assert all(b <= a for a, b in zip(residuals, residuals[1:]))
        for x, res in results:
            true = np.max(np.abs(rhs - A @ x)) / np.max(np.abs(rhs))
            assert true == pytest.approx(res, rel=1e-8)

    def test_never_returns_a_step_worse_than_no_step(self):
        # an uphill right preconditioner starts BiCGStab at a residual
        # above that of x = 0; the zero step is the best iterate until one
        # beats it
        rng = np.random.default_rng(4)
        A = np.eye(40) + 0.1 * rng.normal(size=(40, 40))
        rhs = rng.normal(size=40)
        op = lambda v: A @ (-3.0 * v)
        x, res = _bicgstab(op, rhs, 1e-12, max_iter=1)
        assert res == 1.0 and not x.any()
        for k in range(2, 6):
            x, res = _bicgstab(op, rhs, 1e-12, max_iter=k)
            true = np.max(np.abs(rhs - op(x))) / np.max(np.abs(rhs))
            assert res <= 1.0
            assert true == pytest.approx(res, rel=1e-8)

    @staticmethod
    def _apply_transforms(problem, monkeypatch):
        # the transforms of one operator apply of the first Krylov solve
        solve = elliptic._bicgstab
        captured = []

        def capture(op, rhs, tol):
            captured.append((op, rhs))
            return solve(op, rhs, tol)

        monkeypatch.setattr(elliptic, "_bicgstab", capture)
        solve_elliptic(problem)
        op, rhs = captured[0]
        calls = count_transforms(monkeypatch)
        op(rhs)
        return calls

    def test_operator_apply_costs_one_forward_and_n2_inverse_real_transforms(
        self, monkeypatch
    ):
        # right preconditioning: the Krylov vector goes to the half spectrum
        # once, and each live real Hessian component comes back once; on
        # active axes (0, 2) Im h_12 is zero by construction, so 3 of n^2 = 4.
        # Each chart transform is one numpy pass per active axis: rfft and
        # fft forward, ifft and irfft back
        calls = self._apply_transforms(wave_problem(32), monkeypatch)
        assert calls == {"rfft": 1, "fft": 1, "ifft": 3, "irfft": 3}

    def test_operator_apply_on_all_axes_transforms_all_n2_components(self, monkeypatch):
        chart = TorusChart(2, 8)
        base = np.array([[1.2, 0.15 + 0.05j], [0.15 - 0.05j, 1.0]])
        problem, _ = manufactured_problem(chart, base, 6, 0.05)
        calls = self._apply_transforms(problem, monkeypatch)
        # four active axes: one rfft and three fft forward; each of the 4
        # components costs three ifft and one irfft back
        assert calls == {"rfft": 1, "fft": 3, "ifft": 4 * 3, "irfft": 4}

    def test_stalled_line_search_names_the_krylov_solve(self, chart1, monkeypatch):
        prob, _ = manufactured_problem(chart1, np.eye(1), 3, 0.05)
        solve = elliptic._bicgstab

        def uphill(op, rhs, tol, **kwargs):
            x, res = solve(op, rhs, tol, **kwargs)
            return -x, res  # an ascent direction: every trial step fails

        monkeypatch.setattr(elliptic, "_bicgstab", uphill)
        with pytest.raises(NonConvergence, match=r"last Krylov solve reached \S+ "
                                                 r"against tolerance \S+"):
            solve_elliptic(prob, "newton-continuation")


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

    def test_coarse_statistic_is_that_of_the_updated_metric(self, chart2):
        base = np.array([[1.2, 0.1], [0.1, 1.0]])
        prob, _ = manufactured_problem(chart2, base, 13, 0.12)
        sol = solve_elliptic(prob)
        grid = (0.0, 1.0, 4.0)
        Gp = sol.updated_metric().values
        tr = np.einsum("...ji,...ij->...", herm_inv(prob.omega.values), Gp).real
        shifted = sol.phi.values - sol.phi.values.min()
        expected = tuple(float(np.max(tr * np.exp(-A * shifted))) for A in grid)
        assert certify_estimates(sol, grid).C_coarse == expected

    def test_certify_transforms_real_fields_only(self, chart2, monkeypatch):
        # refining omega costs one forward and one inverse chart transform
        # per real component (4), F and phi one each; the 128^2 re-solve
        # starts converged, so it makes two residuals (one forward and 3
        # live inverse each) and one strip_invisible (one of each); stats
        # transforms nothing. On active axes (0, 2) a forward transform is
        # one rfft and one fft, an inverse one ifft and one irfft
        base = np.array([[1.2, 0.1], [0.1, 1.0]])
        prob, _ = manufactured_problem(chart2, base, 13, 0.12)
        sol = solve_elliptic(prob)
        solves = record_solves(monkeypatch)
        calls = count_transforms(monkeypatch)
        certify_estimates(sol, (0.0, 1.0, 4.0))
        assert [s.iterations for _, s in solves] == [0]
        forward, inverse = 4 + 1 + 1 + 3, 4 + 1 + 1 + 7
        assert calls == {"rfft": forward, "fft": forward, "ifft": inverse, "irfft": inverse}

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


def wave_problem(resolution):
    """The non-Kahler n = 2 recipe of the newton_n2 benchmark workload."""
    chart = TorusChart(2, resolution, active_axes=(0, 2))
    omega = TorusMetricRecipe(np.eye(2), [
        Perturbation(0, 0, 0.12, (0, 0, 1, 0), 0.3),
        Perturbation(1, 1, 0.12, (1, 0, 0, 0), 2.2),
        Perturbation(0, 1, 0.048, (1, 0, 1, 0), 4.1),
        Perturbation(0, 0, 0.06, (2, 0, 0, 0), 5.0),
    ]).build(chart)
    F = ScalarRecipe([
        Perturbation(0, 0, 1.0, (1, 0, 0, 0), 1.3),
        Perturbation(0, 0, 0.8, (0, 0, 1, 0), 3.6),
        Perturbation(0, 0, 0.5, (1, 0, 2, 0), 0.9),
    ]).build(chart)
    return EllipticProblem(omega, F)


def peaked_problem(resolution):
    """Metric and right side with peaked humps: not band-limited."""
    chart = TorusChart(2, resolution, active_axes=(0, 2))
    omega = TorusMetricRecipe(np.eye(2), [
        Perturbation(0, 0, 0.1, (0, 0, 1, 0), 0.3),
        Perturbation(1, 1, 0.08, (1, 0, 0, 0), 0.7, profile="peaked", sharpness=1.5),
    ]).build(chart)
    F = ScalarRecipe([
        Perturbation(0, 0, 0.4, (1, 0, 0, 0), 1.3, profile="peaked", sharpness=1.5),
        Perturbation(0, 0, 0.2, (0, 0, 1, 0), 3.6),
    ]).build(chart)
    return EllipticProblem(omega, F)


def gill_problem(resolution=32):
    chart = TorusChart(1, resolution, active_axes=(0,))
    omega = TorusMetricRecipe(np.eye(1), [Perturbation(0, 0, 0.1, (1, 0))]).build(chart)
    F = ScalarRecipe([
        Perturbation(0, 0, 0.3, (1, 0), 0.7),
        Perturbation(0, 0, 0.2, (2, 0), 1.9),
    ]).build(chart)
    return EllipticProblem(omega, F)


def missed_level_problem(resolution):
    """wave_problem's first three metric waves and its right side at twice the
    wavenumbers: on 32^2 Newton cannot reach 1e-6."""
    chart = TorusChart(2, resolution, active_axes=(0, 2))
    omega = TorusMetricRecipe(np.eye(2), [
        Perturbation(0, 0, 0.12, (0, 0, 2, 0), 0.3),
        Perturbation(1, 1, 0.12, (2, 0, 0, 0), 2.2),
        Perturbation(0, 1, 0.048, (2, 0, 2, 0), 4.1),
    ]).build(chart)
    F = ScalarRecipe([
        Perturbation(0, 0, 1.0, (2, 0, 0, 0), 1.3),
        Perturbation(0, 0, 0.8, (0, 0, 2, 0), 3.6),
        Perturbation(0, 0, 0.5, (2, 0, 4, 0), 0.9),
    ]).build(chart)
    return EllipticProblem(omega, F)


def record_solves(monkeypatch, cold=False):
    """Record (started warm, solution) for every solve certify_estimates makes;
    with ``cold`` the start it passes is dropped."""
    import crflab.elliptic as elliptic

    calls = []
    solve = elliptic.solve_elliptic

    def recorded(problem, *args, phi0=None, b0=None, **kwargs):
        if cold:
            phi0 = b0 = None
        solution = solve(problem, *args, phi0=phi0, b0=b0, **kwargs)
        calls.append((phi0 is not None, solution))
        return solution

    monkeypatch.setattr(elliptic, "solve_elliptic", recorded)
    return calls


class TestWarmStart:
    @pytest.mark.parametrize("make", [wave_problem, peaked_problem])
    def test_refined_start_matches_cold_resolve(self, make):
        coarse = make(32)
        sol = solve_elliptic(coarse)
        fine = coarse.refined()
        warm = solve_elliptic(
            fine, tol=1e-9, phi0=refine_field(sol.phi).values, b0=sol.b
        )
        cold = solve_elliptic(fine, tol=1e-9)
        assert warm.iterations < cold.iterations
        assert np.max(np.abs(warm.phi.values - cold.phi.values)) <= 1e-9
        assert abs(warm.b - cold.b) <= 1e-9

    def test_certify_matches_cold_path(self, monkeypatch):
        sol = solve_elliptic(wave_problem(32), tol=1e-6)
        grid = (0.0, 0.5, 1.0, 2.0, 4.0)
        calls = record_solves(monkeypatch)
        warm = certify_estimates(sol, grid, tol=1e-10)
        monkeypatch.undo()
        record_solves(monkeypatch, cold=True)
        cold = certify_estimates(sol, grid, tol=1e-10)
        assert calls[0][0]
        assert warm.stable_A == cold.stable_A
        assert np.allclose(warm.C_fine, cold.C_fine, rtol=1e-9, atol=0.0)
        assert np.allclose(warm.stability_ratio, cold.stability_ratio, rtol=0.0, atol=1e-9)

    def test_unconverged_start_still_iterates(self, monkeypatch):
        # the fine residual, not the start, decides when the re-solve stops
        loose = solve_elliptic(wave_problem(32), tol=1e-3)
        calls = record_solves(monkeypatch)
        certify_estimates(loose, (0.0, 1.0), tol=1e-8)
        warm, fine = calls[0]
        assert warm
        assert fine.iterations >= 1
        assert fine.residual <= 1e-8

    def test_gill_flow_certify_matches_cold(self, monkeypatch):
        tol = 1e-8
        sol = solve_elliptic(gill_problem(), "gill-flow", tol=tol)
        grid = (0.0, 1.0, 2.0)
        calls = record_solves(monkeypatch)
        warm_rep = certify_estimates(sol, grid)
        monkeypatch.undo()
        cold_calls = record_solves(monkeypatch, cold=True)
        cold_rep = certify_estimates(sol, grid)
        (started_warm, warm), (_, cold) = calls[0], cold_calls[0]
        assert started_warm and warm.method == cold.method == "gill-flow"
        assert warm.iterations < cold.iterations
        assert np.max(np.abs(warm.phi.values - cold.phi.values)) <= tol
        assert abs(warm.b - cold.b) <= tol
        assert np.allclose(warm_rep.C_fine, cold_rep.C_fine, rtol=tol, atol=0.0)

    @pytest.mark.parametrize("method", ["newton-continuation", "gill-flow"])
    @pytest.mark.parametrize(
        "start",
        [
            {"phi0": np.zeros((32, 1))},
            {"phi0": np.full((32, 1, 32, 1), np.nan)},
            {"phi0": np.zeros((32, 1, 32, 1)), "b0": np.inf},
        ],
        ids=["wrong-shape", "nan-phi0", "inf-b0"],
    )
    def test_invalid_start_rejected(self, method, start):
        with pytest.raises(ValueError):
            solve_elliptic(wave_problem(32), method, **start)


def count_applies(monkeypatch):
    """Krylov operator applies per field shape, counted from here on."""
    applies = {}
    solve = elliptic._bicgstab

    def counted(op, rhs, tol, **kwargs):
        def apply(v):
            applies[v.shape] = applies.get(v.shape, 0) + 1
            return op(v)
        return solve(apply, rhs, tol, **kwargs)

    monkeypatch.setattr(elliptic, "_bicgstab", counted)
    return applies


def cone_problem(resolution, wavenumber):
    """n = 1 metric 1 + 0.5 cos(wavenumber x): a grid of half the wavenumber
    reads it as 1.5 and one of the wavenumber as 1.5 and 0.5 in turn, where
    the refined solution from the coarser grid leaves the positive cone."""
    chart = TorusChart(1, resolution, active_axes=(0,))
    x = chart.axis_coordinates(0)
    omega = 1.0 + 0.5 * np.cos(wavenumber * x)
    return EllipticProblem(
        HermitianMatrixField(chart, omega[..., None, None] * np.ones(chart.shape + (1, 1))),
        ScalarField(chart, 0.6 * np.cos(x) * np.ones(chart.shape)),
    )


def assert_same_solution(sol, cold, exact=False):
    if exact:
        assert np.array_equal(sol.phi.values, cold.phi.values)
        assert (sol.b, sol.residual, sol.iterations) == (cold.b, cold.residual, cold.iterations)
    else:
        assert np.max(np.abs(sol.phi.values - cold.phi.values)) <= 1e-9
        assert abs(sol.b - cold.b) <= 1e-9


class TestCoarseToFine:
    @pytest.mark.parametrize("make", [wave_problem, peaked_problem])
    def test_cascade_matches_cold_start(self, make):
        problem = make(128)
        sol = solve_elliptic(problem, tol=1e-10)
        cold = solve_elliptic(problem, tol=1e-10, phi0=np.zeros(problem.chart.shape))
        assert [nodes for nodes, _ in sol.extras["coarse_levels"]] == [(32, 32), (64, 64)]
        assert all(iterations is not None for _, iterations in sol.extras["coarse_levels"])
        assert "coarse_levels" not in cold.extras
        # the full-grid residual still gates: the coarse levels stop at 1e-6
        assert 1 <= sol.iterations < cold.iterations
        assert sol.residual <= 1e-10
        assert_same_solution(sol, cold)

    def test_missed_coarse_level_ends_the_chain(self, monkeypatch):
        # 32 nodes cannot bring this problem to 1e-6: the chain stops there,
        # and the full grid solves from (0, b0), as it does without the chain
        problem = missed_level_problem(128)
        cold = solve_elliptic(problem, phi0=np.zeros(problem.chart.shape))
        applies = count_applies(monkeypatch)
        sol = solve_elliptic(problem)
        assert sol.extras["coarse_levels"] == [((32, 32), None)]
        assert applies[(32, 1, 32, 1)] <= 100
        assert (64, 1, 64, 1) not in applies
        assert_same_solution(sol, cold, exact=True)

    @pytest.mark.parametrize("wavenumber, levels", [
        (32, [((32,), 5), ((64,), None)]),  # the 64-node level's start fails
        (64, [((32,), 5), ((64,), 0)]),  # the full grid's start fails
    ])
    def test_start_outside_the_positive_cone_restarts_cold(self, wavenumber, levels):
        problem = cone_problem(128, wavenumber)
        sol = solve_elliptic(problem, tol=1e-10)
        cold = solve_elliptic(problem, tol=1e-10, phi0=np.zeros(problem.chart.shape))
        assert sol.extras["coarse_levels"] == levels
        assert_same_solution(sol, cold, exact=True)

    @pytest.mark.parametrize("make", [wave_problem, missed_level_problem])
    def test_no_chain_below_128_nodes(self, make):
        # at 64 nodes a missed 32-node level costs more than a converged one
        # saves: these solves take the zero start
        problem = make(64)
        sol = solve_elliptic(problem)
        assert "coarse_levels" not in sol.extras
        assert_same_solution(
            sol, solve_elliptic(problem, phi0=np.zeros(problem.chart.shape)), exact=True
        )

    def test_levels_are_not_separate_solves(self, monkeypatch):
        # tracing and spies wrap the module attribute: one call, one solve
        calls = []
        solve = elliptic.solve_elliptic

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(elliptic, "solve_elliptic", spy)
        sol = elliptic.solve_elliptic(wave_problem(128))
        assert len(calls) == 1 and len(sol.extras["coarse_levels"]) == 2
