import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    g = HermitianMatrixField(chart, base)
    Gp = g.values + chart.complex_hessian(phistar.values)
    F = ScalarField(chart, np.log(herm_det(Gp)) - np.log(herm_det(g.values)))
    return EllipticProblem(g, F), phistar


def meanfree(vals):
    return vals - vals.mean()


class TestSolve:
    def test_zero_rhs_gives_constant(self, chart2):
        prob = EllipticProblem(
            HermitianMatrixField(chart2, np.eye(2)), ScalarField(chart2, 0.0)
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
        updated = HermitianMatrixField.from_components(sol.problem.chart, sol.metric_parts)
        assert min_eigenvalue(updated) > 0

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
            HermitianMatrixField(chart2, np.eye(2)), ScalarField(chart2, Fv)
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
        g = HermitianMatrixField(chart2, np.eye(2))
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
        # the oscillation floors above tol (on 16 nodes near 1.5e-5, on the
        # peaked 32^2 problem at 6.2e-7), whatever the step rule: the solve
        # stops on the stall, long before the step budget
        for problem, floor in ((gill_problem(16), r"1\.4\d*e-05"),
                               (peaked_problem(32), r"6\.205e-07")):
            with pytest.raises(
                NonConvergence,
                match=rf"oscillation stalled at {floor}: no new minimum in 100 steps",
            ):
                solve_elliptic(problem, "gill-flow", tol=1e-6)

    @pytest.mark.parametrize("error", ["PositivityLost", "StepUnderflow"])
    def test_gill_flow_step_failure_is_nonconvergence(self, monkeypatch, error):
        # the relaxation's limit is positive definite, so a step that fails is
        # the grid's failure to reach it: on one 32^2 n = 2 recipe of a random
        # sweep (metric near the positivity edge, stalling at 2e-3 at step
        # tolerance 1e-3) the 7th step lost positivity in a stage
        from crflab import errors, flow

        step, calls = flow.step, []

        def failing(state, scenario, dt_max=None):
            calls.append(state)
            if len(calls) > 3:
                raise getattr(errors, error)("injected")
            return step(state, scenario, dt_max)

        monkeypatch.setattr(flow, "step", failing)
        failed = r"gill-flow step 4 failed at oscillation \S+: injected"
        with pytest.raises(NonConvergence, match=failed):
            solve_elliptic(gill_problem(32), "gill-flow")

    def test_gill_flow_start_outside_the_cone_is_not_positive_definite(self, chart2):
        # phi = 8 (cos x_0 + cos x_2) puts diag(-1, -1) at the origin: a start
        # outside the positive cone is the same error for both methods
        problem = EllipticProblem(
            HermitianMatrixField(chart2, np.eye(2)), ScalarField(chart2, 0.0)
        )
        phi = 8.0 * (np.cos(chart2.axis_coordinates(0)) + np.cos(chart2.axis_coordinates(2)))
        for method in ("gill-flow", "newton-continuation"):
            with pytest.raises(NotPositiveDefinite):
                solve_elliptic(problem, method, phi0=phi * np.ones(chart2.shape))

    def test_budget_exhaustion_raises(self, chart1, monkeypatch):
        # chart1 is chained, so the coarse levels' budget is cut too: with
        # only the full grid's cut the chain's start converges within it
        monkeypatch.setattr(elliptic, "_GILL_STEPS", 10)
        monkeypatch.setattr(elliptic, "_COARSE_GILL_STEPS", 10)
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 11, 0.2)
        with pytest.raises(NonConvergence, match="after 10 steps"):
            solve_elliptic(prob, "gill-flow")

    def test_gill_flow_budget_ends_an_unchained_solve(self, monkeypatch):
        # 16 nodes build no chain, so only the full grid's budget applies:
        # the solve takes 11 steps to tol 1e-4, one more than it allows
        monkeypatch.setattr(elliptic, "_GILL_STEPS", 10)
        with pytest.raises(NonConvergence, match="after 10 steps"):
            solve_elliptic(gill_problem(16), "gill-flow", tol=1e-4)

    def test_newton_budget_exhaustion_raises(self, chart1, monkeypatch):
        # the 32-node level needs 4 iterations and fails within one, so the
        # full grid starts from zero and meets the same budget
        monkeypatch.setattr(elliptic, "_NEWTON_STEPS", 1)
        prob, _ = manufactured_problem(chart1, np.array([[1.2]]), 11, 0.2)
        with pytest.raises(NonConvergence, match=r"newton residual \S+ after 1 steps"):
            solve_elliptic(prob, "newton-continuation")

    def test_gill_flow_repeats_its_loop_over_step_bitwise(self):
        # gill-flow steps in the flow engine's loop; the loop it had of its
        # own, over flow.step, is the reference
        from crflab.flow import FlowState, step

        problem, tol, max_steps = gill_problem(32), 1e-8, 2_000_000
        chart = problem.chart
        scenario = elliptic._Relaxation(problem)
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
        grid = elliptic._on_grid(problem, chart.canonical_spec(state.phi), 0.0)
        ref = elliptic._solution(problem, grid, "gill-flow", steps, {"t_end": state.t})

        sol = solve_elliptic(problem, "gill-flow", tol=tol)
        assert np.array_equal(sol.phi.values, ref.phi.values)
        assert sol.b == ref.b
        assert sol.iterations == ref.iterations == steps
        assert sol.extras["t_end"] == ref.extras["t_end"]

    def test_gill_flow_relaxes_in_few_steps(self):
        # stepping toward stationarity, not along the transient: 202 steps
        # at the flows' step tolerance, 24 at 1e-3 and 17 at 1e-2
        sol = solve_elliptic(gill_problem(32), "gill-flow", tol=1e-8)
        assert sol.iterations <= 20
        assert sol.residual <= 1e-8

    def test_gill_flow_matches_newton_n2(self):
        problem, tol = wave_problem(32), 1e-6
        relaxed = solve_elliptic(problem, "gill-flow", tol=tol)
        newton = solve_elliptic(problem, tol=tol)
        assert relaxed.residual <= tol
        assert np.max(np.abs(relaxed.phi.values - newton.phi.values)) <= 1e-6
        assert abs(relaxed.b - newton.b) <= 1e-6

    def test_gill_flow_converges_on_128(self):
        # the newton_n2 recipe on 128^2 stalled at 5.226e-7 while phi's mean
        # drifted with slope b on the grid
        problem, tol = wave_problem(128), 1e-6
        relaxed = solve_elliptic(problem, "gill-flow", tol=tol)
        newton = solve_elliptic(problem, tol=tol)
        assert relaxed.residual <= tol
        assert np.max(np.abs(relaxed.phi.values - newton.phi.values)) <= 1e-6

    def test_gill_flow_converges_cold_on_128(self):
        # the solve above chains: phi0 = 0 keeps the full grid's own
        # relaxation from the zero start covered (52 steps)
        problem, tol = wave_problem(128), 1e-6
        relaxed = solve_elliptic(problem, "gill-flow", tol=tol, phi0=np.zeros(problem.chart.shape))
        newton = solve_elliptic(problem, tol=tol)
        assert "coarse_levels" not in relaxed.extras
        assert relaxed.residual <= tol
        assert np.max(np.abs(relaxed.phi.values - newton.phi.values)) <= 1e-6

    def test_gill_flow_keeps_phi_mean_free(self, monkeypatch):
        # with b t in phi the mean of phi reached 15.2 on this problem
        means = []
        integrate = elliptic._integrate

        def spy(scenario, state, t_end, *args, **kwargs):
            means.append(abs(float(state.phi.mean())))
            for state in integrate(scenario, state, t_end, *args, **kwargs):
                means.append(abs(float(state.phi.mean())))
                yield state

        monkeypatch.setattr(elliptic, "_integrate", spy)
        assert solve_elliptic(gill_problem(32), "gill-flow", tol=1e-8).iterations > 0
        assert len(means) > 1
        assert max(means) <= 1e-12

    def test_relaxation_rhs_is_the_mean_free_residual(self):
        for problem in (gill_problem(32), wave_problem(32)):
            phi = bandlimited_scalar(problem.chart, 3, amplitude=0.05).values
            phidot, parts = elliptic._Relaxation(problem).rhs(phi, 7.0)
            res, res_parts = _residual_field(problem, phi, 0.0)
            assert np.max(np.abs(phidot - (res - res.mean()))) <= 1e-14
            assert all(np.array_equal(u, v) for u, v in zip(parts, res_parts))

    def test_gill_flow_step_tolerance_is_no_option(self, monkeypatch):
        # the flows keep their tolerance; gill-flow's is set on its own
        # scenario, and the step controller takes no options
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
        assert not hasattr(flow, "StepControl")

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

    def test_residual_rejects_negative_definite_metric(self, chart2):
        # phi = 8 (cos x_0 + cos x_2) puts diag(-1, -1), of det 1 > 0, at the
        # origin; the line search must see it fail
        problem = EllipticProblem(
            HermitianMatrixField(chart2, np.eye(2)), ScalarField(chart2, 0.0)
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
            HermitianMatrixField(chart2, np.eye(2)), ScalarField(chart2, 0.0)
        )
        with pytest.raises(ValueError, match="normalization"):
            dataclasses.replace(problem, normalization="maybe")
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.omega = HermitianMatrixField(chart2, np.eye(2))

    def test_problem_rejects_n3_background_with_two_negative_eigenvalues(self):
        # det = 3 > 0 and tr = 1 > 0, yet the background is indefinite
        chart = TorusChart(3, 8, active_axes=(0,))
        omega = HermitianMatrixField(chart, np.diag([-1.0, -1.0, 3.0]))
        with pytest.raises(NotPositiveDefinite, match="background metric"):
            EllipticProblem(omega, ScalarField(chart, 0.0))

    @pytest.mark.parametrize("method, make, tol", [
        ("newton-continuation", lambda: wave_problem(32), 1e-7),
        ("newton-continuation", lambda: peaked_problem(32), 1e-6),
        ("gill-flow", lambda: gill_problem(32), 1e-8),
    ], ids=["newton-wave", "newton-peaked", "gill-flow"])
    def test_solution_is_canonical_and_its_residual_is_the_grids(self, method, make, tol):
        # both routes end on the grid: the returned residual is that of the
        # returned (phi, b), and phi's spectrum is zero, to rounding, on the
        # modes no Wirtinger operator sees, the mean among them
        sol = solve_elliptic(make(), method, tol=tol)
        chart = sol.problem.chart
        res, parts = _residual_field(sol.problem, sol.phi.values, sol.b)
        assert sol.residual <= tol
        assert abs(sol.residual - float(np.max(np.abs(res)))) <= 1e-15
        assert all(np.array_equal(p, q) for p, q in zip(parts, sol.metric_parts))
        spec = chart.rfft(sol.phi.values)
        invisible = chart.laplacian_inverse(herm_components(np.eye(chart.n))) == 0.0
        scale = np.max(np.abs(sol.phi.values)) * chart.grid_count
        assert np.max(np.abs(spec[invisible])) <= 1e-14 * scale

    def test_start_that_meets_tol_makes_one_residual(self, monkeypatch):
        # the start is canonicalized once (one forward and one inverse
        # transform) and its grid residual, with the mean moved into b, is
        # the only one a converged start makes
        problem = wave_problem(32)
        sol = solve_elliptic(problem, tol=1e-7)
        calls = []
        residual = elliptic._residual_field

        def counted(*args, **kwargs):
            calls.append(1)
            return residual(*args, **kwargs)

        monkeypatch.setattr(elliptic, "_residual_field", counted)
        again = solve_elliptic(problem, tol=1e-7, phi0=sol.phi.values, b0=sol.b + 1e-3)
        assert len(calls) == 1 and again.iterations == 0
        assert abs(again.b - sol.b) <= 1e-12
        assert again.residual <= 1e-7

    def test_tol_near_the_grid_floor_returns_in_two_steps(self):
        # near its rounding floor the grid re-rounds phi by about what a step
        # gains; the iterate stays a spectrum, so there is nothing to
        # ping-pong: 39 full-grid steps (128^2) and 19 (256^2) before
        for problem, tol in ((wave_problem(128), 1e-11), (wave_problem(256), 5e-11)):
            sol = solve_elliptic(problem, tol=tol)
            assert sol.iterations <= 2
            assert sol.residual <= tol
            res, _ = _residual_field(problem, sol.phi.values, sol.b)
            assert abs(sol.residual - float(np.max(np.abs(res)))) <= 1e-15

    def test_grid_floor_above_tol_is_named_with_both_residuals(self):
        # from phi = 0 on 256^2 at tol 5e-11 the spectrum reaches the target,
        # and phi on the grid rounds the residual to about the tol: it
        # returns, or names the floor with both numbers, within 8 steps (38
        # steps and 1.6 s before)
        problem = wave_problem(256)
        try:
            sol = solve_elliptic(problem, tol=5e-11, phi0=np.zeros(problem.chart.shape))
        except NonConvergence as err:
            found = re.fullmatch(
                r"newton residual (\S+) on phi's half spectrum is (\S+) on the grid "
                r"after (\d+) steps: tol 5\.0e-11 is below this grid's rounding floor",
                str(err),
            )
            assert found
            spectral, grid, steps = (float(x) for x in found.groups())
            assert spectral <= 5e-11 < grid and steps <= 8
        else:
            assert sol.iterations <= 8 and sol.residual <= 5e-11

    def test_grid_residual_above_tol_is_never_returned(self, monkeypatch):
        # a grid residual lifted above tol on every look after the start:
        # the spectrum steps on to half of tol (here it is there already),
        # and Newton names the floor with both residuals after at most two
        # looks, where the continuation from the normalized pair stepped on
        on_grid = elliptic._on_grid
        looks = []

        def lifted(problem, spec, b):
            phi, b, res_field, parts, res = on_grid(problem, spec, b)
            looks.append(1)
            if len(looks) > 1:
                res_field = res_field + 1e-6 * np.cos(problem.chart.axis_coordinates(0))
                res = float(np.max(np.abs(res_field)))
            return phi, b, res_field, parts, res

        monkeypatch.setattr(elliptic, "_on_grid", lifted)
        with pytest.raises(NonConvergence, match="rounding floor") as err:
            solve_elliptic(wave_problem(32), tol=1e-7)
        found = re.search(r"residual (\S+) on phi's half spectrum is (\S+) on the grid",
                          str(err.value))
        spectral, grid = (float(x) for x in found.groups())
        assert spectral <= 0.5e-7 and grid > 1e-6
        assert 2 <= len(looks) <= 3

    def test_stalled_line_search_names_the_invisible_part(self):
        # on 32^2 most of the residual at the floor sits in modes no
        # Wirtinger operator sees, which no Newton step can reduce. At tol
        # 1e-8 the flat Krylov retry brings the residual to 7.9e-9, below
        # tol, where the line search stalled at 1.13e-8 after 1658 applies;
        # below that the stall names the invisible part
        solve = elliptic._bicgstab
        applies = []

        def counted(op, rhs, tol, **kwargs):
            def apply(v):
                applies.append(1)
                return op(v)

            return solve(apply, rhs, tol, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(elliptic, "_bicgstab", counted)
            assert solve_elliptic(wave_problem(32), tol=1e-8).residual <= 1e-8
            applies.clear()
            with pytest.raises(NonConvergence) as err:
                solve_elliptic(wave_problem(32), tol=5e-9)
        found = re.search(r"stalled at residual (\S+), (\S+) of it in modes no "
                          r"Wirtinger operator sees", str(err.value))
        assert found
        res, invisible = (float(x) for x in found.groups())
        assert res > 5e-9 and 0.5 * res < invisible <= res
        assert len(applies) <= 1658
        assert len(applies) < 829

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

    def test_problem_keeps_omega_as_contiguous_components(self):
        omega = wave_problem(32).omega
        matrix = HermitianMatrixField(omega.chart, omega.values)
        problem = EllipticProblem(matrix, ScalarField(omega.chart, 0.0))
        parts = problem.omega.parts
        assert all(p.flags.c_contiguous and not p.flags.writeable for p in parts)
        assert all(np.array_equal(p, q) for p, q in zip(parts, herm_components(omega.values)))
        # the problem keeps the components, not the caller's matrix
        held = weakref.ref(matrix)
        del matrix
        gc.collect()
        assert held() is None
        # read, omega is assembled once and kept
        assert problem.omega.values is problem.omega.values
        assert np.array_equal(problem.omega.values, omega.values)
        again = dataclasses.replace(problem, normalization="sup")
        # a replaced problem shares the read-only components
        assert all(p is q for p, q in zip(again.omega.parts, parts))
        assert np.array_equal(again.omega.values, omega.values)

    def test_refined_and_coarsened_problems_build_no_matrix(self, monkeypatch):
        # their components are refined or injected one at a time, as
        # refine_field and coarsen_field treat omega's, and certify_estimates'
        # re-solve on the refined problem assembles no matrix either
        from crflab import geometry
        from crflab.geometry import coarsen_field

        problem = wave_problem(32)
        sol = solve_elliptic(problem)
        refined = [herm_components(refine_field(problem.omega).values),
                   herm_components(coarsen_field(problem.omega).values)]
        calls = []
        assemble = geometry.herm_from_components
        monkeypatch.setattr(geometry, "herm_from_components",
                            lambda *args: calls.append(1) or assemble(*args))
        for made, expected in zip((problem.refined(), problem.coarsened()), refined):
            assert all(np.array_equal(p, q) for p, q in zip(made.omega.parts, expected))
        certify_estimates(sol, (0.0, 1.0))
        assert calls == []

    def test_scaled_preconditioner_inverts_n1_operator(self, monkeypatch):
        # for n = 1, Delta' = d d_bar / G' and sigma = Gbar / G', so the
        # preconditioned operator is the identity but for the invisible
        # modes: every Krylov solve stops after its first step, 2 applies
        # (up to 20 with the flat preconditioner)
        solve = elliptic._bicgstab
        per_solve = []

        def counted(op, rhs, tol, **kwargs):
            applies = []

            def apply(v):
                applies.append(1)
                return op(v)

            out = solve(apply, rhs, tol, **kwargs)
            per_solve.append(len(applies))
            return out

        monkeypatch.setattr(elliptic, "_bicgstab", counted)
        for problem in (gill_problem(64), cone_problem(64, 32)):
            assert solve_elliptic(problem, tol=1e-10).iterations >= 4
        assert set(per_solve) == {2}

    def test_solution_keeps_the_updated_metric(self, chart2):
        base = np.array([[1.2, 0.1], [0.1, 1.0]])
        prob, _ = manufactured_problem(chart2, base, 13, 0.12)
        for method in ("newton-continuation", "gill-flow"):
            sol = solve_elliptic(prob, method, tol=1e-6)
            Gp = prob.omega.values + chart2.complex_hessian(sol.phi.values)
            updated = HermitianMatrixField.from_components(sol.problem.chart, sol.metric_parts)
            assert np.array_equal(updated.values, Gp)


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

    def test_solve_without_a_new_best_stops(self):
        # on this Gaussian matrix no iterate beats x = 0: the solve stops
        # once _KRYLOV_STALL iterations have passed without a new best, after
        # 1 + 2 * 6 applies, where the 400-iteration cap took 801
        rng = np.random.default_rng(4)
        A = rng.normal(size=(40, 40))
        rhs = rng.normal(size=40)
        applies = []
        x, res = _bicgstab(lambda v: applies.append(1) or A @ v, rhs, 1e-12)
        assert res == 1.0 and not x.any()
        assert len(applies) == 1 + 2 * (elliptic._KRYLOV_STALL + 1)

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
        # once, and the live real Hessian components (on active axes (0, 2)
        # Im h_12 is zero by construction, so 3 of n^2 = 4) come back in one
        # batched transform. Each chart transform is one numpy pass per
        # active axis: rfft and fft forward, ifft and irfft back
        calls = self._apply_transforms(wave_problem(32), monkeypatch)
        assert calls == {"rfft": 1, "fft": 1, "ifft": 1, "irfft": 1}

    def test_operator_apply_on_all_axes_transforms_all_n2_components(self, monkeypatch):
        chart = TorusChart(2, 8)
        base = np.array([[1.2, 0.15 + 0.05j], [0.15 - 0.05j, 1.0]])
        problem, _ = manufactured_problem(chart, base, 6, 0.05)
        calls = self._apply_transforms(problem, monkeypatch)
        # four active axes: one rfft and three fft forward; the 4 components
        # come back together in three ifft and one irfft
        assert calls == {"rfft": 1, "fft": 3, "ifft": 3, "irfft": 1}

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
            HermitianMatrixField(chart2, np.eye(2)), ScalarField(chart2, 0.0)
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
        Gp = HermitianMatrixField.from_components(chart2, sol.metric_parts).values
        tr = np.einsum("...ji,...ij->...", herm_inv(prob.omega.values), Gp).real
        shifted = sol.phi.values - sol.phi.values.min()
        expected = tuple(float(np.max(tr * np.exp(-A * shifted))) for A in grid)
        assert certify_estimates(sol, grid).C_coarse == expected

    def test_certify_transforms_real_fields_only(self, chart2, monkeypatch):
        # refining omega costs one forward and one inverse chart transform
        # per real component (4), F and phi one each; the 128^2 re-solve
        # starts converged, so it canonicalizes its start (one of each) and
        # makes one grid residual (one forward, and one inverse for its 3
        # live Hessian components); stats transforms nothing. On active axes
        # (0, 2) a forward transform is one rfft and one fft, an inverse one
        # ifft and one irfft
        base = np.array([[1.2, 0.1], [0.1, 1.0]])
        prob, _ = manufactured_problem(chart2, base, 13, 0.12)
        sol = solve_elliptic(prob)
        solves = record_solves(monkeypatch)
        calls = count_transforms(monkeypatch)
        certify_estimates(sol, (0.0, 1.0, 4.0))
        assert [s.iterations for _, s in solves] == [0]
        forward, inverse = 4 + 1 + 1 + 2, 4 + 1 + 1 + 2
        assert calls == {"rfft": forward, "fft": forward, "ifft": inverse, "irfft": inverse}

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_A_raises_before_resolving(self, chart2, monkeypatch, bad):
        prob = EllipticProblem(
            HermitianMatrixField(chart2, np.eye(2)), ScalarField(chart2, 0.0)
        )
        sol = solve_elliptic(prob)
        solves = record_solves(monkeypatch)
        with pytest.raises(ValueError, match="A values must be finite"):
            certify_estimates(sol, (0.0, bad, 1.0))
        assert solves == []

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


@st.composite
def random_problems(draw, nodes=(16, 32)):
    """Small random problems: n = 1 or 2, active axes 0 (and 2), cos and
    peaked waves. No wave is constant and no F wave is zero: either only
    moves b or adds nothing. The metric's waves are scaled so that each
    row's absolute sum off the identity is at most an edge drawn up to 0.9:
    Gershgorin keeps the background positive, with a margin as small as 0.1."""
    n = draw(st.sampled_from([1, 2]))
    chart = TorusChart(n, draw(st.sampled_from(nodes)), active_axes=tuple(range(0, 2 * n, 2)))

    def wave(i, j, amplitude, kmax):
        wavenumbers = draw(st.lists(st.integers(0, kmax), min_size=n, max_size=n).filter(any))
        return Perturbation(
            i, j, amplitude, tuple(x for k in wavenumbers for x in (k, 0)),
            draw(st.floats(0.0, 2.0 * np.pi)), draw(st.sampled_from(["cos", "peaked"])),
            draw(st.floats(1.2, 2.0)),
        )

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    weights = [draw(st.floats(-1.0, 1.0)) for _ in pairs]
    rows = [sum(abs(w) for (i, j), w in zip(pairs, weights) if r in (i, j)) for r in range(n)]
    scale = draw(st.floats(0.05, 0.9)) / max(max(rows), 1e-3)
    omega = TorusMetricRecipe(
        np.eye(n), [wave(i, j, scale * w, 2) for (i, j), w in zip(pairs, weights)]
    ).build(chart)
    F = ScalarRecipe([
        wave(0, 0, draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 1.0)), 3)
        for _ in range(draw(st.integers(1, 3)))
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

    def test_chained_krylov_applies(self, monkeypatch):
        # the newton_n2 recipe at tol 1e-10: the scaled preconditioner and the
        # spectral iterate take 41, 5 and 18 applies on 32^2, 64^2 and 128^2
        # (57, 9 and 30 with the flat preconditioner on grid iterates)
        applies = count_applies(monkeypatch)
        sol = solve_elliptic(wave_problem(128), tol=1e-10)
        assert sol.extras["coarse_levels"] == [((32, 32), 6), ((64, 64), 1)]
        assert sol.iterations == 1
        assert applies == {(32, 1, 32, 1): 41, (64, 1, 64, 1): 5, (128, 1, 128, 1): 18}

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

    def test_gill_flow_chains(self):
        # the newton_n2 recipe at tol 1e-6: 48 and 10 steps on 32^2 and 64^2,
        # then one on 128^2, where the cold relaxation takes 52
        problem, tol = wave_problem(128), 1e-6
        sol = solve_elliptic(problem, "gill-flow", tol=tol)
        levels = sol.extras["coarse_levels"]
        assert [nodes for nodes, _ in levels] == [(32, 32), (64, 64)]
        assert all(steps is not None for _, steps in levels)
        assert 1 <= sol.iterations <= 2
        assert sol.residual <= tol
        newton = solve_elliptic(problem, tol=tol)
        assert np.max(np.abs(sol.phi.values - newton.phi.values)) <= 1e-6

    def test_gill_flow_missed_level_stops_at_the_cap(self, monkeypatch):
        # the 32^2 level stalls above 1e-6 (after 150 steps without the cap);
        # the full grid then relaxes from phi = 0, as without the chain
        problem = missed_level_problem(128)
        cold = solve_elliptic(problem, "gill-flow", phi0=np.zeros(problem.chart.shape))
        steps = {}
        integrate = elliptic._integrate

        def counted(scenario, *args, **kwargs):
            for state in integrate(scenario, *args, **kwargs):
                steps[state.phi.shape] = steps.get(state.phi.shape, 0) + 1
                yield state

        monkeypatch.setattr(elliptic, "_integrate", counted)
        sol = solve_elliptic(problem, "gill-flow")
        assert sol.extras["coarse_levels"] == [((32, 32), None)]
        assert steps[(32, 1, 32, 1)] == elliptic._COARSE_GILL_STEPS
        assert (64, 1, 64, 1) not in steps
        assert_same_solution(sol, cold, exact=True)

    @pytest.mark.parametrize("wavenumber, levels", [
        (32, [((32,), 18), ((64,), None)]),  # the 64-node level's start fails
        (64, [((32,), 18), ((64,), 1)]),  # the full grid's start fails
    ])
    def test_gill_flow_start_outside_the_positive_cone_restarts_cold(self, wavenumber, levels):
        problem = cone_problem(128, wavenumber)
        sol = solve_elliptic(problem, "gill-flow", tol=1e-10)
        cold = solve_elliptic(problem, "gill-flow", tol=1e-10, phi0=np.zeros(problem.chart.shape))
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

    def test_gill_flow_has_no_chain_below_128_nodes(self):
        # the size gate is the chain's, so both methods share it
        problem = wave_problem(64)
        sol = solve_elliptic(problem, "gill-flow")
        assert "coarse_levels" not in sol.extras
        cold = solve_elliptic(problem, "gill-flow", phi0=np.zeros(problem.chart.shape))
        assert_same_solution(sol, cold, exact=True)

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


class TestGillFlowSweep:
    @given(random_problems())
    def test_converges_or_raises_nonconvergence(self, problem):
        # every drawn problem: a residual within tol or NonConvergence, never
        # another error; where step tolerance 1e-3 converges, gill-flow's own
        # converges too, to the same phi and b within 10 tol
        tol = elliptic._default_tol(problem.chart)

        def relax():
            try:
                sol = solve_elliptic(problem, "gill-flow")
            except NonConvergence:
                return None
            assert sol.residual <= tol
            return sol

        relaxed = relax()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(elliptic._Relaxation, "step_tol", 1e-3)
            tight = relax()
        if tight is not None:
            assert relaxed is not None
            assert np.max(np.abs(relaxed.phi.values - tight.phi.values)) <= 10 * tol
            assert abs(relaxed.b - tight.b) <= 10 * tol


class TestNewtonSweep:
    @given(random_problems())
    def test_converges_or_raises_nonconvergence_and_agrees_with_gill_flow(self, problem):
        # every drawn problem: Newton returns a residual within tol or raises
        # NonConvergence, never another error; where Newton and gill-flow both
        # converge, their phi and b agree within 10 tol
        tol = elliptic._default_tol(problem.chart)

        def solve(method):
            try:
                sol = solve_elliptic(problem, method)
            except NonConvergence:
                return None
            assert sol.residual <= tol
            return sol

        newton = solve("newton-continuation")
        gill = solve("gill-flow")
        if newton is not None and gill is not None:
            assert np.max(np.abs(newton.phi.values - gill.phi.values)) <= 10 * tol
            assert abs(newton.b - gill.b) <= 10 * tol
