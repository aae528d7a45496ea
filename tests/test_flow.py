import dataclasses
import os

import numpy as np
import pytest

from crflab import flow, geometry
from crflab.errors import (
    DegenerateReference,
    NotPositiveDefinite,
    PositivityLost,
    PositivityUnreachable,
)
from crflab.geometry import (
    HermitianMatrixField,
    ScalarField,
    TorusChart,
    VolumeField,
    herm_components,
    herm_det,
    herm_logdet,
    i_ddbar,
    metric_volume,
)
from crflab.flow import (
    FlowScenario,
    FlowState,
    StepControl,
    equivalence_check,
    read_checkpoint,
    run,
    run_normalized,
    scenario_from_metric,
    step,
    write_checkpoint,
)
from crflab.tensors import chern_ricci, closedness_residual

from conftest import bandlimited_scalar, count_transforms, reference_metric, rk4

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


@pytest.fixture
def n1_metric(chart1):
    x = chart1.axis_coordinates(0)
    vals = np.exp(0.1 * np.sin(x))[..., None, None] * np.ones(chart1.shape + (1, 1))
    return HermitianMatrixField(chart1, vals.astype(complex))


@pytest.fixture
def n2_metric(chart2):
    from crflab.models import random_metric_recipe

    rng = np.random.default_rng(11)
    return random_metric_recipe(rng, 2, scale=0.12, peaked=False).build(chart2)


class TestScenarioConstruction:
    def test_flat_metric_trivial_references(self, chart2):
        g0 = HermitianMatrixField.constant(chart2, 1.5 * np.eye(2))
        sc = scenario_from_metric(g0, 10.0)
        assert np.max(np.abs(sc.chi.values)) <= 1e-14
        assert np.max(np.abs(sc.omega_density.values - 1.5 ** 2)) <= 1e-12

    def test_auto_potential_solves_trace_equation(self, chart2, n2_metric):
        sc = scenario_from_metric(n2_metric, 7.0)
        ric = chern_ricci(n2_metric)
        recovered = i_ddbar(sc.f_T0)
        assert np.max(np.abs(recovered.values - 7.0 * ric.values)) <= 1e-10
        assert closedness_residual(chart2, sc.chi.values) <= 1e-10

    def test_kahler_density_matches_definition(self, chart2):
        phi = bandlimited_scalar(chart2, 5, amplitude=0.1)
        g0 = HermitianMatrixField(chart2, 1.2 * np.eye(2) + i_ddbar(phi).values)
        sc = scenario_from_metric(g0, 5.0)
        from crflab.geometry import herm_det

        expected = herm_det(g0.values) * np.exp(sc.f_T0.values / 5.0)
        assert np.max(np.abs(sc.omega_density.values - expected)) <= 1e-12

    def test_unreachable_positivity_rejected(self, chart1, n1_metric):
        # a user-supplied potential that destroys positivity of alpha_T0
        x = chart1.axis_coordinates(0)
        f_bad = ScalarField(chart1, 10.0 * np.cos(x) * np.ones(chart1.shape))
        with pytest.raises(PositivityUnreachable):
            scenario_from_metric(n1_metric, 5.0, f_T0=f_bad)

    def test_reference_family_checked_at_horizon(self, chart1):
        # g0 + t chi = 1 - t is positive at t = 0 and indefinite at T0 = 2
        g0 = HermitianMatrixField.constant(chart1, np.array([[1.0]]))
        chi = HermitianMatrixField.constant(chart1, np.array([[-1.0]]))
        with pytest.raises(PositivityUnreachable):
            FlowScenario(g0, 2.0, chi, VolumeField(chart1, 1.0))


class TestDriftMonitorConstant:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_sampling_in_t(self, n):
        chart = TorusChart(n, 16, active_axes=(0,))
        x = chart.axis_coordinates(0)[..., None, None]
        off = np.ones((n, n)) - np.eye(n)
        g0 = np.eye(n) * (1.0 + 0.2 * np.sin(x)) + 0.05 * np.cos(x) * off
        if n == 1:
            # log det is monotone in t; chi's sign decides which end wins
            chi = 0.5 * np.cos(x) * np.ones((1, 1))
        else:
            # mixed-sign chi: log det(g0 + t chi) peaks inside [0, T0]
            chi = np.diag([1.0, -0.5, 0.3][:n]) + 0.1j * (np.triu(off) - np.tril(off))
            chi = np.broadcast_to(chi, chart.shape + (n, n))
        density = 1.0 + 0.1 * np.cos(2.0 * x[..., 0, 0])
        sc = FlowScenario(
            HermitianMatrixField(chart, g0.astype(complex)),
            1.0,
            HermitianMatrixField(chart, chi.astype(complex)),
            VolumeField(chart, density),
        )
        # 20001 samples put every node's maximum within 1e-9 of a sample
        ts = np.linspace(0.0, 1.0, 20001)
        grid = (slice(None),) + (None,) * (chart.naxes + 2)
        chunks = np.array_split(ts, 10)
        h = np.concatenate([np.linalg.slogdet(g0 + t[grid] * chi)[1] for t in chunks])
        h -= np.log(density)
        assert sc.monitor_A >= h.max() - 1e-12
        assert sc.monitor_A <= h.max() + 1e-9
        if n == 1:
            assert set(ts[h.argmax(axis=0)].ravel()) == {0.0, 1.0}
        else:
            assert 0.0 < ts[np.unravel_index(h.argmax(), h.shape)[0]] < 1.0

    def test_zero_chi_gives_the_initial_log_volume_ratio(self, chart2, n2_metric):
        # the gill-flow scenario: chi = 0 over an unbounded horizon
        density = VolumeField(chart2, 1.0 + 0.1 * np.cos(chart2.axis_coordinates(0)))
        chi = HermitianMatrixField(chart2, np.zeros(chart2.shape + (2, 2)))
        sc = FlowScenario(n2_metric, 1e12, chi, density)
        expected = np.max(herm_logdet(n2_metric.values) - np.log(density.values))
        assert sc.monitor_A == expected


class TestStepping:
    def test_flat_scenario_is_stationary(self, chart2):
        g0 = HermitianMatrixField.constant(chart2, np.eye(2))
        sc = scenario_from_metric(g0, 10.0)
        state = FlowState.initial(sc)
        for _ in range(3):
            state = step(state, sc)
        assert np.max(np.abs(state.phi)) <= 1e-14

    def test_rk4_reversibility_order(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        state = FlowState.initial(sc)
        forward = step(state, sc, dt_max=1e-3)
        # reverse the step by integrating the reversed vector field
        class Reversed:
            def __init__(self, base):
                self.base = base

            def rhs(self, phi, t):
                vals, G = self.base.rhs(phi, forward.t - (t - state.t))
                return -vals, G

        back = rk4(Reversed(sc).rhs, forward.phi, state.t, 1e-3)
        assert np.max(np.abs(back - state.phi)) <= 1e-3 ** 5

    def test_area_conserved_per_unit_time(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        record, state = run(sc, 1.0)
        vol = record.column("volume")
        assert state.t >= 1.0 - 1e-9
        assert np.max(np.abs(vol - vol[0])) <= 1e-10

    def test_exactness_of_potential_decomposition(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        _, state = run(sc, 0.5)
        diff = state.omega - reference_metric(sc, state.t)
        assert np.max(np.abs(state.chart.mean(diff))) <= 1e-13

    def test_step_underflow(self, chart1, n1_metric, monkeypatch):
        from crflab.errors import StepUnderflow

        monkeypatch.setattr(flow, "_DT_MIN", 1.0)
        sc = scenario_from_metric(n1_metric, 50.0)
        with pytest.raises(StepUnderflow):
            step(FlowState.initial(sc), sc)

    def test_positivity_floor_triggers(self, chart1):
        # hand-built state below the eigenvalue floor: step must refuse
        g0 = HermitianMatrixField.constant(chart1, np.array([[1.0]]))
        sc = scenario_from_metric(g0, 10.0, control=StepControl(eps_pd=1e-2))
        x = chart1.axis_coordinates(0)
        phi_vals = -3.97 * np.cos(x) * np.ones(chart1.shape)
        omega = HermitianMatrixField(
            chart1, g0.values + chart1.complex_hessian(phi_vals)
        )
        assert 0 < np.min(omega.values[..., 0, 0].real) < 1e-2
        state = sc.state_at(0.0, phi_vals)
        with pytest.raises(PositivityLost):
            step(state, sc)

    def test_interior_stage_positivity_guard(self, chart1):
        g0 = HermitianMatrixField.constant(chart1, np.array([[1.0]]))
        sc = scenario_from_metric(g0, 10.0)
        x = chart1.axis_coordinates(0)
        with pytest.raises(PositivityLost):
            sc.rhs(-8.0 * np.cos(x) * np.ones(chart1.shape), 0.0)

    def test_interior_stage_guard_beyond_n2(self):
        chart3 = TorusChart(3, 8, active_axes=(0,))
        g0 = HermitianMatrixField.identity(chart3)
        chi = HermitianMatrixField.constant(chart3, np.diag([-1.0, -1.0, 1.0]))
        sc = FlowScenario(g0, 0.5, chi, VolumeField(chart3, 1.0))
        phi = np.zeros(chart3.shape)
        assert np.all(sc.rhs(phi, 0.0)[0] == 0.0)
        # ghat_2 = diag(-1, -1, 3): det 3 > 0 and tr 1 > 0, yet two
        # eigenvalues are negative
        with pytest.raises(PositivityLost):
            sc.rhs(phi, 2.0)

    def test_non_finite_potential_loses_positivity(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        state = FlowState.initial(sc)
        phi = state.phi.copy()
        phi[3] = np.nan
        with pytest.raises(PositivityLost):
            step(dataclasses.replace(state, phi=phi), sc)


STAGE_CHARTS = [
    TorusChart(1, 32, active_axes=(0,)),
    TorusChart(2, 32, active_axes=(0, 2)),
    TorusChart(2, 16),
    TorusChart(3, 8, active_axes=(0, 2, 4)),
]
STAGE_IDS = ["n1", "n2_axes_0_2", "n2_all", "n3_axes_0_2_4"]


def _stage_scenario(chart, normalized):
    from crflab.flow import NormalizedScenario
    from crflab.models import random_metric_recipe

    rng = np.random.default_rng(17)
    axes = chart.active_axes if chart.n > 1 else None
    g0 = random_metric_recipe(rng, chart.n, scale=0.12, peaked=False, axes=axes).build(chart)
    sc = scenario_from_metric(g0, 20.0)
    return NormalizedScenario(sc, target_form=g0) if normalized else sc


class TestComponentStage:
    """The stage right side works on the metric's real components, for every n."""

    @pytest.mark.parametrize("normalized", [False, True], ids=["plain", "normalized"])
    @pytest.mark.parametrize("chart", STAGE_CHARTS, ids=STAGE_IDS)
    def test_matches_the_matrix_path_bitwise(self, chart, normalized):
        sc = _stage_scenario(chart, normalized)
        phi = bandlimited_scalar(chart, 8, amplitude=0.05).values
        t = 0.7
        decay = np.exp(-t)
        g0, chi = sc.g0.values, sc.chi.values
        ref = chi * (1.0 - decay) + decay * g0 if normalized else g0 + t * chi
        assert np.array_equal(reference_metric(sc, t), ref)
        G = ref + chart.complex_hessian(phi)
        expected = herm_logdet(G) - np.log(sc.omega_density.values)
        # a stage reads phi back from its spectrum
        for got, seen in ((sc.rhs(phi, t)[0], phi),
                          (sc.rhs(None, t, chart.rfft(phi))[0], chart.irfft(chart.rfft(phi)))):
            assert np.array_equal(got, expected - seen if normalized else expected)
        omega = sc.state_at(t, phi).omega
        assert np.array_equal(omega, G)

    @pytest.mark.parametrize("chart", STAGE_CHARTS, ids=STAGE_IDS)
    def test_a_state_takes_one_eigenvalue_pass(self, chart, monkeypatch):
        # state_at's bounds are the one pass: the stage's positivity test is
        # det > 0 and A_11 > 0 for n <= 2 and a Cholesky factor beyond
        sc = _stage_scenario(chart, False)
        calls = []
        bounds = geometry.components_eig_bounds

        def counted(parts):
            calls.append(len(parts))
            return bounds(parts)

        monkeypatch.setattr(geometry, "components_eig_bounds", counted)
        monkeypatch.setattr(flow, "components_eig_bounds", counted)
        FlowState.initial(sc)
        assert len(calls) == 1

    @pytest.mark.parametrize("chart", STAGE_CHARTS[:3], ids=STAGE_IDS[:3])
    def test_a_run_assembles_no_matrix_until_omega_is_read(self, chart, monkeypatch):
        # a state keeps omega's components; for n <= 2 only FlowState.omega
        # builds the complex matrix
        sc = _stage_scenario(chart, False)
        calls = []
        assemble = geometry.herm_from_components

        def counted(parts, shape):
            calls.append(shape)
            return assemble(parts, shape)

        monkeypatch.setattr(geometry, "herm_from_components", counted)
        monkeypatch.setattr(flow, "herm_from_components", counted)
        record, state = run(sc, 0.02)
        assert len(record.rows) >= 2 and calls == []
        assert state.omega.shape == chart.shape + (chart.n, chart.n)
        assert len(calls) == 1

    @pytest.mark.parametrize("normalized", [False, True], ids=["plain", "normalized"])
    @pytest.mark.parametrize("chart", STAGE_CHARTS[:2], ids=STAGE_IDS[:2])
    def test_stage_that_loses_positivity_raises(self, chart, normalized):
        sc = _stage_scenario(chart, normalized)
        # -8 cos x along each complex direction sends d_i d_ibar phi to -2 at x = pi
        phi = sum(
            -8.0 * np.cos(chart.axis_coordinates(2 * i)) for i in range(chart.n)
        ) * np.ones(chart.shape)
        with pytest.raises(PositivityLost):
            sc.rhs(None, 0.0, chart.rfft(phi))
        with pytest.raises(PositivityLost):
            sc.rhs(phi, 0.0)

    def test_negative_definite_stage_raises_though_det_is_positive(self, chart2, n2_metric):
        # ghat_0 = -g0 has det > 0 at every node: only the trace test sees it
        sc = scenario_from_metric(n2_metric, 50.0)
        sc._g0_parts = herm_components(-n2_metric.values)
        assert herm_det(-n2_metric.values).min() > 0.0
        with pytest.raises(PositivityLost):
            sc.rhs(np.zeros(chart2.shape), 0.0)


class TestExponentialStepper:
    """ETDRK4 against the classical RK4 reference."""

    @staticmethod
    def _rk4_reference(sc, t_end, dt=1e-3):
        phi = FlowState.initial(sc).phi
        for k in range(int(round(t_end / dt))):
            phi = rk4(sc.rhs, phi, k * dt, dt)
        return phi

    @staticmethod
    def _fixed_steps(sc, dt, t_end):
        state = FlowState.initial(sc)
        for _ in range(int(round(t_end / dt))):
            state = step(dataclasses.replace(state, dt_next=dt), sc)
        return state

    def test_phi_functions_on_both_branches(self):
        import math

        from crflab.flow import _phi_functions

        z = np.array([0.0, -1e-9, -1e-4, -0.5, -1.0 + 1e-12, -1.0, -1.7, -40.0])
        got = _phi_functions(z)
        for k in (1, 2, 3):
            for zi, value in zip(z, got[k - 1]):
                if zi > -2.0:  # the series, summed far past rounding
                    exact = math.fsum(zi ** j / math.factorial(j + k) for j in range(40))
                else:  # the closed form, free of cancellation here
                    head = sum(zi ** j / math.factorial(j) for j in range(k))
                    exact = (math.exp(zi) - head) / zi ** k
                assert abs(value - exact) <= 1e-15 * abs(exact)

    def test_phi_functions_are_bitwise_the_plain_recurrences(self):
        # the recurrence from expm1(z)/z for |z| >= 1, and below it phi_3's
        # 17-term Horner sum from zero, then phi_k = z phi_{k+1} + 1/k!
        import math

        from crflab.flow import _phi_functions

        z = -np.geomspace(1e-9, 60.0, 257)
        z[::7] = -1.0
        expected = np.empty((3,) + z.shape)
        big = np.abs(z) >= 1.0
        zb, zs = z[big], z[~big]
        p = np.expm1(zb) / zb
        for k in range(3):
            expected[k][big] = p
            p = (p - 1.0 / math.factorial(k + 1)) / zb
        p = np.zeros_like(zs)
        for j in range(16, -1, -1):
            p = p * zs + 1.0 / math.factorial(j + 3)
        for k in (3, 2, 1):
            expected[k - 1][~big] = p
            p = p * zs + 1.0 / math.factorial(k - 1)
        assert np.array_equal(_phi_functions(z), expected)

    def test_phi_functions_are_elementwise(self):
        # a step evaluates hL/2 and hL in one stacked call
        from crflab.flow import _phi_functions

        z = -np.geomspace(1e-9, 60.0, 257).reshape(1, 257, 1)
        stacked = _phi_functions(np.stack([0.5 * z, z]))
        assert np.array_equal(stacked[:, 0], _phi_functions(0.5 * z))
        assert np.array_equal(stacked[:, 1], _phi_functions(z))

    def test_agrees_with_rk4_at_small_dt(self, n2_metric):
        from crflab.flow import _etdrk4

        sc = scenario_from_metric(n2_metric, 50.0)
        state = step(FlowState.initial(sc), sc)
        symbol = sc._laplacian / state.eig_min
        etd, _ = _etdrk4(sc.rhs, state.phi, state.t, 1e-3, sc.chart, symbol)
        ref = rk4(sc.rhs, state.phi, state.t, 1e-3)
        assert np.max(np.abs(etd - ref)) <= 1e-14

    def test_embedded_estimate_is_third_order_per_step(self, n2_metric):
        # the controller's exponent 1/3 assumes the gap to the order-2
        # exponential trapezoid shrinks like dt^3 over one step
        from crflab.flow import _etdrk4

        sc = scenario_from_metric(n2_metric, 50.0)
        state = FlowState.initial(sc)
        symbol = sc._laplacian / state.eig_min
        gaps = []
        for dt in (0.1, 0.05, 0.025):
            phi, trapezoid = _etdrk4(sc.rhs, state.phi, 0.0, dt, sc.chart, symbol)
            gaps.append(np.max(np.abs(phi - trapezoid(sc.rhs(phi, dt)[0]))))
        assert all(coarse >= 6.0 * fine for coarse, fine in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("metric", ["n1_metric", "n2_metric"])
    def test_fourth_order_in_dt(self, request, metric):
        sc = scenario_from_metric(request.getfixturevalue(metric), 50.0)
        reference = self._rk4_reference(sc, 0.2)
        errors = [
            np.max(np.abs(self._fixed_steps(sc, dt, 0.2).phi - reference))
            for dt in (0.2, 0.1, 0.05, 0.025)
        ]
        assert all(coarse >= 12.0 * fine for coarse, fine in zip(errors, errors[1:]))

    def test_step_transform_count(self, n2_metric, monkeypatch):
        # the state and stages stay half spectra: per step, phi and the
        # four right sides go forward (plus phi again in state_at and the
        # new right side for the error estimate); each of the five Hessians
        # costs one inverse transform per live component, 3 of n^2 = 4 on
        # active axes (0, 2), where Im h_12 is zero by construction, and the
        # new phi and the trapezoid one each; no stage goes to the grid,
        # since this right side does not read phi. On active axes (0, 2) a
        # forward transform is one rfft and one fft, an inverse one ifft
        # and one irfft
        sc = scenario_from_metric(n2_metric, 50.0)
        state = FlowState.initial(sc)
        calls = count_transforms(monkeypatch)
        step(state, sc)
        assert calls == {"rfft": 7, "fft": 7, "ifft": 17, "irfft": 17}

    def test_step_far_beyond_rk4_stability(self, n2_metric):
        from crflab.flow import _RK4_STABILITY

        sc = scenario_from_metric(n2_metric, 50.0)
        state = FlowState.initial(sc)
        rate = -np.min(sc._laplacian) / state.eig_min
        assert 0.2 >= 45.0 * sc.control.safety * _RK4_STABILITY / rate
        new = self._fixed_steps(sc, 0.2, 0.2)
        assert new.eig_min >= sc.control.eps_pd
        assert np.max(np.abs(new.phi - self._rk4_reference(sc, 0.2))) <= 1e-6


class TestRun:
    def test_gauge_consistency_fd_in_time(self, chart1, n1_metric):
        # evolving phi then forming omega agrees with evolving omega by -Ric
        sc = scenario_from_metric(n1_metric, 50.0)
        state = FlowState.initial(sc)
        dt = 5e-4
        minus = step(state, sc, dt_max=dt)
        center = step(minus, sc, dt_max=dt)
        plus = step(center, sc, dt_max=dt)
        fd = (plus.omega - minus.omega) / (plus.t - minus.t)
        ric = chern_ricci(HermitianMatrixField(center.chart, center.omega)).values
        assert np.max(np.abs(fd + ric)) <= 1e-6

    def test_monitors_monotone(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        record, _ = run(sc, 3.0)
        q1 = record.column("q1_max")
        q0 = record.column("q0_min")
        assert np.max(np.diff(q1)) <= 1e-8
        assert np.min(np.diff(q0)) >= -1e-8
        drift = record.column("phi_sup") - sc.monitor_A * record.column("t")
        assert np.max(np.diff(drift)) <= 1e-8

    def test_n3_monitors_monotone(self):
        from crflab.models import random_metric_recipe

        chart3 = TorusChart(3, 8, active_axes=(0, 2, 4))
        rng = np.random.default_rng(3)
        g0 = random_metric_recipe(rng, 3, scale=0.1, peaked=False).build(chart3)
        sc = scenario_from_metric(g0, 10.0)
        record, state = run(sc, 1.0)
        assert state.t >= 1.0 - 1e-9
        assert np.max(np.diff(record.column("q1_max"))) <= 1e-8
        assert np.min(np.diff(record.column("q0_min"))) >= -1e-8

    def test_dt_column_is_time_difference(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        plain, _ = run(sc, 0.3)
        normalized, _, _ = run_normalized(sc, 0.3, target_form=n1_metric)
        for record in (plain, normalized):
            t = record.column("t")
            assert np.array_equal(record.column("dt"), np.diff(t, prepend=t[0]))

    def test_horizon_validation(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 2.0)
        with pytest.raises(ValueError):
            run(sc, 3.0)

    def test_convergence_declaration(self, chart1, n1_metric):
        sc = scenario_from_metric(
            n1_metric, 500.0, convergence_tol=1e-5, convergence_patience=2
        )
        record, state = run(sc, 400.0)
        assert "converged_at" in record.meta
        assert state.t < 400.0

    def test_resume_restarts_convergence_patience(self, chart1, n1_metric):
        # quiet time before a resume does not count: the resumed run needs
        # its own convergence_patience of quiet steps
        sc = scenario_from_metric(
            n1_metric, 500.0, convergence_tol=1e-5, convergence_patience=2.0
        )
        states = []
        full, _ = run(sc, 400.0, callback=lambda st, record: states.append(st))
        t_c = full.meta["converged_at"]
        # the quiet stretch began at a step time <= t_c - 2, so at or before
        # the step before t_c; resuming there retakes the step to t_c
        mid = states[-2]
        resumed, _ = run(sc, 400.0, state=mid)
        assert resumed.rows[1][0] == t_c
        assert resumed.meta["converged_at"] > t_c

    def test_positivity_lost_propagates_with_state(self, chart1):
        g0 = HermitianMatrixField.constant(chart1, np.array([[1.0]]))
        sc = scenario_from_metric(g0, 10.0, control=StepControl(eps_pd=1e-2))
        x = chart1.axis_coordinates(0)
        phi_vals = -3.97 * np.cos(x) * np.ones(chart1.shape)
        state = sc.state_at(0.0, phi_vals)
        with pytest.raises(PositivityLost) as info:
            run(sc, 1.0, state=state)
        assert info.value.last_state is not None
        assert hasattr(info.value, "record")

    def test_checkpoint_roundtrip(self, tmp_path, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        _, state = run(sc, 0.2)
        path = str(tmp_path / "state.snap")
        write_checkpoint(path, state, dt_hint=1e-3)
        loaded = read_checkpoint(path, sc)
        assert abs(loaded.t - state.t) <= 1e-15
        assert np.max(np.abs(loaded.phi - state.phi)) <= 1e-15
        assert np.max(np.abs(loaded.omega - state.omega)) <= 1e-13

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        # the checkpoint carries the controller's next step, so a resumed
        # run takes the same steps as one that never stopped
        from crflab.cli import _scenario_from_config
        from crflab.io import load_config

        cfg = load_config(os.path.join(CONFIGS, "flow_n1.cfg"), "scenario")
        sc, _ = _scenario_from_config(cfg, 0)
        path = str(tmp_path / "step20.snap")

        def callback(st, record):
            if len(record.rows) - 1 == 20:
                write_checkpoint(path, st, st.dt_next)

        full, end = run(sc, 60.0, callback=callback)
        assert len(full.rows) - 1 > 20
        tail, resumed = run(sc, 60.0, state=read_checkpoint(path, sc))
        assert np.array_equal(resumed.phi, end.phi)
        assert tail.rows[1:] == full.rows[21:]


class TestNormalized:
    def test_requires_target_on_degenerate_chart(self, chart2, n2_metric):
        sc = scenario_from_metric(n2_metric, 10.0)
        with pytest.raises(DegenerateReference):
            run_normalized(sc, 1.0)

    def test_target_must_be_positive(self, chart2, n2_metric):
        sc = scenario_from_metric(n2_metric, 10.0)
        bad = HermitianMatrixField.constant(chart2, np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            run_normalized(sc, 1.0, target_form=bad)

    def test_flat_exponential_decay(self, chart1):
        g0 = HermitianMatrixField.constant(chart1, np.array([[2.0]]))
        sc = scenario_from_metric(g0, 10.0)
        _, _, samples = run_normalized(
            sc, 2.0, target_form=g0, sample_times=[1.0, 2.0]
        )
        for t, vals in samples.items():
            ratio = vals[..., 0, 0].real / 2.0
            assert np.max(np.abs(ratio - np.exp(-t))) <= 0.05 * np.exp(-t)

    def test_equivalence_small_grid(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 100.0)
        out = equivalence_check(sc, s_end=2.0, samples=9)
        assert out["max_discrepancy"] <= 1e-5

    def test_equivalence_makes_rows_for_the_normalized_pass_only(self, n1_metric, monkeypatch):
        # the unnormalized pass stores samples and builds no monitor row
        from crflab import flow

        rows = []
        monitor = flow._monitor_row
        monkeypatch.setattr(flow, "_monitor_row", lambda *a: rows.append(a) or monitor(*a))
        out = equivalence_check(scenario_from_metric(n1_metric, 100.0), s_end=2.0, samples=9)
        assert len(rows) == len(out["normalized_record"].rows)


class TestTrajectoryRecord:
    def test_rows_strictly_increasing(self):
        from crflab.flow import TrajectoryRecord

        rec = TrajectoryRecord()
        row = {c: 0.0 for c in rec.columns}
        rec.append(**row)
        with pytest.raises(ValueError):
            rec.append(**row)

    def test_volume_matches_direct_integral(self, chart1, n1_metric):
        sc = scenario_from_metric(n1_metric, 50.0)
        record, state = run(sc, 0.1)
        omega = HermitianMatrixField(state.chart, state.omega)
        assert abs(record.column("volume")[-1] - metric_volume(omega)) <= 1e-12
