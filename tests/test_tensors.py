import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from crflab.errors import ClosednessViolated, NotPositiveDefinite
from crflab import geometry, tensors
from crflab.geometry import (
    HermitianMatrixField,
    ScalarField,
    TorusChart,
    i_ddbar,
    refine_chart,
)
from crflab.models import (
    Perturbation,
    ScalarRecipe,
    TorusMetricRecipe,
    random_verification_triple,
)
from crflab.tensors import (
    chern_ricci,
    closedness_residual,
    verify_bianchi_vanishing,
    verify_schwarz_identity,
    verify_trace_evolution,
)

from conftest import (
    bandlimited_scalar,
    commutator_residual,
    count_transforms,
    ricci_from_curvature,
)


def seeded_triple(chart, seed):
    rng = np.random.default_rng(seed)
    r_g0, r_gh, r_phi = random_verification_triple(rng, chart.n, axes=chart.active_axes)
    return r_g0.build(chart), r_gh.build(chart), r_phi.build(chart)


class TestChernRicci:
    def test_constant_metric_is_flat(self, chart2):
        g = HermitianMatrixField(chart2, np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert np.max(np.abs(chern_ricci(g).values)) <= 1e-14

    def test_scale_invariance(self, chart2, nonkahler_metric):
        r1 = chern_ricci(nonkahler_metric).values
        r2 = chern_ricci(
            HermitianMatrixField(chart2, 3.7 * nonkahler_metric.values)
        ).values
        assert np.max(np.abs(r1 - r2)) <= 1e-12

    def test_depends_only_on_determinant(self, chart2, nonkahler_metric):
        # conjugate by a constant unimodular matrix: same det field, new metric
        a = np.array([[1.0, 0.3], [0.0, 1.0]])
        other = np.einsum(
            "ab,...bc,dc->...ad", a, nonkahler_metric.values, np.conj(a)
        )
        g2 = HermitianMatrixField(chart2, other)
        diff = chern_ricci(nonkahler_metric).values - chern_ricci(g2).values
        assert np.max(np.abs(diff)) <= 1e-12

    def test_output_is_closed(self, chart2, nonkahler_metric):
        ric = chern_ricci(nonkahler_metric)
        assert closedness_residual(chart2, ric.values) <= 1e-9

    def test_equals_curvature_trace(self, chart2, nonkahler_metric):
        r1 = chern_ricci(nonkahler_metric).values
        r2 = ricci_from_curvature(nonkahler_metric)
        assert np.max(np.abs(r1 - r2)) <= 1e-8

    def test_rejects_indefinite_metric(self, chart2):
        with pytest.raises(NotPositiveDefinite):
            chern_ricci(HermitianMatrixField(chart2, np.diag([1.0, -1.0])))

    def test_rejects_negative_definite_metric(self, chart2):
        # det = 1 > 0: herm_logdet's trace test is what rejects it
        with pytest.raises(NotPositiveDefinite):
            chern_ricci(HermitianMatrixField(chart2, np.diag([-1.0, -1.0])))


class TestConnectionTorsionCurvature:
    """The certifiers' kernels, in their tensor-first layout: Gamma and T as
    [k, i, j, *grid], the lowered curvature as [k, l, i, j, *grid]."""

    def test_flat_metric_everything_vanishes(self, chart2):
        G, _, Gamma = tensors._chern(HermitianMatrixField(chart2, np.eye(2)))
        assert np.max(np.abs(Gamma)) == 0.0
        assert np.max(np.abs(tensors._torsion(Gamma))) == 0.0
        assert np.max(np.abs(tensors._curvature(chart2, Gamma, G)[1])) == 0.0

    def test_conformal_one_dimensional_formulas(self, chart1):
        u = bandlimited_scalar(chart1, 3, amplitude=0.2)
        vals = np.exp(u.values)[..., None, None].astype(complex)
        g = HermitianMatrixField(chart1, vals)
        _, _, Gamma = tensors._chern(g)
        du = chart1.grad(u.values)[0]
        assert np.max(np.abs(Gamma[0, 0, 0] - du)) <= 1e-10
        ric = chern_ricci(g).values[..., 0, 0]
        hess = chart1.complex_hessian(u.values)[..., 0, 0]
        assert np.max(np.abs(ric + hess)) <= 1e-10

    def test_kahler_torsion_vanishes(self, chart2):
        phi = bandlimited_scalar(chart2, 5, amplitude=0.15)
        g = HermitianMatrixField(
            chart2, np.eye(2) * 1.3 + i_ddbar(phi).values
        )
        assert np.max(np.abs(tensors._torsion(tensors._chern(g)[2]))) <= 1e-10

    def test_torsion_antisymmetry_exact(self, nonkahler_metric):
        tor = tensors._torsion(tensors._chern(nonkahler_metric)[2])
        assert np.max(np.abs(tor + np.swapaxes(tor, 1, 2))) == 0.0

    def test_curvature_conjugation_symmetry(self, chart2, nonkahler_metric):
        G, _, Gamma = tensors._chern(nonkahler_metric)
        _, low = tensors._curvature(chart2, Gamma, G)
        sym = np.conj(low) - np.einsum("klij...->lkji...", low)
        assert np.max(np.abs(sym)) <= 1e-10

    def test_commutator_rejects_indefinite_metric(self, chart2):
        g = HermitianMatrixField(chart2, np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            commutator_residual(g, np.ones(chart2.shape + (2,), dtype=complex))

    def test_commutation_formula_on_random_vector(self, chart2, nonkahler_metric):
        rng = np.random.default_rng(4)
        spec = np.zeros(chart2.shape + (2,), dtype=complex)
        for k in (-2, -1, 0, 1, 2):
            for m in (-2, -1, 1, 2):
                spec[k, 0, m, 0, :] = rng.normal(size=2) + 1j * rng.normal(size=2)
        X = np.fft.ifftn(spec, axes=chart2.active_axes)
        assert commutator_residual(nonkahler_metric, X) <= 1e-7

    def test_metric_compatibility(self, chart2, nonkahler_metric):
        # nabla_k g_{i jbar} = d_k g_{i jbar} - Gamma^r_{ki} g_{r jbar} = 0
        _, _, Gamma = tensors._chern(nonkahler_metric)
        G = tensors._tensor_first(chart2, nonkahler_metric.values)
        cov = chart2.grad(G) - np.einsum("rki...,rj...->kij...", Gamma, G)
        assert np.max(np.abs(cov)) <= 1e-9


class TestTraceEvolution:
    def test_flat_everything_zero(self, chart2):
        g = HermitianMatrixField(chart2, np.eye(2))
        rep = verify_trace_evolution(g, g, ScalarField(chart2, 0.0))
        assert rep.identity_residual <= 1e-13

    def test_nonkahler_same_hat(self, chart2, nonkahler_metric):
        rep = verify_trace_evolution(
            nonkahler_metric, nonkahler_metric, ScalarField(chart2, 0.0), t=0.0
        )
        assert rep.identity_residual <= 1e-6
        assert rep.imag_residual <= 1e-9

    def test_distinct_hat_with_potential(self, chart2):
        g0, ghat, phi = seeded_triple(chart2, 7)
        rep = verify_trace_evolution(g0, ghat, phi, t=0.1)
        assert rep.identity_residual <= 1e-6
        assert max(rep.bound_violations) <= 1e-8
        assert rep.masked_fraction < 1.0

    def test_spectral_convergence_under_refinement(self, chart2):
        fine = refine_chart(chart2)
        g0c, ghc, pc = seeded_triple(chart2, 9)
        g0f, ghf, pf = seeded_triple(fine, 9)
        coarse = verify_trace_evolution(g0c, ghc, pc, t=0.1).identity_residual
        refined = verify_trace_evolution(g0f, ghf, pf, t=0.1).identity_residual
        assert coarse / max(refined, 1e-300) >= 100.0

    def test_closedness_gate(self, chart2, nonkahler_metric, monkeypatch):
        # chi = -Ric(g0) is closed up to rounding; a chi that is not (its
        # (0, 0) entry varies along x_2) must stop the certifier
        monkeypatch.setattr(tensors, "ricci_form", lambda chart, values: np.eye(2) - values)
        with pytest.raises(ClosednessViolated):
            verify_trace_evolution(
                nonkahler_metric, nonkahler_metric, ScalarField(chart2, 0.0), t=0.5
            )

    def test_constants_are_finite_and_reported(self, chart2):
        g0, ghat, phi = seeded_triple(chart2, 8)
        rep = verify_trace_evolution(g0, ghat, phi, t=0.05)
        assert all(np.isfinite(c) for c in rep.constants)
        assert rep.chi_closedness <= 1e-10
        assert rep.max_condition < 1e8

    def test_rejects_non_positive_omega(self, chart2, nonkahler_metric):
        # at t = 0, omega = g0 + i ddbar phi with d_1 d_1bar phi = -2 cos(x_1),
        # so omega's (0, 0) entry reaches 1.4 - 0.2 - 2 < 0
        x1 = chart2.axis_coordinates(0)
        phi = ScalarField(chart2, 8.0 * np.cos(x1) * np.ones(chart2.shape))
        with pytest.raises(NotPositiveDefinite, match=r"omega\(t\)"):
            verify_trace_evolution(nonkahler_metric, nonkahler_metric, phi)

    def test_working_memory(self, chart2):
        # liveness order (module docstring): the peak above the inputs stays
        # below 6.5 complex n^4 tensors; in the order the terms are displayed
        # it reaches 10.7
        g0, ghat, phi = seeded_triple(chart2, 7)
        verify_trace_evolution(g0, ghat, phi, t=0.1)  # the chart's caches
        tracemalloc.start()
        try:
            verify_trace_evolution(g0, ghat, phi, t=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n4 = chart2.n ** 4 * chart2.grid_count * np.dtype(complex).itemsize
        assert peak <= 6.5 * n4


class TestIdentityReport:
    def test_signed_zero_reads_as_zero(self):
        # for n = 1 term (III) vanishes, so its bound's residual can be -0.0
        # (torus1 at seeds 0, 1, 2, 3, 5, 7 and 11); a report stores and
        # writes it as 0, and every other value keeps its bits
        rep = tensors.IdentityReport(
            "trace_evolution_bound_III", -0.0, "128", 1e-8,
            extras={"c": -0.0, "tiny": -5e-324, "label": "-0", "count": 0},
        )
        assert not np.signbit(rep.residual)
        assert f"{rep.residual:.3e}" == "0.000e+00"
        lines = rep.lines()
        assert "residual = 0" in lines and "c = 0" in lines
        assert "tiny = -4.9406564584124654e-324" in lines
        assert "label = -0" in lines and "count = 0" in lines
        assert rep.passed


class TestTraceEvolutionDerivatives:
    """`verify_trace_evolution` takes three of its gradients from exact
    symmetries of tensors it already holds. On active axes (0, 2), where
    every fixture above lives, d and dbar are the same operator, so only
    charts with a y axis active can tell a flipped conjugation."""

    @pytest.fixture(params=[(8, None), (16, (0, 1, 2))], ids=["n2_all", "n2_axes_0_1_2"])
    def chart(self, request):
        resolution, axes = request.param
        return TorusChart(2, resolution, active_axes=axes)

    @staticmethod
    def assert_rounding_close(got, direct):
        assert np.max(np.abs(direct)) > 1e-3
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_nabla_bar_of_a_hermitian_metric(self, chart):
        g0, ghat, _ = seeded_triple(chart, 9)
        _, _, GammaHat = tensors._chern(ghat)
        G = tensors._tensor_first(chart, g0.values)
        d = chart.grad(G) - np.einsum("rki...,rj...->kij...", GammaHat, G)
        dbar = chart.grad(G, conj=True) - np.einsum(
            "slj...,is...->lij...", np.conj(GammaHat), G)
        # nabla_lbar g_{i jbar} = conj(nabla_l g_{j ibar})
        self.assert_rounding_close(np.conj(np.swapaxes(d, 1, 2)), dbar)

    def test_d_of_the_conjugate_torsion(self, chart):
        _, ghat, _ = seeded_triple(chart, 9)
        Ghat, _, GammaHat = tensors._chern(ghat)
        DbarGamma, _ = tensors._curvature(chart, GammaHat, Ghat)
        # d_i conj(T^q_{jl}) = conj(dbar_i Gamma^q_{jl} - dbar_i Gamma^q_{lj})
        self.assert_rounding_close(
            np.conj(DbarGamma - np.swapaxes(DbarGamma, 2, 3)),
            chart.grad(np.conj(tensors._torsion(GammaHat))),
        )

    def test_nabla_bar_of_the_torsion_lowered_by_g0(self, chart):
        g0, ghat, _ = seeded_triple(chart, 9)
        _, _, GammaHat = tensors._chern(ghat)
        G0, _, Gamma0 = tensors._chern(g0)
        T0 = tensors._torsion(Gamma0)
        S = np.einsum("pjl...,kp...->kjl...", np.conj(T0), G0)
        W = np.einsum("pik...,pj...->ikj...", T0, G0)
        dS = chart.grad(S) - np.einsum("rik...,rjl...->ikjl...", GammaHat, S)
        dbarW = chart.grad(W, conj=True) - np.einsum(
            "slj...,iks...->likj...", np.conj(GammaHat), W)
        # W_{ikj} = conj(S_{jik}), so nabla_lbar W_{ikj} = conj(nabla_l S_{jik})
        self.assert_rounding_close(np.conj(np.moveaxis(dS, 1, 3)), dbarW)

    def test_spectral_convergence_where_d_and_dbar_differ(self):
        chart = TorusChart(2, 16, active_axes=(0, 1, 2))
        coarse = verify_trace_evolution(*seeded_triple(chart, 9), t=0.1)
        fine = verify_trace_evolution(*seeded_triple(refine_chart(chart), 9), t=0.1)
        # the right side is real: its imaginary part converges as well
        assert coarse.identity_residual >= 5.0 * fine.identity_residual
        assert coarse.imag_residual >= 5.0 * fine.imag_residual
        assert max(fine.bound_violations) <= 1e-8

    def test_transform_count(self, chart2, monkeypatch):
        # 7 Wirtinger gradients (Christoffel symbols of ghat and g0, dbar
        # Gamma-hat, d g, d tau, d S, d chi for closedness), each one fft and
        # one ifft per complex direction: z_1 and z_2 vary along x only;
        # complex Hessians of log det g0, phi, log det g and log tau, one
        # forward chart transform each and one inverse for their 3 live
        # components, which on active axes (0, 2) are rfft and fft, and ifft
        # and irfft
        g0, ghat, phi = seeded_triple(chart2, 7)
        calls = count_transforms(monkeypatch)
        verify_trace_evolution(g0, ghat, phi, t=0.1)
        assert calls == {"fft": 14 + 4, "ifft": 14 + 4, "rfft": 4, "irfft": 4}


class TestBianchiVanishing:
    def test_flat(self, chart2):
        assert verify_bianchi_vanishing(HermitianMatrixField(chart2, np.eye(2))) <= 1e-15

    def test_kahler_perturbation(self, chart2):
        phi = bandlimited_scalar(chart2, 13, amplitude=0.15)
        g = HermitianMatrixField(chart2, 1.2 * np.eye(2) + i_ddbar(phi).values)
        assert verify_bianchi_vanishing(g) <= 1e-9

    def test_random_nonkahler(self, chart2):
        _, ghat, _ = seeded_triple(chart2, 21)
        assert verify_bianchi_vanishing(ghat) <= 1e-7


class TestSchwarzIdentity:
    def test_equal_metrics_residual_zero(self, nonkahler_metric):
        assert verify_schwarz_identity(nonkahler_metric, nonkahler_metric) == 0.0

    def test_flat_target_random_source(self, chart2):
        g, _, _ = seeded_triple(chart2, 15)
        gN = HermitianMatrixField(chart2, np.eye(2))
        assert verify_schwarz_identity(g, gN) <= 1e-7

    def test_scaling_target_leaves_residual(self, chart2):
        g, gN, _ = seeded_triple(chart2, 16)
        r1 = verify_schwarz_identity(g, gN)
        r2 = verify_schwarz_identity(
            g, HermitianMatrixField(chart2, 2.5 * gN.values)
        )
        assert abs(r1 - r2) <= 1e-12

    @pytest.mark.parametrize("diag", [(1.0, -1.0), (-1.0, -1.0)])
    def test_rejects_non_positive_metrics(self, chart2, nonkahler_metric, diag):
        bad = HermitianMatrixField(chart2, np.diag(diag))
        with pytest.raises(NotPositiveDefinite):
            verify_schwarz_identity(bad, nonkahler_metric)
        with pytest.raises(NotPositiveDefinite):
            verify_schwarz_identity(nonkahler_metric, bad)


class TestThreeDimensional:
    """n = 3 certifiers on 8 nodes per active axis; this runs the n >= 3
    inverse path. Amplitudes are small enough that aliasing of the
    nonlinear terms stays below the tolerances on so coarse a grid."""

    @pytest.fixture
    def chart3(self):
        return TorusChart(3, 8, active_axes=(0, 2, 4))

    @staticmethod
    def metric(chart, seed, amplitude=0.02):
        rng = np.random.default_rng(seed)
        perts = []
        for i in range(3):
            for j in range(i, 3):
                wave = [0] * 6
                wave[2 * int(rng.integers(3))] = 1
                perts.append(Perturbation(i, j, amplitude * (1.0 if i == j else 0.4),
                                          tuple(wave), float(2 * np.pi * rng.random())))
        return TorusMetricRecipe(np.eye(3), perts).build(chart)

    def test_trace_evolution_and_bianchi(self, chart3):
        g0, ghat = self.metric(chart3, 1), self.metric(chart3, 2)
        phi = ScalarRecipe([
            Perturbation(0, 0, 0.006, (1, 0, 0, 0, 0, 0), 0.4),
            Perturbation(0, 0, 0.004, (0, 0, 0, 0, 1, 0), 1.1),
        ]).build(chart3)
        rep = verify_trace_evolution(g0, ghat, phi, t=0.1)
        assert rep.identity_residual <= 1e-6
        assert rep.imag_residual <= 1e-9
        assert max(rep.bound_violations) <= 1e-8
        assert verify_bianchi_vanishing(ghat) <= 1e-9

    def test_trace_evolution_tests_omega_t_positive_once(self, chart3, monkeypatch):
        # one eigenvalue pass each for tensors._chern(ghat) and omega(t); omega(t)'s
        # log det takes no second pass, and the default chi's log det of g0
        # tests positivity with a Cholesky factor, not with eigenvalues
        g0, ghat = self.metric(chart3, 1), self.metric(chart3, 2)
        phi = ScalarRecipe([Perturbation(0, 0, 0.006, (1, 0, 0, 0, 0, 0), 0.4)]).build(chart3)
        calls = []
        bounds = tensors.herm_eig_bounds

        def counted(values):
            calls.append(values.shape)
            return bounds(values)

        monkeypatch.setattr(tensors, "herm_eig_bounds", counted)
        monkeypatch.setattr(geometry, "herm_eig_bounds", counted)
        verify_trace_evolution(g0, ghat, phi, t=0.1)
        assert len(calls) == 2

    def test_ricci_from_curvature_on_an_aliased_chart(self, chart3):
        # waves up to wavenumber 3 on 8 nodes: the curvature trace is
        # Hermitian only up to aliasing, so the cross-check path returns
        # its Hermitian part, which converges to chern_ricci on refinement
        waves = {(0, 0): (1, 0, 0, 0, 0, 0), (1, 1): (0, 0, 2, 0, 0, 0),
                 (2, 2): (0, 0, 0, 0, 3, 0), (0, 1): (0, 0, 0, 0, 1, 0),
                 (0, 2): (0, 0, 2, 0, 0, 0), (1, 2): (3, 0, 0, 0, 0, 0)}
        recipe = TorusMetricRecipe(np.eye(3), [
            Perturbation(i, j, 0.02, wave, 0.7 * (i + j)) for (i, j), wave in waves.items()
        ])
        gaps = []
        for chart in (chart3, refine_chart(chart3)):
            g = recipe.build(chart)
            ric = ricci_from_curvature(g)
            assert np.array_equal(ric, np.conj(np.swapaxes(ric, -1, -2)))
            gaps.append(np.max(np.abs(ric - chern_ricci(g).values)))
        assert gaps[1] <= 0.1 * gaps[0]

    def test_connection_symmetries(self, chart3):
        g = self.metric(chart3, 2, amplitude=0.01)
        G, _, Gamma = tensors._chern(g)
        assert Gamma.shape == (3, 3, 3) + chart3.shape
        tor = tensors._torsion(Gamma)
        assert np.max(np.abs(tor)) > 1e-3
        assert np.max(np.abs(tor + np.swapaxes(tor, 1, 2))) == 0.0
        _, low = tensors._curvature(chart3, Gamma, G)
        sym = np.conj(low) - np.einsum("klij...->lkji...", low)
        assert np.max(np.abs(sym)) <= 1e-10


def test_contractions_are_pairwise_with_fixed_order():
    """Every einsum in tensors takes at most two operands and no path search."""
    calls = [
        node for node in ast.walk(ast.parse(inspect.getsource(tensors)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
    ]
    assert calls
    for call in calls:
        assert len(call.args) <= 3, ast.unparse(call)
        assert not call.keywords, ast.unparse(call)
        assert ast.literal_eval(call.args[0]).split("->")[0].count(",") <= 1
