import numpy as np
import pytest

from crflab.errors import NotPositiveDefinite, UnsupportedIntegrand
from crflab.geometry import HopfSampleSet, TorusChart, herm_mixed_det, min_eigenvalue
from crflab.models import (
    LogRadius,
    Perturbation,
    ReBilinear,
    TorusMetricRecipe,
    ZeroPotential,
    hopf_det,
    hopf_limit_form,
    hopf_metric_at,
    hopf_reference_stacks,
    hopf_ricci,
    hopf_round_metric,
    hopf_surface_data,
    integrate_hopf,
    verify_deck_invariance,
    verify_hopf_flow,
    verify_hopf_trace_chain,
)

from conftest import (
    ModulusProduct,
    RadiusSquared,
    SumPotential,
    fd_dz,
    fd_dzbar,
    fd_hessian,
)


@pytest.fixture(scope="module")
def sample2():
    return HopfSampleSet.random(2, 2.0, 100, seed=3)


@pytest.fixture(scope="module")
def sample3():
    return HopfSampleSet.random(3, 2.0, 60, seed=4)


class TestClosedForms:
    def test_round_metric_and_ricci_at_unit_point(self):
        # at z = (1, 0): metric = identity, Ricci = n (delta - e1 e1*)
        z = np.array([[1.0 + 0j, 0.0]])
        g = hopf_round_metric(z)
        assert np.allclose(g[0], np.eye(2))
        ric = hopf_ricci(z)
        assert np.allclose(ric[0], 2.0 * np.diag([0.0, 1.0]), atol=1e-14)

    def test_metric_at_t_zero_is_round(self, sample2):
        m0 = hopf_metric_at(sample2.points, 0.0)
        assert np.max(np.abs(m0 - hopf_round_metric(sample2.points))) <= 1e-15

    def test_limit_form_is_rank_one(self, sample2):
        lim = hopf_limit_form(sample2.points)
        det = np.linalg.det(lim)
        assert np.max(np.abs(det)) <= 1e-14
        # the limit of the family at t -> 1/n matches the rank-one form
        n = sample2.n
        close = hopf_metric_at(sample2.points, 1.0 / n - 1e-13)
        assert np.max(np.abs(close - lim)) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.2, 0.3])
    def test_determinant_formula(self, sample2, t):
        m = hopf_metric_at(sample2.points, t)
        det = np.linalg.det(m).real
        assert np.max(np.abs(det - hopf_det(sample2.points, t))) <= 1e-12

    @pytest.mark.parametrize("n,t", [(2, 0.2), (3, 0.25)])
    def test_scaled_eigenvalues(self, sample2, sample3, n, t):
        sample = sample2 if n == 2 else sample3
        r2 = np.sum(np.abs(sample.points) ** 2, axis=-1)
        m = hopf_metric_at(sample.points, t) * r2[:, None, None]
        eigs = np.sort(np.linalg.eigvalsh(m), axis=-1)
        expected = np.sort(np.array([1.0 - n * t] * (n - 1) + [1.0]))
        assert np.max(np.abs(eigs - expected)) <= 1e-12

    def test_trace_against_reference(self, sample2):
        # tr_{omega_H} omega(t) = n(1 - n t) + n t
        n, t = 2, 0.2
        g = hopf_metric_at(sample2.points, t)
        r2 = np.sum(np.abs(sample2.points) ** 2, axis=-1)
        tr = r2 * np.einsum("mkk->m", g).real
        assert np.max(np.abs(tr - (n * (1 - n * t) + n * t))) <= 1e-12

    def test_time_domain_enforced(self, sample2):
        with pytest.raises(ValueError):
            hopf_metric_at(sample2.points, 0.5)
        with pytest.raises(ValueError):
            hopf_metric_at(sample2.points, -0.1)
        with pytest.raises(ValueError):
            verify_hopf_flow(sample2, [0.1, 0.5])


def _dbar_metric(points, t):
    """d_lbar ghat_{i jbar} as the conjugate transpose of the d_k stack."""
    return np.conj(np.swapaxes(hopf_reference_stacks(points, t)[1], -1, -2))


class TestDerivativeStacks:
    def test_d_metric_matches_fd(self, sample2):
        t = 0.2
        pts = sample2.points[:25]
        fd = np.stack(
            [fd_dz(lambda q: hopf_metric_at(q, t), pts, k, h=5e-3) for k in range(2)],
            axis=1,
        )
        assert np.max(np.abs(fd - hopf_reference_stacks(pts, t)[1])) <= 1e-7

    def test_dbar_metric_matches_fd(self, sample2):
        t = 0.2
        pts = sample2.points[:25]
        fd = np.stack(
            [fd_dzbar(lambda q: hopf_metric_at(q, t), pts, l, h=5e-3) for l in range(2)],
            axis=1,
        )
        assert np.max(np.abs(fd - _dbar_metric(pts, t))) <= 1e-7

    def test_ddbar_metric_matches_fd(self, sample2):
        t = 0.2
        pts = sample2.points[:25]
        fd = np.stack(
            [
                np.stack(
                    [
                        fd_dz(lambda q: _dbar_metric(q, t)[:, l], pts, k, h=5e-3)
                        for l in range(2)
                    ],
                    axis=1,
                )
                for k in range(2)
            ],
            axis=1,
        )
        assert np.max(np.abs(fd - hopf_reference_stacks(pts, t)[2])) <= 1e-6


POTENTIALS = [
    LogRadius(0.7),
    ModulusProduct(0.3),
    ReBilinear(0.4),
    RadiusSquared(0.2),
    SumPotential([LogRadius(0.1), ReBilinear(0.05)]),
]


class TestPotentials:
    @pytest.mark.parametrize("pot", POTENTIALS, ids=lambda p: type(p).__name__)
    def test_hand_coded_derivatives_match_fd(self, sample2, pot):
        pts = sample2.points[:20]
        assert np.max(np.abs(fd_hessian(pot.value, pts, h=5e-3) - pot.d2(pts))) <= 1e-6
        fd3 = np.stack([fd_dz(pot.d2, pts, i, h=5e-3) for i in range(2)], axis=1)
        assert np.max(np.abs(fd3 - pot.d3(pts))) <= 1e-6
        fd4 = np.stack([fd_dzbar(pot.d3, pts, j, h=5e-3) for j in range(2)], axis=1)
        d4 = np.einsum("mijkl->mjikl", pot.d4(pts))
        assert np.max(np.abs(fd4 - d4)) <= 1e-6

    def test_zero_potential_trivial(self, sample2):
        z = ZeroPotential()
        assert np.max(np.abs(z.d4(sample2.points))) == 0.0


class TestFlowVerification:
    def test_n2_flow_residuals(self, sample2):
        rep = verify_hopf_flow(sample2, [0.0, 0.1, 0.2, 0.3])
        assert rep["closed_form_residual"] <= 1e-10
        assert rep["fd_oracle_residual"] <= 1e-6
        assert rep["det_identity_residual"] <= 1e-12

    def test_n3_flow_residuals(self, sample3):
        rep = verify_hopf_flow(sample3, [0.3])
        assert rep["closed_form_residual"] <= 1e-10
        assert rep["fd_oracle_residual"] <= 1e-6

    def test_t0_exact(self, sample2):
        rep = verify_hopf_flow(sample2, [0.0])
        assert rep["closed_form_residual"] <= 1e-15

    def test_deck_invariance(self, sample2):
        assert verify_deck_invariance(sample2, 0.2) <= 1e-12


class TestTraceChain:
    def test_explicit_solution(self, sample2):
        rep = verify_hopf_trace_chain(sample2, 0.2)
        assert rep.max_equality_residual() <= 1e-10
        assert rep.inequality_violation <= 1e-12

    def test_small_bilinear_potential(self, sample2):
        rep = verify_hopf_trace_chain(sample2, 0.2, ReBilinear(0.01))
        assert rep.max_equality_residual() <= 1e-9
        assert rep.inequality_violation <= 1e-10

    def test_mixed_potential_n3(self, sample3):
        pot = SumPotential([LogRadius(0.02), ModulusProduct(0.002)])
        rep = verify_hopf_trace_chain(sample3, 0.15, pot)
        assert rep.max_equality_residual() <= 1e-9
        assert rep.inequality_violation <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_inequality_sign_at_initial_time(self, n):
        # at t = 0 the factor (2/n - tr/n) = (2 - n)/n is nonpositive for
        # n >= 2 while tr_omega Ric >= 0, consistent with the trace of the
        # explicit solution decreasing from the start
        tr0 = float(n)
        assert (2.0 / n - tr0 / n) <= 0.0
        lhs_rate = -n * (n - 1.0)  # d/dt [n - n^2 t + n t]
        assert lhs_rate <= 0.0

    def test_indefinite_potential_rejected(self, sample2):
        with pytest.raises(NotPositiveDefinite):
            verify_hopf_trace_chain(sample2, 0.2, RadiusSquared(-5.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_nan_metric_rejected(self, sample2, sample3, n):
        class NanHessian(ZeroPotential):
            def d2(self, points):
                out = super().d2(points)
                out[0, 0, 0] = np.nan
                return out

        sample = sample2 if n == 2 else sample3
        with pytest.raises(NotPositiveDefinite):
            verify_hopf_trace_chain(sample, 0.2, NanHessian())


class TestQuadrature:
    def test_volume_closed_form(self):
        # integral of omega_H^2 over the annulus = 16 pi^2 log R
        v0 = integrate_hopf(2.0, "omega2")
        assert abs(v0 - 16 * np.pi ** 2 * np.log(2.0)) <= 1e-3 * v0

    def test_ricci_squared_vanishes(self):
        assert abs(integrate_hopf(2.0, "ric2")) <= 1e-10

    def test_volume_linear_in_t(self):
        data = hopf_surface_data(2.0)
        v0, pairing = data["vol0"], data["pairing"]
        assert v0 > 0
        # V(t)/V(0) = 1 - 2t for the explicit solution
        for t in (0.1, 0.25, 0.4):
            ratio = (v0 - 2 * t * pairing) / v0
            assert abs(ratio - (1 - 2 * t)) <= 1e-3

    def test_unknown_integrand(self):
        with pytest.raises(UnsupportedIntegrand):
            integrate_hopf(2.0, "nope")

    @pytest.mark.parametrize("modulus", [0.0, -2.0, np.nan, np.inf, 1.0])
    def test_modulus_outside_the_hopf_range_rejected(self, modulus):
        with pytest.raises(ValueError):
            integrate_hopf(modulus, "omega2")
        with pytest.raises(ValueError):
            hopf_surface_data(modulus)

    @pytest.mark.parametrize("modulus", [0.5, 1.05, 2.0, 3.7])
    def test_intersection_numbers_in_closed_form(self, modulus):
        # vol0 = 16 pi^2 |log R|, pairing = vol0 and c1^2 = 0 on both sides of 1
        data = hopf_surface_data(modulus)
        v0 = data["vol0"]
        assert abs(v0 - 16 * np.pi ** 2 * abs(np.log(modulus))) <= 1e-12 * v0
        assert abs(data["pairing"] - v0) <= 1e-12 * v0
        assert abs(data["c1sq"]) <= 1e-12 * v0

    def test_densities_depend_only_on_the_radius(self):
        # the U(2)-invariance the radial rule rests on
        rng = np.random.default_rng(5)
        z = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        z *= np.exp(rng.uniform(-2.0, 2.0, (200, 1))) / np.linalg.norm(z, axis=1)[:, None]
        r = np.linalg.norm(z, axis=1)
        ray = r[:, None] * np.array([1.0, 0.0])
        gH, ric = hopf_round_metric, hopf_ricci
        for a, b in ((gH, gH), (gH, ric), (ric, ric)):
            here = r ** 4 * herm_mixed_det(a(z), b(z))
            on_ray = r ** 4 * herm_mixed_det(a(ray), b(ray))
            assert np.max(np.abs(here - on_ray)) <= 1e-14


class TestTorusRecipes:
    def test_positivity_enforced(self, chart2):
        recipe = TorusMetricRecipe(
            np.eye(2), [Perturbation(0, 0, 5.0, (1, 0, 0, 0))]
        )
        with pytest.raises(NotPositiveDefinite):
            recipe.build(chart2)

    def test_kahler_flag_yields_vanishing_torsion(self, chart2):
        from crflab.tensors import _chern, _torsion

        recipe = TorusMetricRecipe(
            1.3 * np.eye(2),
            [
                Perturbation(0, 0, 0.1, (1, 0, 0, 0)),
                Perturbation(0, 0, 0.08, (0, 0, 2, 0), 0.4),
            ],
            kahler=True,
        )
        g = recipe.build(chart2)
        assert min_eigenvalue(g) > 0
        assert np.max(np.abs(_torsion(_chern(g)[2]))) <= 1e-10

    def test_peaked_profile_has_slow_fourier_tail(self):
        chart = TorusChart(1, 64, active_axes=(0,))
        wave = Perturbation(
            0, 0, 1.0, (1, 0), profile="peaked", sharpness=1.2
        ).waveform(chart)
        spec = np.abs(np.fft.fft(wave.ravel()))
        # geometric decay with ratio s - sqrt(s^2-1)
        rho = 1.2 - np.sqrt(1.2 ** 2 - 1)
        measured = spec[12] / spec[6]
        assert abs(measured - rho ** 6) <= 0.05 * rho ** 6
