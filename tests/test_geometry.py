import numpy as np
import pytest

from crflab.errors import ChartMismatch, NotPositiveDefinite
from crflab.geometry import (
    HermitianMatrixField,
    HopfSampleSet,
    ScalarField,
    TorusChart,
    eigenvalue_range,
    herm_det,
    herm_inv,
    herm_logdet,
    i_ddbar,
    min_eigenvalue,
    refine_field,
    spectral_derivative,
    spectral_energy_report,
)

from conftest import bandlimited_scalar


def fd8_derivative(values, axis, h):
    """Eighth-order periodic central difference, the derivative oracle."""
    w = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
    out = np.zeros_like(values)
    for k, c in zip(range(-4, 5), w):
        if c:
            out = out + c * np.roll(values, -k, axis=axis)
    return out / h


class TestChart:
    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            TorusChart(1, 48)
        with pytest.raises(ValueError):
            TorusChart(1, 4)

    def test_rejects_bad_periods(self):
        with pytest.raises(ValueError):
            TorusChart(1, 32, periods=(1.0, -2.0))

    def test_inactive_axes_store_one_node(self):
        c = TorusChart(2, 64, active_axes=(0, 2))
        assert c.shape == (64, 1, 64, 1)

    def test_chart_mismatch_rejected(self):
        a = TorusChart(1, 32)
        b = TorusChart(1, 64)
        with pytest.raises(ChartMismatch):
            a.require_same(b)


class TestSpectralDerivative:
    def test_constant_field_derivative_is_zero(self):
        c = TorusChart(1, 32)
        f = ScalarField(c, np.full(c.shape, 3.7))
        assert np.max(np.abs(spectral_derivative(f, 0).values)) == 0.0

    def test_single_mode_exact(self):
        L = 5.0
        c = TorusChart(1, 32, periods=L)
        x = c.axis_coordinates(0)
        f = ScalarField(c, np.sin(2 * np.pi * x / L) * np.ones(c.shape))
        df = spectral_derivative(f, 0)
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * x / L) * np.ones(c.shape)
        assert np.max(np.abs(df.values - exact)) <= 1e-12

    def test_matches_fd8_oracle_on_trig_polynomial(self):
        c = TorusChart(1, 256)
        f = bandlimited_scalar(c, seed=5, modes=3, amplitude=0.5)
        df = spectral_derivative(f, 0)
        h = c.periods[0] / c.resolution[0]
        oracle = fd8_derivative(f.values, 0, h)
        assert np.max(np.abs(df.values - oracle)) <= 1e-8

    def test_second_derivative_is_composition(self):
        c = TorusChart(1, 64)
        f = bandlimited_scalar(c, seed=2)
        twice = spectral_derivative(spectral_derivative(f, 0), 0)
        once = spectral_derivative(f, 0, order=2)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-12

    def test_inactive_axis_rejected(self):
        c = TorusChart(1, 32, active_axes=(0,))
        f = ScalarField.zeros(c)
        with pytest.raises(ValueError):
            spectral_derivative(f, 1)

    def test_derivatives_commute(self):
        c = TorusChart(1, 64, active_axes=(0, 1))
        x = c.axis_coordinates(0)
        y = c.axis_coordinates(1)
        f = ScalarField(c, np.cos(x + 0.3) * np.sin(2 * y) + 0.2 * np.cos(3 * y - x))
        xy = spectral_derivative(spectral_derivative(f, 0), 1).values
        yx = spectral_derivative(spectral_derivative(f, 1), 0).values
        assert np.max(np.abs(xy - yx)) <= 1e-12


class TestIDdbar:
    def test_constant_potential(self, chart2):
        h = i_ddbar(ScalarField(chart2, np.full(chart2.shape, 2.0)))
        assert np.max(np.abs(h.values)) == 0.0

    def test_single_mode_value_and_fd_oracle(self):
        L = 2 * np.pi
        c = TorusChart(2, 64, periods=L, active_axes=(0, 2))
        x1 = c.axis_coordinates(0)
        phi = ScalarField(c, np.cos(2 * np.pi * x1 / L) * np.ones(c.shape))
        h = i_ddbar(phi)
        expected = -(np.pi ** 2 / L ** 2) * np.cos(2 * np.pi * x1 / L) * np.ones(c.shape)
        assert np.max(np.abs(h.values[..., 0, 0] - expected)) <= 1e-12
        assert np.max(np.abs(h.values[..., 0, 1])) <= 1e-14
        assert np.max(np.abs(h.values[..., 1, 1])) <= 1e-14
        # Wirtinger second derivative = quarter of d^2/dx^2 here
        hh = c.periods[0] / c.resolution[0]
        oracle = 0.25 * fd8_derivative(
            fd8_derivative(phi.values, 0, hh), 0, hh
        )
        assert np.max(np.abs(h.values[..., 0, 0] - oracle)) <= 1e-8

    def test_linearity(self, chart2):
        a = bandlimited_scalar(chart2, 7)
        b = bandlimited_scalar(chart2, 8)
        lhs = i_ddbar(ScalarField(chart2, a.values + b.values)).values
        rhs = i_ddbar(a).values + i_ddbar(b).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_output_mean_is_zero(self, chart2):
        h = i_ddbar(bandlimited_scalar(chart2, 3))
        assert np.max(np.abs(chart2.mean(h.values))) <= 1e-16

    def test_hermitian(self, chart2):
        h = i_ddbar(bandlimited_scalar(chart2, 4)).values
        assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) <= 1e-14


class TestMinEigenvalue:
    def test_identity(self, chart2):
        assert min_eigenvalue(HermitianMatrixField.identity(chart2)) == 1.0

    def test_constant_diagonal(self, chart2):
        g = HermitianMatrixField.constant(chart2, np.diag([2.0, 0.5]))
        assert min_eigenvalue(g) == 0.5

    def test_against_characteristic_polynomial_oracle(self, chart2):
        rng = np.random.default_rng(9)
        a = 2.0 + rng.random(chart2.shape)
        d = 1.5 + rng.random(chart2.shape)
        b = 0.3 * (rng.random(chart2.shape) + 1j * rng.random(chart2.shape))
        vals = np.zeros(chart2.shape + (2, 2), dtype=complex)
        vals[..., 0, 0] = a
        vals[..., 1, 1] = d
        vals[..., 0, 1] = b
        vals[..., 1, 0] = np.conj(b)
        g = HermitianMatrixField(chart2, vals)
        # roots of lambda^2 - tr lambda + det, per node
        tr = a + d
        det = a * d - np.abs(b) ** 2
        lam = 0.5 * (tr - np.sqrt(tr ** 2 - 4 * det))
        assert abs(min_eigenvalue(g) - lam.min()) <= 1e-10

    def test_three_dimensional_path(self):
        # n >= 3 falls back to the iterative eigensolver
        c = TorusChart(3, 8, active_axes=(0,))
        g = HermitianMatrixField.constant(c, np.diag([3.0, 1.0, 0.25]))
        assert abs(min_eigenvalue(g) - 0.25) <= 1e-12

    def test_unitary_conjugation_invariance(self, chart2):
        rng = np.random.default_rng(11)
        g = HermitianMatrixField.constant(chart2, np.diag([2.0, 0.7]))
        z = rng.normal(size=chart2.shape + (2, 2)) + 1j * rng.normal(
            size=chart2.shape + (2, 2)
        )
        q, _ = np.linalg.qr(z)
        conj = np.einsum("...ab,...bc,...dc->...ad", q, g.values, np.conj(q))
        gu = HermitianMatrixField(chart2, conj)
        assert abs(min_eigenvalue(gu) - min_eigenvalue(g)) <= 1e-10


class TestFieldInvariants:
    def test_non_hermitian_rejected(self, chart2):
        vals = np.zeros(chart2.shape + (2, 2), dtype=complex)
        vals[..., 0, 1] = 1.0
        with pytest.raises(ValueError):
            HermitianMatrixField(chart2, vals)

    def test_volume_field_positive(self, chart2):
        from crflab.geometry import VolumeField

        with pytest.raises(ValueError):
            VolumeField(chart2, np.zeros(chart2.shape))

    def test_scalar_field_finite(self, chart2):
        with pytest.raises(ValueError):
            ScalarField(chart2, np.full(chart2.shape, np.nan))

    def test_band_limit_report(self, chart2):
        f = bandlimited_scalar(chart2, 6, modes=3)
        rep = spectral_energy_report(f)
        assert rep["max_fraction"] < 1e-8

    def test_herm_inv_closed_form(self, chart2, nonkahler_metric):
        gi = herm_inv(nonkahler_metric.values)
        prod = np.einsum("...ab,...bc->...ac", nonkahler_metric.values, gi)
        eye = np.broadcast_to(np.eye(2), prod.shape)
        assert np.max(np.abs(prod - eye)) <= 1e-13

    def test_eigenvalue_range_brackets_det(self, nonkahler_metric):
        lo, hi = eigenvalue_range(nonkahler_metric)
        det = herm_det(nonkahler_metric.values)
        assert lo > 0
        assert np.all(det <= hi * hi + 1e-12)
        assert np.all(det >= lo * lo - 1e-12)


def _field_with_node(matrix, nodes=5, bad=2):
    """Identity at every node but ``bad``, which holds ``matrix``."""
    n = len(matrix)
    vals = np.broadcast_to(np.eye(n, dtype=complex), (nodes, n, n)).copy()
    vals[bad] = matrix
    return vals


class TestHermLogdet:
    @pytest.mark.parametrize(
        "matrix",
        [[[-1.0]], np.diag([-1.0, -1.0]), np.diag([-1.0, -1.0, 5.0])],
        ids=["n1", "n2", "n3"],
    )
    def test_rejects_non_positive_node(self, matrix):
        # diag(-1, -1) and diag(-1, -1, 5) have det > 0
        with pytest.raises(NotPositiveDefinite):
            herm_logdet(_field_with_node(np.asarray(matrix)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rejects_nan_node(self, n):
        matrix = np.eye(n, dtype=complex)
        matrix[0, 0] = np.nan
        with pytest.raises(NotPositiveDefinite):
            herm_logdet(_field_with_node(matrix))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_log_det_of_positive_field(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        vals = np.einsum("...ab,...cb->...ac", a, np.conj(a)) + np.eye(n)
        expected = np.log(np.linalg.det(vals).real)
        assert np.max(np.abs(herm_logdet(vals) - expected)) <= 1e-13


class TestLaplacianInverse:
    @pytest.mark.parametrize(
        "chart, A",
        [
            (TorusChart(1, 32), np.array([[1.3]])),
            (TorusChart(2, 32, active_axes=(0, 2)), np.array([[1.2, 0.1], [0.1, 0.8]])),
            (TorusChart(2, 16), np.array([[1.2, 0.3 + 0.2j], [0.3 - 0.2j, 0.9]])),
        ],
        ids=["n1", "n2_axes_0_2", "n2_full"],
    )
    def test_undoes_the_operator(self, chart, A):
        u = bandlimited_scalar(chart, 4, modes=3).values
        u = u - u.mean()
        f = np.einsum("ji,...ij->...", A, chart.complex_hessian(u)).real
        v = chart.laplacian_inverse(A)(f)
        assert np.max(np.abs(v - u)) <= 1e-12
        assert abs(v.mean()) <= 1e-12


class TestRefine:
    def test_refine_reproduces_trig_interpolant(self, chart2):
        f = bandlimited_scalar(chart2, 12, modes=3)
        fine = refine_field(f)
        c = fine.chart
        assert c.shape == (128, 1, 128, 1)
        # values at the even nodes coincide with the coarse samples
        assert np.max(np.abs(fine.values[::2, :, ::2, :] - f.values)) <= 1e-12


class TestHopfSampleSet:
    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HopfSampleSet(np.array([2.0, 2.0 + 1e-6]), np.array([[1.0, 0.5]]))

    def test_modulus_near_one_rejected(self):
        with pytest.raises(ValueError):
            HopfSampleSet(np.array([1.001, 1.001]), np.array([[1.0, 0.0]]))

    def test_points_outside_annulus_rejected(self):
        with pytest.raises(ValueError):
            HopfSampleSet(np.array([2.0, 2.0]), np.array([[0.5, 0.0]]))

    def test_random_sample_in_annulus(self):
        s = HopfSampleSet.random(3, 2.0, 200, seed=1)
        r = np.linalg.norm(s.points, axis=1)
        assert np.all(r >= 1.0) and np.all(r < 2.0)
        assert np.max(np.abs(np.abs(s.alpha) - 2.0)) <= 1e-14
