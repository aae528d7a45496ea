import numpy as np
import pytest

from crflab.errors import ChartMismatch, NotPositiveDefinite
from crflab.geometry import (
    HermitianMatrixField,
    HopfSampleSet,
    ScalarField,
    TorusChart,
    VolumeField,
    coarsen_chart,
    coarsen_field,
    components_det,
    components_eig_bounds,
    components_inv,
    components_trace,
    herm_det,
    herm_components,
    herm_eig_bounds,
    herm_from_components,
    herm_inv,
    herm_logdet,
    herm_mixed_det,
    i_ddbar,
    min_eigenvalue,
    refine_chart,
    refine_field,
)

from conftest import (
    bandlimited_scalar,
    eigenvalue_range,
    refine_values_complex,
    spectral_energy_report,
)


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

    @pytest.mark.parametrize("n,nodes,axes", [(1, 16, (1,)), (2, 16, (0, 2)), (3, 8, None)])
    def test_tables_are_built_on_first_read_and_kept(self, n, nodes, axes):
        # a fresh chart holds no table; each is then one read-only object
        chart = TorusChart(n, nodes, active_axes=axes)
        tables = ("_hessian", "flat_laplacian", "invisible")
        assert not set(tables) & set(vars(chart))
        for name in tables:
            first = getattr(chart, name)
            assert getattr(chart, name) is first
            assert name in vars(chart)
        assert not chart.flat_laplacian.flags.writeable
        assert not chart.invisible.flags.writeable
        assert not chart._hessian[2].flags.writeable
        assert chart.hessian_live is chart._hessian[1]
        assert np.array_equal(chart.invisible, chart.flat_laplacian == 0.0)


def axis_derivative(chart, values, axis, order=1):
    """(d/dx_axis)^order of grid-leading ``values`` (tensor indices allowed)
    through the chart's one Fourier derivative kernel, `_derivative`, with
    the single multiplier (sqrt(-1) k)^order."""
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=float if np.isrealobj(values) else complex)
    terms = [(axis, (1j * chart._k[axis].ravel()) ** order, "real")]
    chart._derivative(values, 0, terms, out)
    return out


class TestSpectralDerivative:
    def test_constant_field_derivative_is_zero(self):
        c = TorusChart(1, 32)
        assert np.max(np.abs(axis_derivative(c, np.full(c.shape, 3.7), 0))) == 0.0

    def test_single_mode_exact(self):
        L = 5.0
        c = TorusChart(1, 32, periods=L)
        x = c.axis_coordinates(0)
        df = axis_derivative(c, np.sin(2 * np.pi * x / L) * np.ones(c.shape), 0)
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * x / L) * np.ones(c.shape)
        assert np.max(np.abs(df - exact)) <= 1e-12

    def test_matches_fd8_oracle_on_trig_polynomial(self):
        c = TorusChart(1, 256)
        f = bandlimited_scalar(c, seed=5, modes=3, amplitude=0.5)
        df = axis_derivative(c, f.values, 0)
        h = c.periods[0] / c.resolution[0]
        oracle = fd8_derivative(f.values, 0, h)
        assert np.max(np.abs(df - oracle)) <= 1e-8

    def test_second_derivative_is_composition(self):
        c = TorusChart(1, 64)
        f = bandlimited_scalar(c, seed=2).values
        twice = axis_derivative(c, axis_derivative(c, f, 0), 0)
        once = axis_derivative(c, f, 0, order=2)
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_derivatives_commute(self):
        c = TorusChart(1, 64, active_axes=(0, 1))
        x = c.axis_coordinates(0)
        y = c.axis_coordinates(1)
        f = np.cos(x + 0.3) * np.sin(2 * y) + 0.2 * np.cos(3 * y - x)
        xy = axis_derivative(c, axis_derivative(c, f, 0), 1)
        yx = axis_derivative(c, axis_derivative(c, f, 1), 0)
        assert np.max(np.abs(xy - yx)) <= 1e-12


def reference_axis_derivative(chart, values, axis, pos, order=1):
    """(d/dx_axis)^order of ``values`` (grid from array axis ``pos``) written
    out with np.fft: the exact derivative of the trigonometric interpolant,
    Nyquist zeroed, real for a real field."""
    m = chart.shape[axis]
    k = 2 * np.pi * np.fft.fftfreq(m, d=chart.periods[axis] / m)
    k[m // 2] = 0.0
    k = k.reshape((-1,) + (1,) * (values.ndim - pos - axis - 1))
    d = np.fft.ifft((1j * k) ** order * np.fft.fft(values, axis=pos + axis), axis=pos + axis)
    return d.real if np.isrealobj(values) else d


def reference_grad(chart, values, conj):
    """d/dz_i = (d/dx_i - sqrt(-1) d/dy_i) / 2 (+ for d/dzbar_i) of a
    tensor-first field, each as a new leading index; a constant axis
    contributes 0."""
    pos = values.ndim - chart.naxes
    out = np.empty((chart.n,) + values.shape, dtype=complex)
    for i in range(chart.n):
        dx, dy = (
            reference_axis_derivative(chart, values, a, pos) if chart.shape[a] > 1 else 0.0
            for a in (2 * i, 2 * i + 1)
        )
        out[i] = 0.5 * (dx + 1j * dy) if conj else 0.5 * (dx - 1j * dy)
    return out


KERNEL_CHARTS = [
    TorusChart(1, 16, periods=3.0, active_axes=(0,)),
    TorusChart(1, 16, periods=(3.0, 5.0)),
    TorusChart(2, 8, periods=(2 * np.pi, 3.0, 5.0, 7.0), active_axes=(0, 2)),
    TorusChart(2, 8, periods=(2 * np.pi, 3.0, 5.0, 7.0)),
    TorusChart(2, 8, periods=(2 * np.pi, 3.0, 5.0, 7.0), active_axes=(0, 1, 2)),
    TorusChart(2, 16, periods=(2 * np.pi, 3.0, 5.0, 7.0), active_axes=(1,)),
]
KERNEL_IDS = ["n1_axis_0", "n1_all", "n2_axes_0_2", "n2_all", "n2_axes_0_1_2", "n2_axis_1"]


class TestDerivativeKernel:
    """`grad` and a single real-axis derivative run on one fused kernel;
    both must equal, exactly, the derivative written out with np.fft."""

    @staticmethod
    def field(chart, rank, dtype, seed=0):
        rng = np.random.default_rng(seed)
        shape = (chart.n,) * rank + chart.shape
        values = rng.standard_normal(shape)
        return values + 1j * rng.standard_normal(shape) if dtype is complex else values

    @pytest.mark.parametrize("chart", KERNEL_CHARTS, ids=KERNEL_IDS)
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("conj", [False, True])
    def test_grad_equals_written_out_wirtinger(self, chart, rank, dtype, conj):
        values = self.field(chart, rank, dtype)
        got = chart.grad(values, conj=conj)
        assert got.shape == (chart.n,) + values.shape and got.dtype == complex
        assert np.array_equal(got, reference_grad(chart, values, conj))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_constant_direction_is_exactly_zero(self, dtype):
        chart = KERNEL_CHARTS[-1]  # z_1 varies along y_1 only, z_2 is constant
        got = chart.grad(self.field(chart, 2, dtype), conj=True)
        assert not np.any(got[1])
        assert np.any(got[0])

    @pytest.mark.parametrize("chart", KERNEL_CHARTS[3:5], ids=KERNEL_IDS[3:5])
    def test_d_and_dbar_differ_where_y_is_active(self, chart):
        values = self.field(chart, 1, complex)
        d, dbar = chart.grad(values), chart.grad(values, conj=True)
        assert np.max(np.abs(d[0] - dbar[0])) > 0.1 * np.max(np.abs(d[0]))

    @pytest.mark.parametrize("chart", KERNEL_CHARTS, ids=KERNEL_IDS)
    @pytest.mark.parametrize("order", [1, 2])
    def test_spectral_derivative_equals_written_out(self, chart, order):
        scalar = self.field(chart, 0, float, seed=1)
        herm = self.field(chart, 2, complex, seed=2)
        herm = np.moveaxis(herm + np.conj(np.swapaxes(herm, 0, 1)), (0, 1), (-2, -1))
        for axis in chart.active_axes:
            for values in (scalar, herm):
                got = axis_derivative(chart, values, axis, order)
                ref = reference_axis_derivative(chart, values, axis, 0, order)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)


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


def full_complex_hessian(chart, values):
    """d_i d_jbar through full complex transforms, the reference for the
    half-spectrum `TorusChart.complex_hessian`."""
    axes = chart.active_axes
    spec = np.fft.fftn(values, axes=axes)
    k = []
    for a in range(chart.naxes):
        m = chart.shape[a]
        ka = np.zeros(1)
        if m > 1:
            ka = 2.0 * np.pi * np.fft.fftfreq(m, d=chart.periods[a] / m)
            ka[m // 2] = 0.0
        k.append(ka.reshape([m if b == a else 1 for b in range(chart.naxes)]))
    mu = [0.5 * (1j * k[2 * i] + k[2 * i + 1]) for i in range(chart.n)]
    out = np.empty(chart.shape + (chart.n, chart.n), dtype=complex)
    for i in range(chart.n):
        for j in range(chart.n):
            out[..., i, j] = np.fft.ifftn(-mu[i] * np.conj(mu[j]) * spec, axes=axes)
    return out


HESSIAN_CHARTS = [
    TorusChart(1, 32),
    TorusChart(1, 16, periods=(2.0, 5.0), active_axes=(1,)),
    TorusChart(2, 16, periods=(6.0, 2 * np.pi, 3.0, 4.5)),
    TorusChart(2, 32, active_axes=(0, 2)),
    TorusChart(2, 16, active_axes=(1, 2, 3)),
    TorusChart(3, 8),
    TorusChart(3, 16, active_axes=(0, 3, 5)),
]
HESSIAN_IDS = ["n1_all", "n1_axis_1", "n2_all", "n2_axes_0_2", "n2_axes_1_2_3",
               "n3_all", "n3_axes_0_3_5"]


# charts on which TorusChart.rfft / irfft, one numpy pass per active axis,
# are checked bitwise against np.fft.rfftn / irfftn
TRANSFORM_CHARTS = [
    TorusChart(1, 32, active_axes=(0,)),
    TorusChart(2, 64, active_axes=(0, 2)),
    TorusChart(1, 16),
    TorusChart(3, 16, active_axes=(0, 2, 4)),
    TorusChart(2, 8),
    TorusChart(2, (8, 16, 8, 8), active_axes=(0, 1, 2)),
    TorusChart(2, (8, 8, 32, 8), active_axes=(2,)),
    TorusChart(1, (8, 32), active_axes=(1,)),
]
TRANSFORM_IDS = ["n1_32_axis_0", "n2_64_axes_0_2", "n1_16_all", "n3_16_axes_0_2_4",
                 "n2_8_all", "n2_axes_0_1_2", "n2_axis_2", "n1_axis_1"]


class TestRealTransforms:
    @pytest.mark.parametrize("chart", TRANSFORM_CHARTS, ids=TRANSFORM_IDS)
    def test_rfft_is_bitwise_rfftn(self, chart):
        u = np.random.default_rng(5).standard_normal(chart.shape)
        got = chart.rfft(u)
        ref = np.fft.rfftn(u, axes=chart.active_axes)
        assert got.shape == ref.shape == chart.half_shape
        assert np.array_equal(got.view(float), ref.view(float))

    @pytest.mark.parametrize("chart", TRANSFORM_CHARTS, ids=TRANSFORM_IDS)
    def test_irfft_is_bitwise_irfftn_and_leaves_its_argument(self, chart):
        rng = np.random.default_rng(6)
        spec = rng.standard_normal(chart.half_shape) + 1j * rng.standard_normal(chart.half_shape)
        before = spec.copy()
        got = chart.irfft(spec)
        sizes = [chart.shape[a] for a in chart.active_axes]
        ref = np.fft.irfftn(before, s=sizes, axes=chart.active_axes)
        assert got.shape == chart.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(spec.view(float), before.view(float))


class TestHalfSpectrumHessian:
    @pytest.mark.parametrize("chart", HESSIAN_CHARTS, ids=HESSIAN_IDS)
    def test_matches_full_complex_reference(self, chart):
        # white noise fills the whole spectrum, Nyquist planes included
        u = np.random.default_rng(3).standard_normal(chart.shape)
        ref = full_complex_hessian(chart, u)
        got = chart.complex_hessian(u)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))
        assert chart.rfft(u).shape == chart.half_shape

    @pytest.mark.parametrize("chart", HESSIAN_CHARTS, ids=HESSIAN_IDS)
    def test_plus_hessian_adds_without_writing_into_A(self, chart):
        A = _positive_field(chart, 6).values
        before = A.copy()
        u = np.random.default_rng(7).standard_normal(chart.shape)
        got = chart.plus_hessian(herm_components(A), chart.rfft(u))
        assert np.array_equal(A, before)
        expected = herm_components(A + chart.complex_hessian(u))
        assert len(got) == chart.n ** 2
        assert all(np.array_equal(p, q) for p, q in zip(got, expected))

    @pytest.mark.parametrize("chart", HESSIAN_CHARTS, ids=HESSIAN_IDS)
    def test_trace_weights_contract_the_components(self, chart):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(chart.shape)
        B = rng.standard_normal(chart.shape + (chart.n, chart.n)) * (1 + 1j)
        A = B + np.conj(np.swapaxes(B, -1, -2))
        parts = chart.hessian_components(chart.rfft(u))
        weights = chart.components_trace_weights(herm_components(A))
        traced = sum(w * h for w, h in zip(weights, parts))
        ref = np.einsum("...ji,...ij->...", A, full_complex_hessian(chart, u)).real
        assert np.max(np.abs(traced - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("chart, live", [
        # mu_1 conj(mu_2) = k_0 k_2 / 4 is real: Im h_12 is dead
        (TorusChart(2, 16, active_axes=(0, 2)), (0, 1, 3)),
        (TorusChart(2, 16), (0, 1, 2, 3)),
        # mu_1 = sqrt(-1) k_0 / 2 and mu_2 = mu_3 = 0: only h_11 lives
        (TorusChart(3, 8, active_axes=(0,)), (0,)),
        # mu_1 = sqrt(-1) k_0 / 2, mu_2 = k_3 / 2, mu_3 = k_5 / 2: mu_1 conj(mu_j)
        # is imaginary and mu_2 conj(mu_3) real, so Re h_12, Re h_13, Im h_23 die
        (TorusChart(3, 8, active_axes=(0, 3, 5)), (0, 2, 4, 5, 6, 8)),
    ], ids=["n2_axes_0_2", "n2_all", "n3_axis_0", "n3_axes_0_3_5"])
    def test_live_components(self, chart, live):
        assert chart.hessian_live == live
        spec = chart.rfft(np.random.default_rng(2).standard_normal(chart.shape))
        assert len(chart.hessian_components(spec)) == len(live)
        assert len(chart.components_trace_weights(herm_components(np.eye(chart.n)))) == len(live)

    @pytest.mark.parametrize("n, axes", [
        (1, (0,)), (1, None),
        (2, (0,)), (2, (0, 2)), (2, None),
        (3, (0,)), (3, (0, 2)), (3, (0, 2, 4)), (3, None),
    ])
    def test_batched_components_are_bitwise_one_irfft_each(self, n, axes):
        # one inverse transform of the stacked multipliers times the spectrum
        # equals one irfft per live component; the stack is read-only
        chart = TorusChart(n, 16 if n < 3 else 8, active_axes=axes)
        spec = chart.rfft(np.random.default_rng(4).standard_normal(chart.shape))
        got = chart.hessian_components(spec)
        mult, _, stack = chart._hessian
        assert got.shape == (len(chart.hessian_live),) + chart.shape
        for h, k in zip(got, chart.hessian_live):
            assert np.array_equal(h, chart.irfft(mult[k] * spec))
        assert not stack.flags.writeable

    @pytest.mark.parametrize("chart", HESSIAN_CHARTS, ids=HESSIAN_IDS)
    def test_dead_components_are_exact_zeros(self, chart):
        # a component is dead exactly where the dense reference vanishes
        # for white noise, and complex_hessian writes exact zeros there
        u = np.random.default_rng(9).standard_normal(chart.shape)
        ref = herm_components(full_complex_hessian(chart, u))
        got = chart.complex_hessian(u)
        scale = max(np.max(np.abs(r)) for r in ref)
        for k, (r, g) in enumerate(zip(ref, herm_components(got))):
            live = k in chart.hessian_live
            assert (np.max(np.abs(r)) > 1e-12 * scale) == live
            assert live or not g.any()
        assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))

    def test_components_round_trip(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        A = B + np.conj(np.swapaxes(B, -1, -2))
        parts = herm_components(A)
        assert [p.shape for p in parts] == [(5,)] * 9
        assert np.array_equal(herm_from_components(parts, (5,)), A)
        parts[5] = None  # A_22 = 0
        assert not herm_from_components(parts, (5,))[:, 1, 1].any()

    def test_components_round_trip_from_2x2_views(self):
        # a 2 x 2 complex field's component views have a 64-byte stride,
        # which numpy 2.4's np.negative misreads into a strided output
        rng = np.random.default_rng(6)
        A = _random_hermitian(rng, 2, nodes=64)
        assert np.array_equal(herm_from_components(herm_components(A), (64,)), A)

    @pytest.mark.parametrize("chart", HESSIAN_CHARTS, ids=HESSIAN_IDS)
    def test_rfft_roundtrip(self, chart):
        u = np.random.default_rng(7).standard_normal(chart.shape)
        assert np.max(np.abs(chart.irfft(chart.rfft(u)) - u)) <= 1e-14

    def test_canonical_spec_keeps_every_visible_mode(self):
        # a mode with Nyquist along one axis and wavenumber 1 along another
        # has a nonzero d_j d_jbar entry, so it must be kept; only the mean
        # and the modes every Wirtinger operator annihilates are dropped
        chart = TorusChart(2, 16, active_axes=(0, 2))
        x, y = chart.axis_coordinates(0), chart.axis_coordinates(2)
        visible = np.cos(8 * x) * np.cos(y) + 0.5 * np.sin(x + y)
        invisible = np.cos(8 * x) * np.cos(8 * y) + np.cos(8 * x) + 0.5
        phi = visible + invisible
        spec = chart.canonical_spec(phi)
        assert np.max(np.abs(chart.irfft(spec) - visible)) <= 1e-14
        assert np.max(np.abs(chart.complex_hessian(invisible))) <= 1e-13
        moved = chart.complex_hessian(chart.irfft(spec)) - chart.complex_hessian(phi)
        assert np.max(np.abs(moved)) <= 1e-14
        invisible_modes = chart.laplacian_inverse(herm_components(np.eye(2))) == 0.0
        assert not spec[invisible_modes].any()
        assert np.array_equal(spec[~invisible_modes], chart.rfft(phi)[~invisible_modes])

    def test_chart_needs_an_active_axis(self):
        with pytest.raises(ValueError):
            TorusChart(1, 16, active_axes=())


class TestMinEigenvalue:
    def test_identity(self, chart2):
        assert min_eigenvalue(HermitianMatrixField(chart2, np.eye(2))) == 1.0

    def test_constant_diagonal(self, chart2):
        g = HermitianMatrixField(chart2, np.diag([2.0, 0.5]))
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
        g = HermitianMatrixField(c, np.diag([3.0, 1.0, 0.25]))
        assert abs(min_eigenvalue(g) - 0.25) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nan_propagates(self, n):
        # eigvalsh alone returns finite eigenvalues for a NaN node
        vals = np.broadcast_to(2.0 * np.eye(n), (4, n, n)).astype(complex).copy()
        vals[1, 0, 0] = np.nan
        lo, hi = herm_eig_bounds(vals)
        assert np.isnan(lo) and np.isnan(hi)

    def test_unitary_conjugation_invariance(self, chart2):
        rng = np.random.default_rng(11)
        g = HermitianMatrixField(chart2, np.diag([2.0, 0.7]))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_volume_field_finite(self, chart2, bad):
        # min() of a grid with a NaN is NaN, which a "min <= 0" test lets through
        values = np.ones(chart2.shape)
        values.flat[5] = bad
        with pytest.raises(ValueError, match="finite"):
            VolumeField(chart2, values)
        with pytest.raises(ValueError, match="finite"):
            VolumeField(chart2, np.full(chart2.shape, bad))

    def test_scalar_field_finite(self, chart2):
        with pytest.raises(ValueError):
            ScalarField(chart2, np.full(chart2.shape, np.nan))

    def test_scalar_and_volume_fields_are_read_only(self, chart2):
        from crflab.geometry import VolumeField

        source = np.ones(chart2.shape)
        for field in (ScalarField(chart2, source), VolumeField(chart2, source)):
            with pytest.raises(ValueError):
                field.values[0] = 2.0
            assert source.flags.writeable  # the field holds its own copy

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


def _hermitian_on(chart, seed):
    # an exactly Hermitian matrix array on ``chart``'s grid
    rng = np.random.default_rng(seed)
    a = _random_hermitian(rng, chart.n, nodes=chart.grid_count)
    return a.reshape(chart.shape + (chart.n, chart.n))


class TestFieldForms:
    """A Hermitian field keeps the form it was built from (the matrix or its
    real components) and builds the other once, read-only."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constructor_and_components_agree_bitwise(self, n):
        chart = TorusChart(n, 8, active_axes=(0, 2 * n - 1))
        A = _hermitian_on(chart, n)
        made = HermitianMatrixField(chart, A)
        built = HermitianMatrixField.from_components(chart, herm_components(A))
        assert np.array_equal(made.values, A) and np.array_equal(built.values, A)
        assert len(made.parts) == len(built.parts) == n * n
        assert all(np.array_equal(p, q) for p, q in zip(made.parts, built.parts))

    def test_parts_are_contiguous_read_only_and_kept(self, nonkahler_metric):
        chart = nonkahler_metric.chart
        source = [p.copy() for p in herm_components(nonkahler_metric.values)]
        built = HermitianMatrixField.from_components(chart, source)
        for field in (nonkahler_metric, built):
            parts = field.parts
            assert field.parts is parts
            assert all(p.flags.c_contiguous and not p.flags.writeable for p in parts)
            assert field.values is field.values and not field.values.flags.writeable
            with pytest.raises(ValueError):
                parts[0][...] = 0.0
        # the given components are copied; another field's are shared
        source[0][...] = 0.0
        assert built.parts[0].min() > 0.0
        again = HermitianMatrixField.from_components(chart, built.parts)
        assert all(p is q for p, q in zip(again.parts, built.parts))

    def test_components_field_assembles_at_most_once(self, monkeypatch):
        from crflab import geometry

        chart = TorusChart(2, 8)
        field = HermitianMatrixField.from_components(
            chart, herm_components(_hermitian_on(chart, 5))
        )
        calls = []
        assemble = geometry.herm_from_components
        monkeypatch.setattr(geometry, "herm_from_components",
                            lambda *args: calls.append(1) or assemble(*args))
        field.parts
        assert calls == []
        for _ in range(3):
            field.values
        assert len(calls) == 1


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


def _random_hermitian(rng, n, nodes=6):
    a = rng.normal(size=(nodes, n, n)) + 1j * rng.normal(size=(nodes, n, n))
    return a + np.conj(np.swapaxes(a, -1, -2))


def _positive_field(chart, seed):
    """A positive definite Hermitian field with white-noise entries."""
    rng = np.random.default_rng(seed)
    n, shape = chart.n, chart.shape + (chart.n, chart.n)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return HermitianMatrixField(
        chart, np.einsum("...ab,...cb->...ac", a, np.conj(a)) + np.eye(n)
    )


def _matrix_trace_weights(chart, A):
    """The weights of sum_ij A_ji d_i d_jbar, aligned with `hessian_live`, read
    off the entries of the Hermitian matrix (field) A: A_ii, 2 Re A_ji and
    -2 Im A_ji (A_ji h_ij + A_ij h_ji = 2 Re(A_ji h_ij)). The reference the
    component weights repeat."""
    entries = []
    for i in range(chart.n):
        entries.append((i, i, False))
        for j in range(i + 1, chart.n):
            entries += [(i, j, False), (i, j, True)]
    w = []
    for i, j, imag in (entries[k] for k in chart.hessian_live):
        if i == j:
            w.append(A[..., i, i].real)
        else:
            w.append(-2.0 * A[..., j, i].imag if imag else 2.0 * A[..., j, i].real)
    return w


COMPONENT_CHARTS = [
    TorusChart(1, 32, active_axes=(0,)),
    TorusChart(2, 16, active_axes=(0, 2)),
    TorusChart(2, 8),
]
COMPONENT_IDS = ["n1", "n2_axes_0_2", "n2_all"]


class TestComponentKernels:
    @pytest.mark.parametrize("chart", COMPONENT_CHARTS, ids=COMPONENT_IDS)
    def test_inverse_and_weights_repeat_the_matrix_path(self, chart):
        G = _positive_field(chart, 1).values
        inv = components_inv(herm_components(G))
        assert all(np.array_equal(p, q) for p, q in zip(inv, herm_components(herm_inv(G))))
        weights = chart.components_trace_weights(inv)
        expected = _matrix_trace_weights(chart, herm_inv(G))
        assert len(weights) == len(expected) == len(chart.hessian_live)
        assert all(np.array_equal(w, e) for w, e in zip(weights, expected))

    @pytest.mark.parametrize("chart", COMPONENT_CHARTS, ids=COMPONENT_IDS)
    def test_trace_repeats_the_einsum(self, chart):
        A = herm_inv(_positive_field(chart, 2).values)
        B = _positive_field(chart, 3).values
        got = components_trace(herm_components(A), herm_components(B))
        assert np.array_equal(got, np.einsum("...ji,...ij->...", A, B).real)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_det_is_a_new_array(self, n):
        a = _random_hermitian(np.random.default_rng(9), n) + 8.0 * np.eye(n)
        det = components_det(herm_components(a))
        assert not np.shares_memory(det, a)
        ref = np.linalg.det(a).real
        assert np.max(np.abs(det - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_n3_inverse_and_trace(self):
        rng = np.random.default_rng(4)
        a = _random_hermitian(rng, 3) + 8.0 * np.eye(3)
        b = _random_hermitian(rng, 3)
        inv = herm_from_components(components_inv(herm_components(a)), (6,))
        assert np.max(np.abs(inv - np.linalg.inv(a))) <= 1e-15
        got = components_trace(herm_components(a), herm_components(b))
        ref = np.einsum("...ji,...ij->...", a, b).real
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_eig_bounds_repeat_the_matrix_closed_form_bitwise(self, n, nan):
        a = _random_hermitian(np.random.default_rng(30 + n), n, nodes=64) + 3.0 * np.eye(n)
        if nan:
            # in the last component: Im a_01 for n = 2, a_00 for n = 1
            (a.imag if n == 2 else a.real)[17, 0, -1] = np.nan
        expected = _matrix_eig_bounds(a)
        for got in (components_eig_bounds(herm_components(a)), herm_eig_bounds(a)):
            assert np.array_equal(got, expected, equal_nan=True)
        assert np.isnan(expected[0]) == nan

    def test_n3_eig_bounds(self):
        a = _random_hermitian(np.random.default_rng(5), 3, nodes=64)
        w = np.linalg.eigvalsh(a)
        lo, hi = components_eig_bounds(herm_components(a))
        assert abs(lo - w[:, 0].min()) <= 1e-12 and abs(hi - w[:, -1].max()) <= 1e-12


def _matrix_eig_bounds(values):
    # the closed form of herm_eig_bounds on the matrix, for n <= 2, as it
    # read before the component function held it
    n = values.shape[-1]
    if n == 1:
        d = values[..., 0, 0].real
        return float(d.min()), float(d.max())
    a = values[..., 0, 0].real
    d = values[..., 1, 1].real
    b = values[..., 0, 1]
    s = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + b.real ** 2 + b.imag ** 2)
    return float((s - r).min()), float((s + r).max())



class TestHermPencil:
    def test_mixed_det_is_the_cross_term_of_det(self):
        rng = np.random.default_rng(4)
        a, b = _random_hermitian(rng, 2), _random_hermitian(rng, 2)
        expected = herm_det(a + b) - herm_det(a) - herm_det(b)
        assert np.max(np.abs(herm_mixed_det(a, b) - expected)) <= 1e-12


class TestLaplacianInverse:
    @pytest.mark.parametrize("chart", HESSIAN_CHARTS, ids=HESSIAN_IDS)
    def test_symbol_repeats_the_matrix_weights(self, chart):
        # exactly Hermitian A, where -2 Im A_ji is 2 Im A_ij bitwise
        B = np.random.default_rng(11).standard_normal((chart.n, chart.n, 2)) @ [1.0, 1j]
        mult = chart._hessian[0]
        for A in (B + np.conj(B.T), np.eye(chart.n)):
            w = _matrix_trace_weights(chart, A)
            sym = sum(wk * mult[k] for wk, k in zip(w, chart.hessian_live))
            expected = np.broadcast_to(sym, chart.half_shape)
            assert np.array_equal(chart.laplacian_symbol(herm_components(A)), expected)

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
        v = chart.irfft(chart.laplacian_inverse(herm_components(A)) * chart.rfft(f))
        assert np.max(np.abs(v - u)) <= 1e-12
        assert abs(v.mean()) <= 1e-12


class TestRefine:
    @pytest.mark.parametrize("chart", COMPONENT_CHARTS, ids=COMPONENT_IDS)
    def test_half_spectrum_padding_matches_complex_padding(self, chart):
        # white noise fills every mode, Nyquist planes included
        u = np.random.default_rng(8).standard_normal(chart.shape)
        fields = [ScalarField(chart, u), VolumeField(chart, 2.0 + np.tanh(u)),
                  _positive_field(chart, 9)]
        for field in fields:
            fine = refine_field(field)
            assert type(fine) is type(field) and fine.chart == refine_chart(chart)
            oracle = refine_values_complex(chart, field.values)
            assert np.max(np.abs(fine.values - oracle)) <= 1e-13

    def test_refine_reproduces_trig_interpolant(self, chart2):
        f = bandlimited_scalar(chart2, 12, modes=3)
        fine = refine_field(f)
        c = fine.chart
        assert c.shape == (128, 1, 128, 1)
        # values at the even nodes coincide with the coarse samples
        assert np.max(np.abs(fine.values[::2, :, ::2, :] - f.values)) <= 1e-12


class TestCoarsen:
    @pytest.mark.parametrize("n", [1, 2])
    def test_coarsen_inverts_refine(self, n):
        chart = TorusChart(n, 16, active_axes=range(0, 2 * n, 2))
        rng = np.random.default_rng(n)
        f = ScalarField(chart, rng.uniform(-1.0, 1.0, chart.shape))
        a = rng.uniform(-1.0, 1.0, chart.shape + (n, n, 2)) @ np.array([1.0, 1.0j])
        h = HermitianMatrixField(chart, 0.5 * (a + np.conj(np.swapaxes(a, -1, -2))))
        for field in (f, h):
            back = coarsen_field(refine_field(field))
            assert type(back) is type(field) and back.chart == chart
            assert np.max(np.abs(back.values - field.values)) <= 1e-14

    def test_coarsen_halves_only_active_axes(self):
        chart = TorusChart(2, (32, 16, 64, 8), periods=(1.0, 2.0, 3.0, 4.0),
                           active_axes=(0, 2))
        coarse = coarsen_chart(chart)
        assert coarse.shape == (16, 1, 32, 1)
        assert coarse.periods == chart.periods
        assert coarse.active_axes == chart.active_axes


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
