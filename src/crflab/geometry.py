"""Periodic charts, discrete fields, and Fourier differentiation.

Everything downstream computes on rectangular complex tori. A chart with
complex dimension n has 2n real axes; real axes (2i, 2i+1) pair into the
complex coordinate z_i = x_i + sqrt(-1) y_i. Fields are sampled on the
fundamental cell and are periodic by construction. Axes outside
``active_axes`` carry a single stored node: a field is constant along them
and its derivative there is exactly zero. Holomorphic and antiholomorphic
derivatives are the Wirtinger combinations

    d/dz_i = (d/dx_i - sqrt(-1) d/dy_i) / 2,
    d/dzbar_i = (d/dx_i + sqrt(-1) d/dy_i) / 2,

built from exact derivatives of the trigonometric interpolant. The Nyquist
mode is zeroed in every derivative factor so that discrete derivatives
commute exactly and second-order operators equal the composition of
first-order ones; all generated test data keeps the top third of the
spectrum empty, where this convention is invisible.

This is the one module that transforms (on numpy, the only backend) and
decides positivity: `herm_logdet` is the test that runs before every log det.
"""

import math

import numpy as np

from .errors import ChartMismatch, NotPositiveDefinite


def _as_tuple(value, count, cast):
    if np.isscalar(value):
        return (cast(value),) * count
    out = tuple(cast(v) for v in value)
    if len(out) != count:
        raise ValueError(f"expected {count} entries, got {len(out)}")
    return out


def _is_pow2(m):
    return m >= 8 and (m & (m - 1)) == 0


class TorusChart:
    """Rectangular torus chart with per-axis periods and node counts.

    Parameters
    ----------
    n : complex dimension (>= 1).
    resolution : int or sequence of 2n ints, each a power of two >= 8.
    periods : float or sequence of 2n positive floats (default 2*pi).
    active_axes : iterable of real-axis indices along which fields vary;
        defaults to all 2n axes.
    """

    def __init__(self, n, resolution, periods=None, active_axes=None):
        if n < 1:
            raise ValueError("complex dimension must be >= 1")
        self.n = int(n)
        naxes = 2 * self.n
        self.resolution = _as_tuple(resolution, naxes, int)
        for m in self.resolution:
            if not _is_pow2(m):
                raise ValueError(f"resolution {m} is not a power of two >= 8")
        if periods is None:
            periods = 2.0 * np.pi
        self.periods = _as_tuple(periods, naxes, float)
        if min(self.periods) <= 0.0:
            raise ValueError("periods must be strictly positive")
        if active_axes is None:
            active_axes = range(naxes)
        self.active_axes = tuple(sorted(set(int(a) for a in active_axes)))
        if self.active_axes and not (0 <= self.active_axes[0] and self.active_axes[-1] < naxes):
            raise ValueError("active axis out of range")
        self.shape = tuple(
            self.resolution[a] if a in self.active_axes else 1 for a in range(naxes)
        )
        self._k = [self._wavenumbers(a) for a in range(naxes)]
        self._ddbar_mult = None

    # -- basic structure ---------------------------------------------------

    @property
    def naxes(self):
        return 2 * self.n

    @property
    def grid_count(self):
        return int(np.prod(self.shape))

    def __eq__(self, other):
        return (
            isinstance(other, TorusChart)
            and self.n == other.n
            and self.resolution == other.resolution
            and self.periods == other.periods
            and self.active_axes == other.active_axes
        )

    def __hash__(self):
        return hash((self.n, self.resolution, self.periods, self.active_axes))

    def require_same(self, other):
        if self != other:
            raise ChartMismatch("fields live on different charts")

    def axis_coordinates(self, axis):
        """Node coordinates along one real axis, broadcast against the grid."""
        m = self.shape[axis]
        x = np.arange(m) * (self.periods[axis] / max(m, 1))
        shape = [1] * self.naxes
        shape[axis] = m
        return x.reshape(shape)

    def _wavenumbers(self, axis):
        m = self.shape[axis]
        if m == 1:
            k = np.zeros(1)
        else:
            k = 2.0 * np.pi * np.fft.fftfreq(m, d=self.periods[axis] / m)
            k[m // 2] = 0.0  # Nyquist zeroed in every derivative factor
        shape = [1] * self.naxes
        shape[axis] = m
        return k.reshape(shape)

    # -- transforms and differentiation ---------------------------------------

    def fft(self, values):
        """Discrete Fourier transform over the active axes."""
        return np.fft.fftn(values, axes=self.active_axes)

    def ifft(self, spec):
        """Inverse of `fft`, complex-valued."""
        return np.fft.ifftn(spec, axes=self.active_axes)

    def deriv(self, values, axis, order=1):
        """Fourier derivative of ``values`` along one real axis.

        ``values`` may carry trailing tensor indices; grid axes are the
        leading ``2n`` array axes. Inactive axes differentiate to zero.
        """
        values = np.asarray(values)
        if self.shape[axis] == 1:
            return np.zeros_like(values, dtype=values.dtype)
        k = self._k[axis]
        extra = values.ndim - self.naxes
        mult = (1j * k.reshape(k.shape + (1,) * extra)) ** order
        spec = np.fft.fft(values, axis=axis)
        out = np.fft.ifft(mult * spec, axis=axis)
        if np.isrealobj(values):
            return out.real
        return out

    def dz(self, values, i):
        """Wirtinger derivative d/dz_i."""
        return 0.5 * (self.deriv(values, 2 * i) - 1j * self.deriv(values, 2 * i + 1))

    def dzbar(self, values, i):
        """Wirtinger derivative d/dzbar_i."""
        return 0.5 * (self.deriv(values, 2 * i) + 1j * self.deriv(values, 2 * i + 1))

    def _mu(self, i):
        # multiplier of d/dz_i on exp(sqrt(-1) k.x)
        kx = self._k[2 * i]
        ky = self._k[2 * i + 1]
        return 0.5 * (1j * kx + ky)

    def ddbar_multipliers(self):
        """Fourier multipliers of d_i d_jbar, cached; shape (n, n, *grid)."""
        if self._ddbar_mult is None:
            mu = [np.broadcast_to(self._mu(i), self.shape) for i in range(self.n)]
            mult = np.empty((self.n, self.n) + self.shape, dtype=complex)
            for i in range(self.n):
                for j in range(self.n):
                    mult[i, j] = -mu[i] * np.conj(mu[j])
            self._ddbar_mult = mult
        return self._ddbar_mult

    def laplacian_symbol(self, A):
        """Real Fourier symbol, on the grid, of the constant-coefficient
        operator sum_ij A_ji d_i d_jbar for a Hermitian n x n matrix A."""
        return np.einsum("ji,ij...->...", A, self.ddbar_multipliers()).real

    def laplacian_inverse(self, A):
        """The inverse of sum_ij A_ji d_i d_jbar (A positive Hermitian) as a
        function; it zeroes the modes the symbol annihilates, the mean and
        those whose every wavenumber is zero or Nyquist."""
        sym = self.laplacian_symbol(A)
        kernel = sym == 0.0
        sym = np.where(kernel, 1.0, sym)

        def apply(rhs):
            spec = self.fft(rhs) / sym
            spec[kernel] = 0.0
            return self.ifft(spec).real

        return apply

    def complex_hessian(self, values):
        """Matrix of second Wirtinger derivatives d_i d_jbar of a real field.

        Returns an array of shape ``(*grid, n, n)``; it is Hermitian to
        rounding and each component has exactly zero grid mean.
        """
        spec = self.fft(np.asarray(values))
        mult = self.ddbar_multipliers()
        out = np.empty(self.shape + (self.n, self.n), dtype=complex)
        for i in range(self.n):
            out[..., i, i] = self.ifft(mult[i, i] * spec).real
            for j in range(i + 1, self.n):
                hij = self.ifft(mult[i, j] * spec)
                out[..., i, j] = hij
                out[..., j, i] = np.conj(hij)
        return out

    def strip_nyquist(self, values):
        """Remove Nyquist content along every active axis.

        With the zeroed-Nyquist derivative convention those modes lie in
        the kernel of every Wirtinger operator, so they are gauge for any
        field that only enters through derivatives; stripping them picks
        the canonical band-limited representative.
        """
        spec = self.fft(np.asarray(values, dtype=float))
        for a in self.active_axes:
            sel = [slice(None)] * spec.ndim
            sel[a] = self.shape[a] // 2
            spec[tuple(sel)] = 0.0
        return self.ifft(spec).real

    # -- reductions ----------------------------------------------------------

    def mean(self, values):
        """Grid average over the fundamental cell (tensor indices preserved)."""
        values = np.asarray(values)
        return values.mean(axis=tuple(range(self.naxes)))

    def integral(self, values):
        """Integral over the fundamental cell in Lebesgue measure."""
        return self.mean(values) * float(np.prod(self.periods))


# -- per-node Hermitian linear algebra (closed form for n <= 2) -------------


def herm_det(values):
    """Determinant of a Hermitian matrix field, returned as a real array."""
    n = values.shape[-1]
    if n == 1:
        return values[..., 0, 0].real.copy()
    if n == 2:
        a = values[..., 0, 0].real
        d = values[..., 1, 1].real
        b = values[..., 0, 1]
        return a * d - (b.real ** 2 + b.imag ** 2)
    return np.linalg.det(values).real


def herm_inv(values):
    """Inverse of a Hermitian matrix field (adjugate form for n <= 2)."""
    n = values.shape[-1]
    if n == 1:
        return 1.0 / values
    if n == 2:
        det = herm_det(values)
        out = np.empty_like(values)
        out[..., 0, 0] = values[..., 1, 1] / det
        out[..., 1, 1] = values[..., 0, 0] / det
        out[..., 0, 1] = -values[..., 0, 1] / det
        out[..., 1, 0] = -values[..., 1, 0] / det
        return out
    return np.linalg.inv(values)


def herm_eig_bounds(values):
    """(min, max) eigenvalue over all nodes of a Hermitian matrix field."""
    n = values.shape[-1]
    if n == 1:
        d = values[..., 0, 0].real
        return float(d.min()), float(d.max())
    if n == 2:
        a = values[..., 0, 0].real
        d = values[..., 1, 1].real
        b = values[..., 0, 1]
        s = 0.5 * (a + d)
        r = np.sqrt(0.25 * (a - d) ** 2 + b.real ** 2 + b.imag ** 2)
        return float((s - r).min()), float((s + r).max())
    w = np.linalg.eigvalsh(values)
    return float(w[..., 0].min()), float(w[..., -1].max())


def herm_logdet(values):
    """log det of a Hermitian matrix field; raises NotPositiveDefinite unless
    every node is positive definite (NaN fails)."""
    det = herm_det(values)
    if values.shape[-1] <= 2:
        # det > 0 and tr > 0 force every eigenvalue positive only for n <= 2
        positive = det.min() > 0.0 and np.einsum("...ii->...", values).real.min() > 0.0
    else:
        positive = np.isfinite(det).all() and herm_eig_bounds(values)[0] > 0.0
    if not positive:
        raise NotPositiveDefinite("log det of a non-positive matrix field")
    return np.log(det)


# -- fields ------------------------------------------------------------------


class ScalarField:
    """Real scalar field on a chart."""

    def __init__(self, chart, values):
        values = np.asarray(values, dtype=float)
        values = np.broadcast_to(values, chart.shape).copy()
        if not np.all(np.isfinite(values)):
            raise ValueError("scalar field has non-finite values")
        self.chart = chart
        self.values = values

    @classmethod
    def zeros(cls, chart):
        return cls(chart, np.zeros(chart.shape))

    def copy(self):
        return ScalarField(self.chart, self.values.copy())


class VolumeField:
    """Strictly positive real density on a chart."""

    def __init__(self, chart, values):
        values = np.asarray(values, dtype=float)
        values = np.broadcast_to(values, chart.shape).copy()
        if values.min() <= 0.0:
            raise ValueError("volume field must be strictly positive")
        self.chart = chart
        self.values = values


_HERMITIAN_DRIFT = 1e-13


class HermitianMatrixField:
    """n x n complex matrix field, Hermitian at every node.

    Construction symmetrizes with the conjugate transpose and asserts the
    correction stays below 1e-13 relative to the field scale.
    """

    def __init__(self, chart, values):
        values = np.asarray(values, dtype=complex)
        target = chart.shape + (chart.n, chart.n)
        values = np.broadcast_to(values, target).copy()
        adj = np.conj(np.swapaxes(values, -1, -2))
        drift = np.max(np.abs(values - adj))
        scale = max(np.max(np.abs(values)), 1.0)
        if drift > _HERMITIAN_DRIFT * scale:
            raise ValueError(f"matrix field is not Hermitian (drift {drift:.3e})")
        self.chart = chart
        self.values = 0.5 * (values + adj)

    @classmethod
    def constant(cls, chart, matrix):
        return cls(chart, np.asarray(matrix, dtype=complex))

    @classmethod
    def identity(cls, chart):
        return cls.constant(chart, np.eye(chart.n))

    def copy(self):
        return HermitianMatrixField(self.chart, self.values.copy())


# -- geometry_kernel operations ----------------------------------------------


def spectral_derivative(field, axis, order=1):
    """Exact derivative of the trigonometric interpolant along a real axis."""
    chart = field.chart
    if axis not in chart.active_axes:
        raise ValueError(f"axis {axis} is not active on this chart")
    out = chart.deriv(field.values, axis, order)
    if isinstance(field, HermitianMatrixField):
        return HermitianMatrixField(chart, out)
    return ScalarField(chart, out)


def i_ddbar(phi):
    """Matrix field (d_i d_jbar phi) of a real potential.

    This is the coefficient matrix of sqrt(-1) ddbar phi in the convention
    omega = sqrt(-1) g_{i jbar} dz_i dzbar_j.
    """
    return HermitianMatrixField(phi.chart, phi.chart.complex_hessian(phi.values))


def min_eigenvalue(field):
    """Smallest eigenvalue over all nodes of a Hermitian matrix field."""
    return herm_eig_bounds(field.values)[0]


def eigenvalue_range(field):
    return herm_eig_bounds(field.values)


def require_positive(field, floor=0.0, what="metric"):
    low = min_eigenvalue(field)
    if low <= floor:
        raise NotPositiveDefinite(f"{what} has min eigenvalue {low:.3e}")
    return low


def metric_volume(g):
    """Total volume integral of omega^n for the metric field g.

    omega^n = n! det(g) (sqrt(-1) dz dzbar)^n = n! 2^n det(g) dLeb.
    """
    chart = g.chart
    n = chart.n
    det = herm_det(g.values)
    return float(math.factorial(n) * 2.0 ** n * chart.integral(det))


def spectral_energy_report(field):
    """Fraction of non-mean spectral energy in the top third per active axis."""
    chart = field.chart
    spec = chart.fft(field.values)
    power = np.abs(spec) ** 2
    power[(0,) * chart.naxes] = 0.0
    total = power.sum()
    report = {}
    for a in chart.active_axes:
        m = chart.shape[a]
        idx = np.fft.fftfreq(m) * m
        high = np.abs(idx) >= m / 3.0
        sel = [slice(None)] * chart.naxes
        sel[a] = high
        frac = power[tuple(sel)].sum() / total if total > 0 else 0.0
        report[a] = float(frac)
    report["max_fraction"] = max(report.values()) if report else 0.0
    return report


def refine_chart(chart, factor=2):
    res = tuple(
        r * factor if a in chart.active_axes else r
        for a, r in enumerate(chart.resolution)
    )
    return TorusChart(chart.n, res, chart.periods, chart.active_axes)


def _refine_values(chart, fine, values):
    spec = chart.fft(values)
    for a in chart.active_axes:
        m = chart.shape[a]
        mf = fine.shape[a]
        shape = list(spec.shape)
        shape[a] = mf
        padded = np.zeros(shape, dtype=complex)
        half = m // 2
        lo = [slice(None)] * spec.ndim
        hi = [slice(None)] * spec.ndim
        lo[a] = slice(0, half)
        hi[a] = slice(-half + 1, None) if half > 1 else slice(m, m)
        padded[tuple(lo)] = spec[tuple(lo)]
        padded[tuple(hi)] = spec[tuple(hi)]
        # split the Nyquist bin symmetrically
        ny = [slice(None)] * spec.ndim
        ny[a] = half
        top = [slice(None)] * spec.ndim
        top[a] = mf - half
        padded[tuple(ny)] = 0.5 * spec[tuple(ny)]
        padded[tuple(top)] = 0.5 * spec[tuple(ny)]
        spec = padded
    scale = fine.grid_count / chart.grid_count
    out = fine.ifft(spec * scale)
    if np.isrealobj(values):
        return out.real
    return out


def refine_field(field, factor=2):
    """Fourier interpolation of a field onto a grid refined by ``factor``."""
    fine = refine_chart(field.chart, factor)
    out = _refine_values(field.chart, fine, field.values)
    if isinstance(field, ScalarField):
        return ScalarField(fine, out)
    if isinstance(field, VolumeField):
        return VolumeField(fine, out)
    return HermitianMatrixField(fine, out)


# -- Hopf sample sets ---------------------------------------------------------


class HopfSampleSet:
    """Finite point sample in the fundamental annulus of a Hopf manifold.

    The manifold is (C^n \\ 0) / (z ~ alpha z) with |alpha_1| = ... =
    |alpha_n| != 1; points live in 1 <= |z| < |alpha_1|.
    """

    def __init__(self, alpha, points):
        alpha = np.asarray(alpha, dtype=complex)
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        n = alpha.shape[0]
        if n < 2:
            raise ValueError("Hopf manifolds need complex dimension >= 2")
        mods = np.abs(alpha)
        if np.max(np.abs(mods - mods[0])) > 1e-14:
            raise ValueError("all |alpha_i| must coincide to 1e-14")
        if abs(mods[0] - 1.0) < 1e-2:
            raise ValueError("|alpha| must be bounded away from 1")
        if points.shape[1] != n:
            raise ValueError("points must have n complex coordinates")
        r = np.linalg.norm(points, axis=1)
        lo, hi = (1.0, mods[0]) if mods[0] > 1.0 else (mods[0], 1.0)
        if np.any(r < lo - 1e-12) or np.any(r >= hi + 1e-12):
            raise ValueError("sample points must lie in the fundamental annulus")
        self.n = n
        self.alpha = alpha
        self.points = points

    @classmethod
    def random(cls, n, alpha_modulus, count, seed):
        """Log-uniform radii, uniform directions, random phases for alpha."""
        rng = np.random.default_rng(seed)
        alpha = np.full(n, alpha_modulus) * np.exp(
            2j * np.pi * rng.random(n)
        )
        v = rng.normal(size=(count, 2 * n))
        v /= np.linalg.norm(v, axis=1)[:, None]
        dirs = v[:, :n] + 1j * v[:, n:]
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = np.exp(rng.random(count) * np.log(alpha_modulus))
        radii = np.clip(radii, 1.0, alpha_modulus * (1 - 1e-9))
        return cls(alpha, radii[:, None] * dirs)
