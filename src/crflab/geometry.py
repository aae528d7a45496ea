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

Fields are stored grid-leading: the 2n grid axes come first and tensor
indices last (``values[..., i, j]``). `TorusChart.grad` is the entry point
for tensor-first arrays instead, with the tensor indices first and the grid
last, which is how `tensors` holds its tensors; it returns the Wirtinger
gradient as a new leading index. It runs on one fused Fourier derivative
kernel, `TorusChart._derivative`. Each active real axis of a derivative
costs one `np.fft.fft` along it, one in-place multiply by a single
multiplier and one `np.fft.ifft` written into the output (`out=`, which
numpy has from 2.0 on), into which a second active axis adds. The
multiplier carries the 1/2 and the sqrt(-1) of the Wirtinger combination:
sqrt(-1) kx / 2 on x, +ky / 2 on y for d/dz and -ky / 2 for d/dzbar.
Scaling by 1/2 is exact and sqrt(-1) times a spectrum is an exact swap and
negation, so these are bitwise the transforms of the combinations above.
Of a real field each term keeps only the real or the imaginary part its
exact derivative has, the other being rounding.

This is the one module that transforms (on numpy, the only backend) and
decides positivity. Every other transform is of a real field, through the
real-to-complex pair `TorusChart.rfft`/`irfft`, whose half spectrum halves the
last active axis; `refine_field` zero-pads such half spectra, one real
component of a Hermitian field at a time. Each of the pair is one numpy pass
per active axis, in the order `np.fft.rfftn`/`irfftn` take: `rfft` along the
last active axis, then `fft` in place (`out=`) along the others in reverse;
`ifft` along the leading axes in order, the first pass into a new array, then
`irfft`. So they are bitwise rfftn's and irfftn's without those functions'
per-call axis handling, which on a 32-node chart costs as much as the
transform. `irfft` takes the grid axes to be the trailing ones, so it inverts
a stack of half spectra in the same passes, each bitwise as if alone.

Both solvers evaluate log det(A + i ddbar u) and build its argument with one
recipe, `TorusChart.plus_hessian`, from A's n^2 real components (A_ii, Re A_ij,
Im A_ij for i < j, the order of `herm_components`) and u's half spectrum. Each
Hessian component has a real half-grid multiplier, and the chart flags each
that is identically zero: that component is zero by construction (Im h_12 on
active axes (0, 2), where mu_1 conj(mu_2) is real), and `hessian_live` lists
the others. The live multipliers are stacked, and the live components come
from one `irfft` of that stack times u's spectrum, into which A's components
are added; `complex_hessian` is the recipe on A = 0. A Hermitian coefficient
enters only as real components, which `components_trace_weights` turns into
weights that contract the live components; `laplacian_symbol` and
`laplacian_inverse`, the half-grid multipliers of the constant-coefficient
Laplacians, are built from them. The flat Laplacian's symbol
(`flat_laplacian`) has zeros that decide the modes no Wirtinger operator sees
(`invisible`), which `laplacian_inverse` and `canonical_spec` zero. These
tables (the multipliers with their live indices and stack, the flat symbol,
its zeros) are read-only cached properties of the chart, each built on first
read and then kept, so a chart that is only compared or written builds none.

Per-node linear algebra works on components, in closed form for n <= 2 and
through LAPACK beyond; `herm_det`, `herm_logdet` and, for n <= 2, `herm_inv`
and `herm_eig_bounds` take a matrix field's components. `components_logdet`
is the one positivity test before a log det: det > 0 and A_11 > 0 for n <= 2,
and beyond a finite det > 0 with a Cholesky factor, cheaper than eigenvalues;
`components_eig_bounds` serves the callers that need the bounds.
"""

import functools
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
        if not all(0.0 < p < math.inf for p in self.periods):
            raise ValueError("periods must be finite and strictly positive")
        if active_axes is None:
            active_axes = range(naxes)
        self.active_axes = tuple(sorted(set(int(a) for a in active_axes)))
        if not self.active_axes:
            raise ValueError("a chart needs at least one active axis")
        if not (0 <= self.active_axes[0] and self.active_axes[-1] < naxes):
            raise ValueError("active axis out of range")
        self.shape = tuple(
            self.resolution[a] if a in self.active_axes else 1 for a in range(naxes)
        )
        # rfft halves the last active axis
        half = self.active_axes[-1]
        self.half_shape = tuple(
            m // 2 + 1 if a == half else m for a, m in enumerate(self.shape)
        )
        self._k = [self._wavenumbers(a) for a in range(naxes)]
        self._k_half = [self._wavenumbers(a, a == half) for a in range(naxes)]

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

    def _wavenumbers(self, axis, half=False):
        # the half spectrum keeps the nonnegative wavenumbers, Nyquist last
        m = self.shape[axis]
        if m == 1:
            k = np.zeros(1)
        else:
            freq = np.fft.rfftfreq if half else np.fft.fftfreq
            k = 2.0 * np.pi * freq(m, d=self.periods[axis] / m)
            k[m // 2] = 0.0  # Nyquist zeroed in every derivative factor
        shape = [1] * self.naxes
        shape[axis] = k.size
        return k.reshape(shape)

    # -- transforms and differentiation ---------------------------------------

    def rfft(self, values):
        """Half spectrum of a real field over the active axes, of shape
        ``half_shape``: the last active axis keeps wavenumbers 0..m/2.

        One numpy pass per active axis, in `np.fft.rfftn`'s order (the last
        axis, then the others in reverse), so the result is bitwise rfftn's."""
        *lead, last = self.active_axes
        spec = np.fft.rfft(values, axis=last)
        for a in reversed(lead):
            np.fft.fft(spec, axis=a, out=spec)
        return spec

    def irfft(self, spec):
        """Inverse of `rfft`: the real field of a half spectrum, bitwise
        `np.fft.irfftn`'s (the leading axes in order, then the last). The
        grid axes are the trailing ones, so ``spec`` may stack half spectra
        on leading axes, each inverted as if alone, in one numpy pass per
        active axis for the whole stack. The first pass writes a new array,
        so ``spec`` is never written."""
        pos = np.ndim(spec) - self.naxes
        *lead, last = self.active_axes
        if lead:
            spec = np.fft.ifft(spec, axis=pos + lead[0])
            for a in lead[1:]:
                np.fft.ifft(spec, axis=pos + a, out=spec)
        return np.fft.irfft(spec, n=self.shape[last], axis=pos + last)

    def _derivative(self, values, pos, terms, out):
        # the one Fourier derivative kernel (module docstring): sets ``out``
        # to the sum over ``terms``, each (real axis, 1-d multiplier, part),
        # of ifft(multiplier * fft(values)) along that axis, the grid of
        # ``values`` starting at array axis ``pos``. Of a real ``values`` a
        # term keeps only ``part`` ("real" or "imag") of its ifft. With no
        # terms ``out`` is zero, and no transform is made
        real = np.isrealobj(values)
        if real or not terms:
            out[...] = 0.0
        for t, (axis, mult, part) in enumerate(terms):
            ax = pos + axis
            spec = np.fft.fft(values, axis=ax)
            spec *= mult.reshape((-1,) + (1,) * (values.ndim - ax - 1))
            if real:
                d = np.fft.ifft(spec, axis=ax, out=spec)
                getattr(out, part)[...] += getattr(d, part)
            elif t == 0:
                np.fft.ifft(spec, axis=ax, out=out)
            else:
                out += np.fft.ifft(spec, axis=ax, out=spec)

    def _wirtinger_terms(self, i, conj):
        # the kernel's terms of d/dz_i (d/dzbar_i with conj) on the active
        # axes of z_i: (d/dx -+ sqrt(-1) d/dy) / 2 multiplies exp(sqrt(-1) k.x)
        # by sqrt(-1) kx / 2 and by +ky / 2 (-ky / 2 for d/dzbar); of a real
        # field the first is the real part, the second the imaginary one
        x, y = 2 * i, 2 * i + 1
        terms = []
        if self.shape[x] > 1:
            terms.append((x, 0.5j * self._k[x].ravel(), "real"))
        if self.shape[y] > 1:
            terms.append((y, (-0.5 if conj else 0.5) * self._k[y].ravel(), "imag"))
        return terms

    def grad(self, values, conj=False):
        """Wirtinger gradient of a tensor-first field.

        ``values`` carries its tensor indices first and the 2n grid axes
        last; ``out[i, ...]`` is d/dz_i of it (d/dzbar_i with ``conj``), in
        the same layout. Along a constant complex direction the entry is
        zero without any transform.
        """
        values = np.asarray(values)
        pos = values.ndim - self.naxes
        out = np.empty((self.n,) + values.shape, dtype=complex)
        for i in range(self.n):
            self._derivative(values, pos, self._wirtinger_terms(i, conj), out[i])
        return out

    @functools.cached_property
    def _hessian(self):
        # (multipliers, live indices, live stack): the real half-grid
        # multipliers of the n^2 real components of d_i d_jbar, in the order
        # of `herm_components`, each broadcasting over the axes its
        # wavenumbers vary along. A multiplier that is identically zero marks
        # a component that is zero by construction, which no transform
        # computes; the live ones are stacked on the half grid, read-only,
        # for `hessian_components`
        # d/dz_i multiplies exp(sqrt(-1) k.x) by (sqrt(-1) kx + ky) / 2
        k = self._k_half
        mu = [0.5 * (1j * k[2 * i] + k[2 * i + 1]) for i in range(self.n)]
        mult = []
        for i in range(self.n):
            mult.append(-(mu[i].real ** 2 + mu[i].imag ** 2))
            for j in range(i + 1, self.n):
                m = -mu[i] * np.conj(mu[j])
                mult += [m.real, m.imag]
        live = tuple(k for k, m in enumerate(mult) if m.any())
        stack = np.stack([np.broadcast_to(mult[k], self.half_shape) for k in live])
        stack.flags.writeable = False
        return mult, live, stack

    @property
    def hessian_live(self):
        """Indices, in the order of `herm_components`, of the real Hessian
        components that are not zero by construction on this chart. On active
        axes (0, 2), for example, Im h_12 is dead: mu_1 conj(mu_2) = k_0 k_2 / 4
        is real."""
        return self._hessian[1]

    def hessian_components(self, spec):
        """The live real components of the complex Hessian d_i d_jbar of the
        real field whose half spectrum is ``spec``, stacked on a new leading
        axis in the order of `hessian_live`; the other components are zero.
        ``spec`` times the stacked multipliers goes through one `irfft`, one
        numpy pass per active axis for all the components, each bitwise its
        own `irfft`."""
        return self.irfft(self._hessian[2] * spec)

    def components_trace_weights(self, parts):
        """Real weights w, aligned with `hessian_components`, with sum_k w_k h_k
        = sum_ij A_ji d_i d_jbar for the Hermitian field A whose components are
        ``parts``: a diagonal one as it is, an off-diagonal one doubled
        (A_ji h_ij + A_ij h_ji = 2 Re A_ij Re h_ij + 2 Im A_ij Im h_ij)."""
        entries = _component_entries(self.n)
        return [
            parts[k] if entries[k][0] == entries[k][1] else 2.0 * parts[k]
            for k in self.hessian_live
        ]

    def laplacian_symbol(self, parts):
        """Real Fourier symbol, on the half grid, of the constant-coefficient
        operator sum_ij A_ji d_i d_jbar, A having the components ``parts``."""
        w = self.components_trace_weights(parts)
        mult, live, _ = self._hessian
        sym = sum(wk * mult[k] for wk, k in zip(w, live))
        return np.broadcast_to(sym, self.half_shape).copy()

    @functools.cached_property
    def flat_laplacian(self):
        """Real half-grid symbol of the flat Laplacian sum_i d_i d_ibar,
        read-only."""
        sym = self.laplacian_symbol(herm_components(np.eye(self.n)))
        sym.flags.writeable = False
        return sym

    @functools.cached_property
    def invisible(self):
        """Read-only half-grid mask of the modes no Wirtinger operator sees,
        the zeros of `flat_laplacian`: the mean and those whose every
        wavenumber is zero or Nyquist. With the zeroed-Nyquist derivative
        convention they are gauge for any field that only enters through
        derivatives."""
        zero = self.flat_laplacian == 0.0
        zero.flags.writeable = False
        return zero

    def laplacian_inverse(self, parts):
        """The inverse of sum_ij A_ji d_i d_jbar (A positive, of components
        ``parts``) as a real half-grid multiplier of `rfft` spectra; it is
        zero on the `invisible` modes, which the symbol annihilates."""
        sym = self.laplacian_symbol(parts)
        inv = 1.0 / np.where(self.invisible, 1.0, sym)
        inv[self.invisible] = 0.0
        return inv

    def plus_hessian(self, parts, spec):
        """The real components of A + (d_i d_jbar u), in the order of
        `herm_components`: ``parts`` are the components of a Hermitian field
        A (a None part is zero) and ``spec`` is the half spectrum of the real
        field u. A is added in place into the live components, fresh from
        `hessian_components`, so its arrays, which may be views or read-only,
        are never written; a component that is zero by construction is A's
        part itself."""
        out = list(parts)
        for k, h in zip(self.hessian_live, self.hessian_components(spec)):
            if out[k] is not None:
                h += out[k]
            out[k] = h
        return out

    def complex_hessian(self, values):
        """Matrix field, of shape ``(*grid, n, n)``, of the second Wirtinger
        derivatives d_i d_jbar of a real field: `plus_hessian` of A = 0. It is
        Hermitian, each component has exactly zero grid mean, and one that is
        zero by construction is exactly zero."""
        parts = self.plus_hessian([None] * self.n ** 2, self.rfft(np.asarray(values)))
        return herm_from_components(parts, self.shape)

    def canonical_spec(self, values):
        """The half spectrum of a real field less the `invisible` modes: the
        canonical representative of a field that only enters through
        derivatives."""
        spec = self.rfft(values)
        spec[self.invisible] = 0.0
        return spec

    # -- reductions ----------------------------------------------------------

    def mean(self, values):
        """Grid average over the fundamental cell (tensor indices preserved)."""
        values = np.asarray(values)
        return values.mean(axis=tuple(range(self.naxes)))

    def integral(self, values):
        """Integral over the fundamental cell in Lebesgue measure."""
        return self.mean(values) * float(np.prod(self.periods))


# -- per-node Hermitian linear algebra (closed form for n <= 2) -------------


def _component_entries(n):
    # (i, j, imag) of each real component of an n x n Hermitian matrix: the
    # diagonal entry (i, i) for each i, each followed by Re and Im of (i, j)
    # for j > i
    out = []
    for i in range(n):
        out.append((i, i, False))
        for j in range(i + 1, n):
            out += [(i, j, False), (i, j, True)]
    return out


def herm_components(values):
    """The n^2 real components of a Hermitian matrix field, as views: A_ii
    for each i, each followed by Re A_ij and Im A_ij for j > i. Every
    component list in this package is in this order."""
    return [
        (values.imag if imag else values.real)[..., i, j]
        for i, j, imag in _component_entries(values.shape[-1])
    ]


def herm_from_components(parts, shape):
    """The Hermitian matrix field on grid ``shape`` whose real components, in
    the order of `herm_components`, are ``parts``; a None part is zero."""
    n = math.isqrt(len(parts))
    out = np.empty(shape + (n, n), dtype=complex)  # every entry is written below
    for (i, j, imag), p in zip(_component_entries(n), parts):
        p = 0.0 if p is None else p
        if i == j:
            out[..., i, i] = p
        elif imag:
            out.imag[..., i, j] = p
            # not np.negative: on numpy 2.4 it misreads an input of stride
            # 64 bytes (a 2 x 2 complex field's component view) when the
            # output is strided too
            np.multiply(p, -1.0, out=out.imag[..., j, i])
        else:
            out.real[..., i, j] = out.real[..., j, i] = p
    return out


def herm_det(values):
    """Determinant of a Hermitian matrix field, returned as a real array."""
    return components_det(herm_components(values))


def herm_inv(values):
    """Inverse of a Hermitian matrix field: `components_inv` for n <= 2,
    LAPACK's beyond."""
    if values.shape[-1] <= 2:
        return herm_from_components(components_inv(herm_components(values)), values.shape[:-2])
    return np.linalg.inv(values)


def herm_eig_bounds(values):
    """(min, max) eigenvalue over all nodes of a Hermitian matrix field;
    NaN propagates, so ``not lo > 0`` rejects a field with a NaN entry."""
    if values.shape[-1] <= 2:
        return components_eig_bounds(herm_components(values))
    if not np.isfinite(values).all():
        # LAPACK returns arbitrary finite eigenvalues for non-finite input
        return math.nan, math.nan
    w = np.linalg.eigvalsh(values)
    return float(w[..., 0].min()), float(w[..., -1].max())


def herm_mixed_det(a, b):
    """m(a, b) of 2x2 Hermitian fields, the cross term of
    det(a + b) = det(a) + m(a, b) + det(b)."""
    m = (a[..., 0, 0] * b[..., 1, 1] + a[..., 1, 1] * b[..., 0, 0]).real
    return m - 2.0 * (a[..., 0, 1] * b[..., 1, 0]).real


def herm_logdet(values):
    """log det of a Hermitian matrix field; raises NotPositiveDefinite unless
    every node is positive definite (NaN fails)."""
    return components_logdet(herm_components(values))


def components_inv(parts):
    """The real components of the inverse of the Hermitian field whose
    components are ``parts``, in the order of `herm_components`: the closed
    form for n <= 2, multiplying by 1/det as numpy does when it divides a
    complex entry by a real det, and LAPACK's inverse beyond."""
    if len(parts) == 1:
        return [1.0 / parts[0]]
    if len(parts) == 4:
        a, re, im, d = parts
        r = 1.0 / components_det(parts)
        return [d * r, -re * r, -im * r, a * r]
    return herm_components(herm_inv(herm_from_components(parts, np.shape(parts[0]))))


def components_trace(a, b):
    """tr(A B), as a real field, of the Hermitian fields A and B whose real
    components are ``a`` and ``b``. For n = 2 the terms are summed as
    ``np.einsum("...ji,...ij->...", A, B)`` sums them, so the result is
    bitwise the real part of that einsum."""
    if len(a) == 4:
        # Re(A_10 B_01), which the sum meets again as Re(A_01 B_10)
        cross = a[1] * b[1] + a[2] * b[2]
        return (a[0] * b[0] + cross) + (cross + a[3] * b[3])
    entries = _component_entries(math.isqrt(len(a)))
    return sum((1.0 if i == j else 2.0) * x * y for (i, j, _), x, y in zip(entries, a, b))


def components_eig_bounds(parts):
    """(min, max) eigenvalue over all nodes of the Hermitian field of real
    components ``parts``: the closed form for n <= 2, `herm_eig_bounds` of
    the matrix beyond; NaN propagates."""
    if len(parts) == 1:
        d = parts[0]
        return float(d.min()), float(d.max())
    if len(parts) == 4:
        a, re, im, d = parts
        s = 0.5 * (a + d)
        r = np.sqrt(0.25 * (a - d) ** 2 + re ** 2 + im ** 2)
        return float((s - r).min()), float((s + r).max())
    return herm_eig_bounds(herm_from_components(parts, np.shape(parts[0])))


def components_det(parts):
    """Determinant, as a new real array, of the Hermitian field whose real
    components, in the order of `herm_components`, are ``parts``; in closed
    form for n <= 2."""
    if len(parts) == 1:
        return np.array(parts[0], dtype=float)
    if len(parts) == 4:
        a, re, im, d = parts
        return a * d - (re ** 2 + im ** 2)
    return np.linalg.det(herm_from_components(parts, np.shape(parts[0]))).real


def _has_cholesky(values):
    # a Hermitian matrix has a Cholesky factor exactly when it is positive
    # definite; LAPACK stops at the first pivot that is not positive
    try:
        np.linalg.cholesky(values)
    except np.linalg.LinAlgError:
        return False
    return True


def components_logdet(parts):
    """log det of the Hermitian field whose real components, in the order of
    `herm_components`, are ``parts``; raises NotPositiveDefinite unless every
    node is positive definite (NaN fails): det > 0 and A_11 > 0 for n <= 2, and
    beyond a finite det > 0 and a Cholesky factor of the matrix, built once."""
    if len(parts) <= 4:
        det = components_det(parts)
        # with det > 0 the two eigenvalues share the sign of the corner A_11,
        # which for n = 1 is the det itself
        positive = len(parts) == 1 or parts[0].min() > 0.0
    else:
        values = herm_from_components(parts, np.shape(parts[0]))
        det = np.linalg.det(values).real
        # det is not finite at a node with an entry that is not
        positive = det.max() < math.inf and _has_cholesky(values)
    if not (det.min() > 0.0 and positive):
        raise NotPositiveDefinite("log det of a non-positive matrix field")
    return np.log(det)


# -- fields ------------------------------------------------------------------


class ScalarField:
    """Real scalar field on a chart; its values are read-only."""

    def __init__(self, chart, values):
        values = np.asarray(values, dtype=float)
        values = np.broadcast_to(values, chart.shape).copy()
        if not np.all(np.isfinite(values)):
            raise ValueError("scalar field has non-finite values")
        values.flags.writeable = False
        self.chart = chart
        self.values = values


class VolumeField:
    """Strictly positive real density on a chart; its values are read-only."""

    def __init__(self, chart, values):
        values = np.asarray(values, dtype=float)
        values = np.broadcast_to(values, chart.shape).copy()
        # NaN fails both tests, so a NaN node is rejected like +inf
        if not (values.min() > 0.0 and values.max() < math.inf):
            raise ValueError("volume field must be finite and strictly positive")
        values.flags.writeable = False
        self.chart = chart
        self.values = values


_HERMITIAN_DRIFT = 1e-13


def _frozen(a, shape):
    # ``a`` as a read-only C-contiguous float array of ``shape`` that owns its
    # memory: ``a`` itself if it is one (another field's component), else a copy
    if not (isinstance(a, np.ndarray) and a.base is None and not a.flags.writeable
            and a.flags.c_contiguous and a.dtype == float and a.shape == shape):
        a = np.array(np.broadcast_to(a, shape), dtype=float, order="C")
        a.flags.writeable = False
    return a


class HermitianMatrixField:
    """n x n complex matrix field, Hermitian at every node.

    A field keeps the form it was built from: the constructor the matrix
    (``values``, of shape ``(*grid, n, n)``, or one n x n matrix for every
    node), `from_components` its n^2 real components (``parts``,
    contiguous, in the order of `herm_components`).
    The other form is built on first read and kept. Both are read-only, so a
    field never changes and its two forms always agree.

    The constructor symmetrizes with the conjugate transpose and asserts the
    correction stays below 1e-13 relative to the field scale. That bound is
    the rule for data from outside the package; a producer inside it
    returns the Hermitian part of what it computes, or its components.
    """

    _values = _parts = None  # the form not yet built

    def __init__(self, chart, values):
        target = chart.shape + (chart.n, chart.n)
        values = np.broadcast_to(np.asarray(values, dtype=complex), target)
        adj = np.conj(np.swapaxes(values, -1, -2))
        drift = np.max(np.abs(values - adj))
        scale = max(np.max(np.abs(values)), 1.0)
        if drift > _HERMITIAN_DRIFT * scale:
            raise ValueError(f"matrix field is not Hermitian (drift {drift:.3e})")
        self.chart = chart
        self._values = 0.5 * (values + adj)
        self._values.flags.writeable = False

    @classmethod
    def from_components(cls, chart, parts):
        """The field whose real components, in the order of
        `herm_components`, are ``parts``, kept as read-only contiguous copies
        (another field's components are shared, not copied). It is Hermitian
        by construction, so nothing is checked or symmetrized."""
        field = cls.__new__(cls)
        field.chart = chart
        field._parts = [_frozen(p, chart.shape) for p in parts]
        return field

    @property
    def values(self):
        """The matrix field, assembled from ``parts`` on first read."""
        if self._values is None:
            self._values = herm_from_components(self._parts, self.chart.shape)
            self._values.flags.writeable = False
        return self._values

    @property
    def parts(self):
        """The real components, copied out of ``values`` on first read."""
        if self._parts is None:
            self._parts = [_frozen(p, self.chart.shape) for p in herm_components(self._values)]
        return self._parts


# -- geometry_kernel operations ----------------------------------------------


def i_ddbar(phi):
    """Matrix field (d_i d_jbar phi) of a real potential.

    This is the coefficient matrix of sqrt(-1) ddbar phi in the convention
    omega = sqrt(-1) g_{i jbar} dz_i dzbar_j.
    """
    return HermitianMatrixField(phi.chart, phi.chart.complex_hessian(phi.values))


def min_eigenvalue(field):
    """Smallest eigenvalue over all nodes of a Hermitian matrix field."""
    return herm_eig_bounds(field.values)[0]


def require_positive(field, what="metric"):
    low = min_eigenvalue(field)
    if not low > 0.0:
        raise NotPositiveDefinite(f"{what} has min eigenvalue {low:.3e}")


def _resized_chart(chart, factor):
    # the chart with ``factor`` (2 or 1/2) times the nodes along each active axis
    res = tuple(
        int(r * factor) if a in chart.active_axes else r for a, r in enumerate(chart.resolution)
    )
    return TorusChart(chart.n, res, chart.periods, chart.active_axes)


def _resized_field(field, chart, resize):
    # ``field`` on ``chart``, each of its real arrays (a Hermitian field's
    # components, any other field's values) mapped by ``resize``
    if isinstance(field, HermitianMatrixField):
        return type(field).from_components(chart, [resize(p) for p in field.parts])
    return type(field)(chart, resize(field.values))


def refine_chart(chart):
    """The chart with twice the nodes along each active axis."""
    return _resized_chart(chart, 2)


def refine_field(field):
    """Fourier interpolation of a field onto the grid of `refine_chart`; a
    Hermitian field is refined one real component at a time."""
    chart = field.chart
    fine = refine_chart(chart)
    return _resized_field(field, fine, lambda values: _refine_real(chart, fine, values))


def _refine_real(chart, fine, values):
    # zero-pad the half spectrum of a real field from m to 2m modes along
    # each active axis, splitting the Nyquist bin symmetrically between
    # wavenumbers m/2 and -m/2; the halved last axis stores only m/2
    spec = chart.rfft(values)
    last = chart.active_axes[-1]
    for a in chart.active_axes:
        half = chart.shape[a] // 2
        src = np.moveaxis(spec, a, 0)
        padded = np.zeros((fine.half_shape[a],) + src.shape[1:], dtype=complex)
        padded[:half] = src[:half]
        padded[half] = 0.5 * src[half]
        if a != last:
            padded[1 - half:] = src[1 - half:]
            padded[-half] = padded[half]
        spec = np.moveaxis(padded, 0, a)
    return fine.irfft(spec * (fine.grid_count / chart.grid_count))


def coarsen_chart(chart):
    """The chart with half the nodes along each active axis."""
    return _resized_chart(chart, 0.5)


def coarsen_field(field):
    """Injection onto the grid of `coarsen_chart`: every other node along
    each active axis, so ``coarsen_field(refine_field(f))`` is ``f``; a
    Hermitian field keeps every other node of each real component."""
    chart = field.chart
    keep = tuple(
        slice(None, None, 2) if a in chart.active_axes else slice(None)
        for a in range(chart.naxes)
    )
    return _resized_field(field, coarsen_chart(chart), lambda values: values[keep])


# -- Hopf sample sets ---------------------------------------------------------


class HopfSampleSet:
    """Finite point sample in the fundamental annulus of a Hopf manifold.

    The manifold is (C^n \\ 0) / (z ~ alpha z) with |alpha_1| = ... =
    |alpha_n| != 1; points live in min(1, |alpha_1|) <= |z| < max(1, |alpha_1|).
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
        if not (math.isfinite(alpha_modulus) and alpha_modulus > 0.0):
            raise ValueError(f"|alpha| must be finite and positive, got {alpha_modulus!r}")
        if count < 1:
            raise ValueError(f"the point count must be at least 1, got {count}")
        rng = np.random.default_rng(seed)
        alpha = np.full(n, alpha_modulus) * np.exp(
            2j * np.pi * rng.random(n)
        )
        v = rng.normal(size=(count, 2 * n))
        v /= np.linalg.norm(v, axis=1)[:, None]
        dirs = v[:, :n] + 1j * v[:, n:]
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = np.exp(rng.random(count) * np.log(alpha_modulus))
        lo, hi = sorted((1.0, alpha_modulus))
        radii = np.clip(radii, lo, hi * (1 - 1e-9))
        return cls(alpha, radii[:, None] * dirs)
