import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from crflab.models import HopfPotential, _QuadraticPotential, _r2, _zero_stack
from crflab.surfaces import Divisor, SurfaceClassData

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def chart1():
    from crflab.geometry import TorusChart

    return TorusChart(1, 128, active_axes=(0,))


@pytest.fixture
def chart2():
    from crflab.geometry import TorusChart

    return TorusChart(2, 64, active_axes=(0, 2))


@pytest.fixture
def nonkahler_metric(chart2):
    """g_{1 1bar} depends on x_2, so the torsion does not vanish."""
    import numpy as np

    from crflab.geometry import HermitianMatrixField

    x2 = chart2.axis_coordinates(2)
    base = np.array([[1.4, 0.2 + 0.1j], [0.2 - 0.1j, 1.1]])
    vals = np.broadcast_to(base, chart2.shape + (2, 2)).astype(complex).copy()
    vals[..., 0, 0] = vals[..., 0, 0] + 0.2 * np.cos(x2) * np.ones(chart2.shape)
    return HermitianMatrixField(chart2, vals)


def bandlimited_scalar(chart, seed, modes=3, amplitude=0.1):
    """Random real trigonometric polynomial with |k| <= modes per axis."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(chart.shape)
    for _ in range(4):
        theta = np.zeros(chart.shape)
        for a in chart.active_axes:
            k = int(rng.integers(-modes, modes + 1))
            theta = theta + 2 * np.pi * k * chart.axis_coordinates(a) / chart.periods[a]
        vals = vals + amplitude * rng.random() * np.cos(theta + 2 * np.pi * rng.random())
    from crflab.geometry import ScalarField

    return ScalarField(chart, vals)


def rk4(rhs, phi, t, dt):
    """One classical RK4 step of d_t phi = rhs(phi, t)[0], the reference the
    exponential stepper is tested against."""
    k1, _ = rhs(phi, t)
    k2, _ = rhs(phi + 0.5 * dt * k1, t + 0.5 * dt)
    k3, _ = rhs(phi + 0.5 * dt * k2, t + 0.5 * dt)
    k4, _ = rhs(phi + dt * k3, t + dt)
    return phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- finite-difference oracle for Wirtinger derivatives -------------------------

_FD_W = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_FD_O = np.array([-2, -1, 1, 2])


def _fd_real_axis(f, points, axis, h, imag):
    shift = np.zeros(points.shape[-1], dtype=complex)
    shift[axis] = 1j * h if imag else h
    acc = None
    for w, o in zip(_FD_W, _FD_O):
        val = w * np.asarray(f(points + o * shift))
        acc = val if acc is None else acc + val
    return acc / h


def fd_dz(f, points, axis, h=1e-2):
    """Fourth-order finite-difference d/dz_axis of a pointwise function."""
    dx = _fd_real_axis(f, points, axis, h, False)
    dy = _fd_real_axis(f, points, axis, h, True)
    return 0.5 * (dx - 1j * dy)


def fd_dzbar(f, points, axis, h=1e-2):
    dx = _fd_real_axis(f, points, axis, h, False)
    dy = _fd_real_axis(f, points, axis, h, True)
    return 0.5 * (dx + 1j * dy)


def fd_hessian(f, points, h=1e-2):
    """Finite-difference complex Hessian d_i d_jbar f; values [..., i, j]."""
    n = points.shape[-1]
    out = np.zeros(points.shape[:-1] + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[..., i, j] = fd_dz(lambda q, j=j: fd_dzbar(f, q, j, h), points, i, h)
    return out


def count_transforms(monkeypatch):
    """Count the calls of each numpy.fft entry point from now on; returns
    the live Counter."""
    from collections import Counter

    calls = Counter()
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


# -- test-only field reports and the complex refinement oracle ------------------


def eigenvalue_range(field):
    """(min, max) eigenvalue over all nodes of a Hermitian matrix field."""
    from crflab.geometry import herm_eig_bounds

    return herm_eig_bounds(field.values)


def spectral_energy_report(field):
    """Fraction of non-mean spectral energy in the top third per active axis."""
    chart = field.chart
    spec = np.fft.fftn(field.values, axes=chart.active_axes)
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


def refine_values_complex(chart, values):
    """Fourier interpolation of grid-leading ``values`` (tensor indices
    allowed) onto the grid of `refine_chart` by complex zero padding of the
    full spectrum, the Nyquist bin split between wavenumbers m/2 and -m/2:
    the oracle of `refine_field`."""
    from crflab.geometry import refine_chart

    fine = refine_chart(chart)
    spec = np.fft.fftn(values, axes=chart.active_axes)
    for a in chart.active_axes:
        half = chart.shape[a] // 2
        src = np.moveaxis(spec, a, 0)
        padded = np.zeros((4 * half,) + src.shape[1:], dtype=complex)
        padded[:half] = src[:half]
        padded[1 - half:] = src[1 - half:]
        padded[half] = padded[-half] = 0.5 * src[half]
        spec = np.moveaxis(padded, 0, a)
    return np.fft.ifftn(spec * (fine.grid_count / chart.grid_count), axes=chart.active_axes)


# -- test-only identity: the curvature as a commutator of covariant derivatives --


def commutator_residual(g, X):
    """Max residual of [nabla_k, nabla_lbar] X^i = R_{k lbar j}^{   i} X^j
    for a vector field X (values [..., i]), from the tensors module's
    tensor-first Chern data of ``g``."""
    from crflab.tensors import _chern, _curvature, _tensor_first

    chart = g.chart
    G, _, Gamma = _chern(g)
    X = _tensor_first(chart, X)
    DbarGamma, _ = _curvature(chart, Gamma, G)

    # nabla_k X^i = d_k X^i + Gamma^i_{kj} X^j; barred slots are inert under
    # nabla_k of the Chern connection and unbarred ones under nabla_lbar
    covX = chart.grad(X) + np.einsum("ikj...,j...->ki...", Gamma, X)
    after = chart.grad(covX, conj=True)  # nabla_lbar nabla_k; [l, k, i]
    dbarX = chart.grad(X, conj=True)  # [l, i]
    before = chart.grad(dbarX)  # nabla_k nabla_lbar; [k, l, i]
    before += np.einsum("ikj...,lj...->kli...", Gamma, dbarX)
    lhs = before - np.swapaxes(after, 0, 1)
    # R_{k lbar j}^i X^j = -dbar_l Gamma^i_{kj} X^j
    rhs = -np.einsum("likj...,j...->kli...", DbarGamma, X)
    return float(np.max(np.abs(lhs - rhs)))


# -- test-only flow view: the reference metric the flow keeps as components ------


def reference_metric(scenario, t):
    """A flow scenario's reference metric ghat_t as a new matrix array, from
    the real components the scenario's stages combine."""
    from crflab.geometry import herm_from_components

    return herm_from_components(scenario._reference_parts(t), scenario.chart.shape)


# -- test-only Hopf potentials and surface data ----------------------------------
# inputs to the Hopf trace-chain checks and the maximal-time scaling law


class RadiusSquared(_QuadraticPotential):
    """phi = c r^2."""

    def __init__(self, c):
        self.c = float(c)

    def value(self, points):
        return self.c * _r2(points)

    def d2(self, points):
        n = points.shape[-1]
        return self.c * np.broadcast_to(
            np.eye(n, dtype=complex), points.shape[:-1] + (n, n)
        ).copy()


class ModulusProduct(HopfPotential):
    """phi = c |z_a|^2 |z_b|^2, a != b."""

    def __init__(self, c, a=0, b=1):
        if a == b:
            raise ValueError("indices must differ")
        self.c, self.a, self.b = float(c), a, b

    def value(self, points):
        return self.c * (np.abs(points[..., self.a]) ** 2 * np.abs(points[..., self.b]) ** 2)

    def d2(self, points):
        a, b = self.a, self.b
        z, zb = points, np.conj(points)
        out = _zero_stack(points, 2)
        out[..., a, a] = np.abs(z[..., b]) ** 2
        out[..., b, b] = np.abs(z[..., a]) ** 2
        out[..., a, b] = zb[..., a] * z[..., b]
        out[..., b, a] = z[..., a] * zb[..., b]
        return self.c * out

    def d3(self, points):
        a, b = self.a, self.b
        z, zb = points, np.conj(points)
        out = _zero_stack(points, 3)
        # d_i d_k phi = (delta_{ia} delta_{kb} + delta_{ib} delta_{ka}) zbar_a zbar_b
        # then d_lbar gives (delta_{la} zbar_b + delta_{lb} zbar_a)
        pref = np.ones(points.shape[:-1])
        out[..., a, b, a] = pref * zb[..., b]
        out[..., a, b, b] = zb[..., a] * pref
        out[..., b, a, a] = pref * zb[..., b]
        out[..., b, a, b] = zb[..., a] * pref
        return self.c * out

    def d4(self, points):
        a, b = self.a, self.b
        out = _zero_stack(points, 4)
        for (i, k) in ((a, b), (b, a)):
            for (l, j) in ((a, b), (b, a)):
                out[..., i, j, k, l] = 1.0
        return self.c * out


class SumPotential(HopfPotential):
    def __init__(self, parts):
        self.parts = list(parts)

    def value(self, points):
        return sum(p.value(points) for p in self.parts)

    def d2(self, points):
        return sum(p.d2(points) for p in self.parts)

    def d3(self, points):
        return sum(p.d3(points) for p in self.parts)

    def d4(self, points):
        return sum(p.d4(points) for p in self.parts)


def scale_data(data, lam):
    """Rescale the initial form by lambda > 0 (T scales by lambda)."""
    return SurfaceClassData(
        data.name,
        lam * lam * data.vol0,
        lam * data.pairing,
        data.c1sq,
        tuple(
            Divisor(d.name, d.d_self, d.d_dot_K, lam * d.omega0_vol)
            for d in data.divisors
        ),
        data.flags,
    )
