"""Closed-form Hopf geometry, its pointwise identity chain, and torus recipes.

On the Hopf manifold (C^n \\ 0)/(z ~ alpha z) the round metric
g_H = delta_{ij}/r^2 has an explicit flow solution

    g(t) = (1/r^2) ((1 - n t) delta_{ij} + n t zbar_i z_j / r^2),
    det g(t) = (1 - n t)^{n-1} / r^{2n},

valid on [0, 1/n), with t-independent Ricci form
(n/r^2)(delta_{ij} - zbar_i z_j / r^2) and rank-one limit zbar_i z_j / r^4.
The metric, determinant and Ricci form are coded in closed form; the
derivative stacks of g(t) that the trace chain reads come from
`hopf_reference_stacks`, as the round metric's plus those of the potential
-n t log r^2 (`LogRadius`), whose stacks are checked against finite
differences in the tests. All Hopf computations here are pointwise on
sample sets: the relevant statements are tensorial inequalities and
closed-form identities, so no quotient-manifold PDE discretization is
involved. The n = 2 intersection numbers integrate U(2)-invariant densities:
Gauss-Legendre in log r along the ray z = (r, 0), the angles in closed form.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite, UnsupportedIntegrand
from .geometry import (
    HermitianMatrixField,
    ScalarField,
    herm_eig_bounds,
    herm_inv,
    herm_mixed_det,
    i_ddbar,
    require_positive,
)

# step of the central difference in t that checks the closed-form flow
_FD_STEP = 1e-5
# Gauss-Legendre nodes in log r of the radial fundamental-annulus quadrature
_QUADRATURE_ORDER = 32


def _r2(points):
    return np.sum(np.abs(points) ** 2, axis=-1)


def _zz(points):
    """Outer matrix zbar_i z_j, Hermitian, rank one."""
    return np.conj(points[..., :, None]) * points[..., None, :]


def hopf_round_metric(points):
    n = points.shape[-1]
    r2 = _r2(points)
    return np.eye(n) / r2[..., None, None]


def hopf_ricci(points):
    """Ricci form of the round metric: (n/r^2)(delta - zbar z / r^2)."""
    n = points.shape[-1]
    r2 = _r2(points)
    return (n / r2[..., None, None]) * (np.eye(n) - _zz(points) / r2[..., None, None])


def hopf_metric_at(points, t):
    """Explicit flow metric g(t) = g_H - t Ric(g_H); requires 0 <= t < 1/n."""
    n = points.shape[-1]
    if not 0.0 <= t < 1.0 / n:
        raise ValueError(f"t = {t} outside the existence interval [0, 1/{n})")
    return _explicit_form(points, t)


def _explicit_form(points, t):
    n = points.shape[-1]
    r2 = _r2(points)[..., None, None]
    return ((1.0 - n * t) * np.eye(n) + n * t * _zz(points) / r2) / r2


def hopf_limit_form(points):
    """Rank-one limit form zbar_i z_j / r^4 at t = 1/n."""
    r2 = _r2(points)[..., None, None]
    return _zz(points) / r2 ** 2


def hopf_det(points, t):
    """(1 - n t)^{n-1} / r^{2n}."""
    n = points.shape[-1]
    return (1.0 - n * t) ** (n - 1) / _r2(points) ** n


def hopf_reference_stacks(points, t):
    """(ghat, d_k ghat_{i jbar}, d_k d_lbar ghat_{i jbar}) of the explicit
    solution, laid out [..., i, j], [..., k, i, j] and [..., k, l, i, j].

    ghat is the closed form; since ghat_t = g_H + i ddbar(-n t log r^2),
    its derivative stacks are the round metric's plus those of the
    potential LogRadius(-n t).
    """
    n = points.shape[-1]
    r2 = _r2(points)[..., None, None]
    eye = np.eye(n)
    pot = LogRadius(-n * t)
    # d_k of delta_ij / r^2 is -delta_ij zbar_k / r^4, and d_k d_lbar of it
    # is delta_ij (2 zbar_k z_l / r^2 - delta_kl) / r^4
    d_round = -eye * np.conj(points)[..., :, None, None] / r2[..., None] ** 2
    kl = (2.0 / r2) * _zz(points) - eye
    dd_round = kl[..., None, None] * eye / r2[..., None, None] ** 2
    return (
        _explicit_form(points, t),
        d_round + pot.d3(points),
        dd_round + pot.d4(points),
    )


# -- test potentials with hand-coded derivatives -------------------------------
# A potential is a closed-form function on C^n \ 0 with ``value(points)`` and
# derivatives through order four, in these layouts:
#     d2[..., i, j]       = d_i d_jbar phi
#     d3[..., i, k, l]    = d_i d_k d_lbar phi   (symmetric in i, k)
#     d4[..., i, j, k, l] = d_i d_jbar d_k d_lbar phi


def _zero_stack(points, rank):
    """Zeros with ``rank`` trailing indices of size n at each point."""
    n = points.shape[-1]
    return np.zeros(points.shape[:-1] + (n,) * rank, dtype=complex)


class _QuadraticPotential:
    """A potential of degree two in (z, zbar): its d3 and d4 vanish."""

    def d3(self, points):
        return _zero_stack(points, 3)

    def d4(self, points):
        return _zero_stack(points, 4)


class ZeroPotential(_QuadraticPotential):
    def value(self, points):
        return np.zeros(points.shape[:-1])

    def d2(self, points):
        return _zero_stack(points, 2)


class ReBilinear(_QuadraticPotential):
    """phi = c Re(z_a zbar_b), a != b; constant complex Hessian."""

    def __init__(self, c, a=0, b=1):
        self.c, self.a, self.b = float(c), a, b

    def value(self, points):
        return self.c * (points[..., self.a] * np.conj(points[..., self.b])).real

    def d2(self, points):
        out = _zero_stack(points, 2)
        out[..., self.a, self.b] = 0.5 * self.c
        out[..., self.b, self.a] = 0.5 * self.c
        return out


class LogRadius:
    """phi = c log r^2; the building block of the round Hopf geometry."""

    def __init__(self, c):
        self.c = float(c)

    def value(self, points):
        return self.c * np.log(_r2(points))

    def d2(self, points):
        n = points.shape[-1]
        r2 = _r2(points)[..., None, None]
        return self.c * (np.eye(n) / r2 - _zz(points) / r2 ** 2)

    def d3(self, points):
        n = points.shape[-1]
        r2 = _r2(points)
        z = points
        zb = np.conj(points)
        eye = np.eye(n)
        r4 = (r2 ** 2)[..., None, None, None]
        r6 = (r2 ** 3)[..., None, None, None]
        zbi = zb[..., :, None, None]
        zbk = zb[..., None, :, None]
        zl = z[..., None, None, :]
        d_kl = eye[None, :, :]
        d_il = np.zeros((n, n, n))
        for a in range(n):
            d_il[a, :, a] = 1.0
        return self.c * (
            -d_kl * zbi / r4 - d_il * zbk / r4 + 2.0 * zbi * zbk * zl / r6
        )

    def d4(self, points):
        n = points.shape[-1]
        r2 = _r2(points)
        z = points
        zb = np.conj(points)
        eye = np.eye(n)
        r4 = (r2 ** 2)[..., None, None, None, None]
        r6 = (r2 ** 3)[..., None, None, None, None]
        r8 = (r2 ** 4)[..., None, None, None, None]
        zbi = zb[..., :, None, None, None]
        zj = z[..., None, :, None, None]
        zbk = zb[..., None, None, :, None]
        zl = z[..., None, None, None, :]
        one = np.ones((n, n))
        d_ij = np.einsum("ij,kl->ijkl", eye, one)
        d_kl = np.einsum("ij,kl->ijkl", one, eye)
        d_il = np.einsum("il,jk->ijkl", eye, one)
        d_kj = np.einsum("kj,il->ijkl", eye, one)
        return self.c * (
            -(d_kl * d_ij + d_il * d_kj) / r4
            + 2.0 * (d_kl * zbi * zj + d_il * zbk * zj + d_ij * zbk * zl + d_kj * zbi * zl) / r6
            - 6.0 * zbi * zbk * zj * zl / r8
        )


# -- verification reports -------------------------------------------------------


def verify_hopf_flow(sample, times):
    """Residual of d_t omega + Ric(omega(t)) = 0 for the explicit solution.

    Closed-form residual compares the coded t-derivative of the metric
    family with the determinant-route Ricci form; the oracle residual
    replaces the t-derivative with a central finite difference.
    """
    points = sample.points
    n = sample.n
    r2 = _r2(points)[..., None, None]
    # the determinant-route Ricci form n i ddbar log r^2, which is t-independent
    ricci = n * LogRadius(1.0).d2(points)
    # coded t-derivative of the metric family, assembled independently
    dt_metric = (n / r2) * (_zz(points) / r2 - np.eye(n))
    closed = float(np.max(np.abs(dt_metric + ricci)))
    oracle = 0.0
    det_res = 0.0
    for t in times:
        metric = hopf_metric_at(points, t)
        h = _FD_STEP
        if t - h >= 0.0:
            fd = (_explicit_form(points, t + h) - _explicit_form(points, t - h)) / (2 * h)
        else:
            # one-sided difference; the family is affine in t so still exact
            fd = (_explicit_form(points, t + h) - metric) / h
        oracle = max(oracle, float(np.max(np.abs(fd + ricci))))
        det = np.linalg.det(metric).real
        det_res = max(det_res, float(np.max(np.abs(det - hopf_det(points, t)))))
    return {
        "closed_form_residual": closed,
        "fd_oracle_residual": oracle,
        "det_identity_residual": det_res,
    }


def verify_deck_invariance(sample, t):
    """Pullback of the closed forms under z -> alpha z equals their value.

    Well-definedness on the quotient: (f^* X)_{ab}(z) =
    alpha_a conj(alpha_b) X_{ab}(alpha z) must reproduce X_{ab}(z).
    """
    points = sample.points
    alpha = sample.alpha
    scale = alpha[:, None] * np.conj(alpha[None, :])
    moved = points * alpha[None, :]
    res = 0.0
    for form in (
        lambda p: _explicit_form(p, t),
        hopf_ricci,
        hopf_limit_form,
    ):
        pulled = scale * form(moved)
        res = max(res, float(np.max(np.abs(pulled - form(points)))))
    return res


@dataclass
class HopfChainReport:
    """Residuals of the pointwise trace evolution chain on a Hopf sample."""

    evolution_identity: float  # (a)
    double_trace: float  # (b)
    reference_curvature: float  # (c)
    antisymmetric_pairing: float  # (d)
    inequality_violation: float  # (e), max(0, lhs - rhs)

    def max_equality_residual(self):
        return max(
            self.evolution_identity,
            self.double_trace,
            self.reference_curvature,
            self.antisymmetric_pairing,
        )


def verify_hopf_trace_chain(sample, t, potential=None):
    """Pointwise certification of the trace evolution chain for
    omega = ghat_t + i ddbar phi on a Hopf sample set.

    Checks, with d_t g substituted from the flow:
      (a) the evolution identity for (d_t - Delta) tr_{g_H} g,
      (b) the double-trace identity for the g_H-inverse Hessian term,
      (c) the reference-curvature difference identity,
      (d) the antisymmetric pairing term,
      (e) the final inequality against (2/n - tr_{g_H} g / n) tr_g Ric(g_H).
    """
    if potential is None:
        potential = ZeroPotential()
    points = sample.points
    n = sample.n
    r2 = _r2(points)
    z = points
    zb = np.conj(points)

    ghat, Dghat, DDghat = hopf_reference_stacks(points, t)
    G = ghat + potential.d2(points)
    lo = herm_eig_bounds(G)[0]
    if not lo > 0.0:
        raise NotPositiveDefinite(f"omega has min eigenvalue {lo:.3e}")
    Gi = herm_inv(G)

    # d_k g_{i jbar} = d_k ghat_{i jbar} + d3[k, i, j]; the d_lbar stacks
    # are conjugate transposes of the d_k ones
    Dg = Dghat + potential.d3(points)
    Dbarg = np.conj(np.swapaxes(Dg, -1, -2))
    DDg = DDghat + potential.d4(points)  # [k, l, i, j]
    Dbarghat = np.conj(np.swapaxes(Dghat, -1, -2))

    ricH = hopf_ricci(points)
    tr_H_omega = (r2 * np.einsum("mkk->m", G)).real
    tr_omega_H = (np.einsum("mii->m", Gi) / r2).real
    tr_omega_ricH = np.einsum("mji,mij->m", Gi, ricH).real
    q = np.einsum("mji,mi,mj->m", Gi, zb, z).real / r2 ** 2

    # (d_t - Delta) tr_{g_H} omega, raw assembly
    grad_sq = np.einsum("mjp,mqi,mkpq,mkij->m", Gi, Gi, Dg, Dbarg)
    dt_tr = -r2 * grad_sq + r2 * np.einsum("mji,mkkij->m", Gi, DDg)
    piece1 = np.einsum("mii->m", Gi) * np.einsum("mkk->m", G)
    piece2 = r2 * np.einsum("mji,mijkk->m", Gi, DDg)
    piece3 = 2.0 * np.einsum("mji,mi,mjkk->m", Gi, zb, Dbarg).real
    lap_tr = piece1 + piece2 + piece3
    lhs_chain = (dt_tr - lap_tr).real

    # (a): displayed four-term right side
    ref_diff = r2 * (
        np.einsum("mji,mkkij->m", Gi, DDghat) - np.einsum("mji,mijkk->m", Gi, DDghat)
    )
    rhs_a = (-piece1 + ref_diff - piece3 - r2 * grad_sq).real
    res_a = float(np.max(np.abs(lhs_chain - rhs_a)))

    # (b): double trace
    res_b = float(np.max(np.abs(piece1.real - tr_H_omega * tr_omega_H)))

    # (c): reference-curvature difference
    rhs_c = tr_omega_ricH - n * q - (n - 2.0) * tr_omega_H
    res_c = float(np.max(np.abs(ref_diff.real - rhs_c)))

    # (d): antisymmetric pairing of d g_H^{-1} against the reference family
    inner = np.einsum("mji,mi,mjkk->m", Gi, zb, Dbarghat) - np.einsum(
        "mji,mi,mkkj->m", Gi, zb, Dbarghat
    )
    lhs_d = -2.0 * inner.real
    rhs_d = 2.0 * (n - 1.0) * q
    res_d = float(np.max(np.abs(lhs_d - rhs_d)))

    # (e): maximum-principle inequality
    rhs_e = (2.0 / n - tr_H_omega / n) * tr_omega_ricH
    viol = float(np.max(lhs_chain - rhs_e))
    return HopfChainReport(
        evolution_identity=res_a,
        double_trace=res_b,
        reference_curvature=res_c,
        antisymmetric_pairing=res_d,
        inequality_violation=max(viol, 0.0),
    )


# -- fundamental-domain quadrature (n = 2) --------------------------------------

# the pair (a, b) of each integrand a ^ b
_INTEGRANDS = {
    "omega2": (hopf_round_metric, hopf_round_metric),
    "omega_ric": (hopf_round_metric, hopf_ricci),
    "ric2": (hopf_ricci, hopf_ricci),
}


def integrate_hopf(alpha_modulus, integrand):
    """Integral of a ^ b = 4 m(a, b) dLeb over the fundamental annulus between
    |z| = 1 and |z| = R = alpha_modulus (finite, positive and not 1). In
    z = e^u (cos(chi) e^{i phi1}, sin(chi) e^{i phi2}), dLeb is
    e^{4u} du cos(chi) sin(chi) dchi dphi1 dphi2, whose angles give (1/2)(2 pi)^2.
    """
    if integrand not in _INTEGRANDS:
        raise UnsupportedIntegrand(f"integrand must be one of {tuple(_INTEGRANDS)}")
    R = float(alpha_modulus)
    if not (np.isfinite(R) and R > 0.0 and R != 1.0):
        raise ValueError(f"alpha modulus must be finite, positive and not 1, got {R}")
    log_R = abs(np.log(R))
    # imported here: numpy.polynomial costs every other caller about 5 ms
    from numpy.polynomial.legendre import leggauss

    xs, ws = leggauss(_QUADRATURE_ORDER)
    u = 0.5 * log_R * (xs + 1.0)
    ray = np.exp(u)[:, None] * np.array([1.0, 0.0])
    a, b = (form(ray) for form in _INTEGRANDS[integrand])
    radial = 0.5 * log_R * np.sum(ws * np.exp(4.0 * u) * herm_mixed_det(a, b))
    return 4.0 * 0.5 * (2.0 * np.pi) ** 2 * float(radial)


def hopf_surface_data(alpha_modulus):
    """Intersection numbers of the n=2 Hopf manifold from quadrature."""
    return {
        "vol0": integrate_hopf(alpha_modulus, "omega2"),
        "pairing": integrate_hopf(alpha_modulus, "omega_ric"),
        "c1sq": integrate_hopf(alpha_modulus, "ric2"),
    }


# -- torus metric recipes --------------------------------------------------------


@dataclass
class Perturbation:
    """One wave added to a metric component (or to the potential if Kähler).

    profile "cos": amplitude * cos(theta + phase);
    profile "peaked": amplitude * normalized (s - cos(theta + phase))^{-1}
    hump whose Fourier tail decays like (s - sqrt(s^2-1))^k, used to make
    spectral convergence observable on coarse grids.
    """

    i: int
    j: int
    amplitude: float
    wavevector: tuple
    phase: float = 0.0
    profile: str = "cos"
    sharpness: float = 1.25

    def waveform(self, chart):
        if len(self.wavevector) > chart.naxes:
            raise ValueError(f"wavevector {self.wavevector} has more than {chart.naxes} entries")
        theta = np.zeros(chart.shape)
        for axis, k in enumerate(self.wavevector):
            if k == 0:
                continue
            x = chart.axis_coordinates(axis)
            theta = theta + 2.0 * np.pi * k * x / chart.periods[axis]
        theta = theta + self.phase
        if self.profile == "cos":
            return self.amplitude * np.cos(theta)
        if self.profile == "peaked":
            s = self.sharpness
            root = np.sqrt(s * s - 1.0)
            p = root / (s - np.cos(theta))
            peak = root / (s - 1.0)
            return self.amplitude * (p - 1.0) / (peak - 1.0)
        raise ValueError(f"unknown profile {self.profile!r}")


@dataclass
class TorusMetricRecipe:
    """Constant Hermitian base plus closed-form waves, or a Kähler potential.

    With ``kahler`` set, the perturbations define a scalar potential and the
    metric is base + i ddbar(potential); the component indices are ignored.
    """

    base: np.ndarray
    perturbations: list = field(default_factory=list)
    kahler: bool = False

    def build(self, chart):
        base = np.asarray(self.base, dtype=complex)
        if self.kahler:
            g = HermitianMatrixField(
                chart,
                base + i_ddbar(ScalarRecipe(self.perturbations).build(chart)).values,
            )
        else:
            values = np.broadcast_to(
                base, chart.shape + (chart.n, chart.n)
            ).astype(complex).copy()
            for p in self.perturbations:
                if not (0 <= p.i < chart.n and 0 <= p.j < chart.n):
                    raise ValueError(f"perturbation of g[{p.i}, {p.j}] on an n = {chart.n} chart")
                wave = p.waveform(chart)
                if p.i == p.j:
                    values[..., p.i, p.i] += wave
                else:
                    values[..., p.i, p.j] += wave
                    values[..., p.j, p.i] += wave
            g = HermitianMatrixField(chart, values)
        require_positive(g, what="recipe metric")
        return g


@dataclass
class ScalarRecipe:
    """Resolution-independent scalar field: a sum of perturbation waveforms."""

    perturbations: list = field(default_factory=list)

    def build(self, chart):
        vals = np.zeros(chart.shape)
        for p in self.perturbations:
            vals = vals + p.waveform(chart)
        return ScalarField(chart, vals)


def random_verification_triple(rng, n=2, axes=None):
    """Seeded (g0, ghat, phi) recipes for identity-certification runs.

    Each metric mixes a few low cosine modes with one peaked hump whose
    Fourier tail makes truncation error visible on coarse grids, so the
    spectral convergence of the identity residuals is observable; phi is a
    small band-limited potential plus a weak hump, scaled to keep
    omega = omega_0 + i ddbar phi positive.
    """
    scale, sharpness = 0.1, 1.18  # every triple's amplitude scale and hump sharpness
    if axes is None:
        axes = tuple(2 * i for i in range(n))
    naxes = 2 * n

    def metric_recipe():
        perts = []
        for i in range(n):
            for j in range(i, n):
                for _ in range(2):
                    wave = [0] * naxes
                    wave[axes[rng.integers(len(axes))]] = int(rng.integers(1, 4))
                    amp = scale * (0.3 + 0.7 * rng.random()) * (1.0 if i == j else 0.35)
                    perts.append(
                        Perturbation(i, j, amp, tuple(wave), float(2 * np.pi * rng.random()))
                    )
        wave = [0] * naxes
        wave[axes[rng.integers(len(axes))]] = 1
        perts.append(
            Perturbation(
                int(rng.integers(n)),
                int(rng.integers(n)),
                0.5 * scale,
                tuple(wave),
                float(2 * np.pi * rng.random()),
                profile="peaked",
                sharpness=sharpness + 0.04 * rng.random(),
            )
        )
        return TorusMetricRecipe(np.eye(n), perts)

    def phi_recipe():
        perts = []
        for _ in range(2):
            wave = [0] * naxes
            wave[axes[rng.integers(len(axes))]] = int(rng.integers(1, 3))
            perts.append(
                Perturbation(0, 0, 0.3 * scale * rng.random(), tuple(wave),
                             float(2 * np.pi * rng.random()))
            )
        wave = [0] * naxes
        wave[axes[rng.integers(len(axes))]] = 1
        perts.append(
            Perturbation(0, 0, 0.15 * scale, tuple(wave),
                         float(2 * np.pi * rng.random()),
                         profile="peaked", sharpness=sharpness + 0.06))
        return ScalarRecipe(perts)

    return metric_recipe(), metric_recipe(), phi_recipe()


def random_metric_recipe(rng, n, scale=0.15, peaked=True, kahler=False, axes=None):
    """Seeded random recipe: identity base, a few low modes, one peaked hump."""
    if axes is None:
        axes = tuple(2 * i for i in range(n))
    perts = []
    naxes = 2 * n
    for i in range(n):
        for j in range(i, n):
            amp = scale * (0.4 + 0.6 * rng.random()) * (1.0 if i == j else 0.4)
            for _ in range(2):
                wave = [0] * naxes
                wave[axes[rng.integers(len(axes))]] = int(rng.integers(1, 4))
                perts.append(
                    Perturbation(i, j, amp * rng.random(), tuple(wave), float(2 * np.pi * rng.random()))
                )
    if peaked:
        wave = [0] * naxes
        wave[axes[rng.integers(len(axes))]] = 1
        perts.append(
            Perturbation(
                int(rng.integers(n)),
                int(rng.integers(n)),
                0.35 * scale,
                tuple(wave),
                float(2 * np.pi * rng.random()),
                profile="peaked",
                sharpness=1.2 + 0.2 * rng.random(),
            )
        )
    return TorusMetricRecipe(np.eye(n), perts, kahler=kahler)
