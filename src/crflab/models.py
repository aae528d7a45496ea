"""Closed-form Hopf geometry, its pointwise identity chain, and torus recipes.

On the Hopf manifold (C^n \\ 0)/(z ~ alpha z) the round metric
g_H = delta_{ij}/r^2 has an explicit flow solution

    g(t) = (1/r^2) ((1 - n t) delta_{ij} + n t zbar_i z_j / r^2),
    det g(t) = (1 - n t)^{n-1} / r^{2n},

valid on [0, 1/n), with t-independent Ricci form
(n/r^2)(delta_{ij} - zbar_i z_j / r^2) and rank-one limit zbar_i z_j / r^4.
All Hopf computations here are pointwise on sample sets: the relevant
statements are tensorial inequalities and closed-form identities, so no
quotient-manifold PDE discretization is involved.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NotPositiveDefinite, UnsupportedIntegrand
from .geometry import (
    HermitianMatrixField,
    ScalarField,
    herm_inv,
    i_ddbar,
    require_positive,
)


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


def hopf_metric_and_ricci(sample, t):
    """Closed-form (metric, Ricci) of the explicit solution at time t.

    The Ricci form is evaluated through the determinant formula
    -d dbar [ (n-1) log(1-nt) - n log r^2 ] = n d dbar log r^2, which is
    t-independent.
    """
    points = sample.points
    n = sample.n
    if not 0.0 <= t < 1.0 / n:
        raise ValueError(f"t = {t} outside the existence interval [0, 1/{n})")
    metric = _explicit_form(points, t)
    ricci = n * LogRadius(1.0).d2(points)
    return metric, ricci


def hopf_det(points, t):
    """(1 - n t)^{n-1} / r^{2n}."""
    n = points.shape[-1]
    return (1.0 - n * t) ** (n - 1) / _r2(points) ** n


# -- closed-form derivative stacks of the explicit solution --------------------


def hopf_dbar_metric(points, t):
    """d_lbar ghat_{i jbar}; values [..., l, i, j]."""
    n = points.shape[-1]
    r2 = _r2(points)[..., None, None, None]
    z = points
    zb = np.conj(points)
    zl = z[..., :, None, None]
    zbi = zb[..., None, :, None]
    zj = z[..., None, None, :]
    nt = n * t
    bracket = (1.0 - nt) * np.eye(n)[None, :, :] + (2.0 * nt / r2) * zbi * zj
    d_il = np.eye(n)[:, :, None]  # delta_{il} laid out as [l, i, j]
    return -(zl / r2 ** 2) * bracket + (nt / r2 ** 2) * zj * d_il


def hopf_d_metric(points, t):
    """d_k ghat_{i jbar} = conj(d_kbar ghat_{j ibar}); values [..., k, i, j]."""
    return np.conj(np.swapaxes(hopf_dbar_metric(points, t), -1, -2))


def hopf_ddbar_metric(points, t):
    """d_k d_lbar ghat_{i jbar}; values [..., k, l, i, j]."""
    n = points.shape[-1]
    r2 = _r2(points)[..., None, None, None, None]
    z = points
    zb = np.conj(points)
    r4 = r2 ** 2
    r6 = r2 ** 3
    r8 = r2 ** 4

    zbi = zb[..., None, None, :, None]
    zj = z[..., None, None, None, :]
    zbk = zb[..., :, None, None, None]
    zl = z[..., None, :, None, None]
    # Kronecker deltas laid out over the index block [k, l, i, j]
    d_ij = np.zeros((n, n, n, n))
    d_kl = np.zeros((n, n, n, n))
    d_jk = np.zeros((n, n, n, n))
    d_il = np.zeros((n, n, n, n))
    for a in range(n):
        d_ij[:, :, a, a] = 1.0
        d_kl[a, a, :, :] = 1.0
        d_jk[a, :, :, a] = 1.0
        d_il[:, a, a, :] = 1.0

    nt = n * t
    out = 6.0 * nt * zbi * zj * zbk * zl / r8
    out = out + (nt * d_jk * d_il - (1.0 - nt) * d_kl * d_ij) / r4
    out = out + 2.0 * zbk * zl * d_ij / r6
    out = out - (2.0 * nt / r6) * (
        d_kl * zbi * zj + d_jk * zbi * zl + d_il * zbk * zj + d_ij * zbk * zl
    )
    return out


# -- test potentials with hand-coded derivatives -------------------------------


class HopfPotential:
    """Closed-form potential on C^n \\ 0 with derivatives through order four.

    Derivative layouts:
        d1[..., i]          = d_i phi
        d2[..., i, j]       = d_i d_jbar phi
        d3[..., i, k, l]    = d_i d_k d_lbar phi   (symmetric in i, k)
        d4[..., i, j, k, l] = d_i d_jbar d_k d_lbar phi
    """

    def value(self, points):
        raise NotImplementedError

    def d1(self, points):
        raise NotImplementedError

    def d2(self, points):
        raise NotImplementedError

    def d3(self, points):
        raise NotImplementedError

    def d4(self, points):
        raise NotImplementedError


class ZeroPotential(HopfPotential):
    def value(self, points):
        return np.zeros(points.shape[:-1])

    def d1(self, points):
        return np.zeros(points.shape, dtype=complex)

    def d2(self, points):
        n = points.shape[-1]
        return np.zeros(points.shape[:-1] + (n, n), dtype=complex)

    def d3(self, points):
        n = points.shape[-1]
        return np.zeros(points.shape[:-1] + (n, n, n), dtype=complex)

    def d4(self, points):
        n = points.shape[-1]
        return np.zeros(points.shape[:-1] + (n, n, n, n), dtype=complex)


class ReBilinear(HopfPotential):
    """phi = c Re(z_a zbar_b), a != b; constant complex Hessian."""

    def __init__(self, c, a=0, b=1):
        self.c, self.a, self.b = float(c), a, b

    def value(self, points):
        return self.c * (points[..., self.a] * np.conj(points[..., self.b])).real

    def d1(self, points):
        out = np.zeros(points.shape, dtype=complex)
        out[..., self.a] += 0.5 * self.c * np.conj(points[..., self.b])
        out[..., self.b] += 0.5 * self.c * np.conj(points[..., self.a])
        return out

    def d2(self, points):
        n = points.shape[-1]
        out = np.zeros(points.shape[:-1] + (n, n), dtype=complex)
        out[..., self.a, self.b] = 0.5 * self.c
        out[..., self.b, self.a] = 0.5 * self.c
        return out

    def d3(self, points):
        n = points.shape[-1]
        return np.zeros(points.shape[:-1] + (n, n, n), dtype=complex)

    def d4(self, points):
        n = points.shape[-1]
        return np.zeros(points.shape[:-1] + (n, n, n, n), dtype=complex)


class RadiusSquared(HopfPotential):
    """phi = c r^2."""

    def __init__(self, c):
        self.c = float(c)

    def value(self, points):
        return self.c * _r2(points)

    def d1(self, points):
        return self.c * np.conj(points)

    def d2(self, points):
        n = points.shape[-1]
        return self.c * np.broadcast_to(
            np.eye(n, dtype=complex), points.shape[:-1] + (n, n)
        ).copy()

    def d3(self, points):
        n = points.shape[-1]
        return np.zeros(points.shape[:-1] + (n, n, n), dtype=complex)

    def d4(self, points):
        n = points.shape[-1]
        return np.zeros(points.shape[:-1] + (n, n, n, n), dtype=complex)


class LogRadius(HopfPotential):
    """phi = c log r^2; the building block of the round Hopf geometry."""

    def __init__(self, c):
        self.c = float(c)

    def value(self, points):
        return self.c * np.log(_r2(points))

    def d1(self, points):
        return self.c * np.conj(points) / _r2(points)[..., None]

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


class ModulusProduct(HopfPotential):
    """phi = c |z_a|^2 |z_b|^2, a != b."""

    def __init__(self, c, a=0, b=1):
        if a == b:
            raise ValueError("indices must differ")
        self.c, self.a, self.b = float(c), a, b

    def value(self, points):
        return self.c * (np.abs(points[..., self.a]) ** 2 * np.abs(points[..., self.b]) ** 2)

    def d1(self, points):
        a, b = self.a, self.b
        out = np.zeros(points.shape, dtype=complex)
        out[..., a] = np.conj(points[..., a]) * np.abs(points[..., b]) ** 2
        out[..., b] = np.abs(points[..., a]) ** 2 * np.conj(points[..., b])
        return self.c * out

    def d2(self, points):
        a, b = self.a, self.b
        n = points.shape[-1]
        z, zb = points, np.conj(points)
        out = np.zeros(points.shape[:-1] + (n, n), dtype=complex)
        out[..., a, a] = np.abs(z[..., b]) ** 2
        out[..., b, b] = np.abs(z[..., a]) ** 2
        out[..., a, b] = zb[..., a] * z[..., b]
        out[..., b, a] = z[..., a] * zb[..., b]
        return self.c * out

    def d3(self, points):
        a, b = self.a, self.b
        n = points.shape[-1]
        z, zb = points, np.conj(points)
        out = np.zeros(points.shape[:-1] + (n, n, n), dtype=complex)
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
        n = points.shape[-1]
        out = np.zeros(points.shape[:-1] + (n, n, n, n), dtype=complex)
        for (i, k) in ((a, b), (b, a)):
            for (l, j) in ((a, b), (b, a)):
                out[..., i, j, k, l] = 1.0
        return self.c * out


class SumPotential(HopfPotential):
    def __init__(self, parts):
        self.parts = list(parts)

    def value(self, points):
        return sum(p.value(points) for p in self.parts)

    def d1(self, points):
        return sum(p.d1(points) for p in self.parts)

    def d2(self, points):
        return sum(p.d2(points) for p in self.parts)

    def d3(self, points):
        return sum(p.d3(points) for p in self.parts)

    def d4(self, points):
        return sum(p.d4(points) for p in self.parts)


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


# -- verification reports -------------------------------------------------------


def verify_hopf_flow(sample, times, fd_step=1e-5):
    """Residual of d_t omega + Ric(omega(t)) = 0 for the explicit solution.

    Closed-form residual compares the coded t-derivative of the metric
    family with the determinant-route Ricci form; the oracle residual
    replaces the t-derivative with a central finite difference.
    """
    points = sample.points
    n = sample.n
    r2 = _r2(points)[..., None, None]
    closed = 0.0
    oracle = 0.0
    det_res = 0.0
    for t in times:
        if not 0.0 <= t < 1.0 / n:
            raise ValueError(f"t = {t} outside [0, 1/{n})")
        _, ricci = hopf_metric_and_ricci(sample, t)
        # coded t-derivative of the metric family, assembled independently
        dt_metric = (n / r2) * (_zz(points) / r2 - np.eye(n))
        closed = max(closed, float(np.max(np.abs(dt_metric + ricci))))
        h = fd_step
        if t - h >= 0.0:
            fd = (_explicit_form(points, t + h) - _explicit_form(points, t - h)) / (2 * h)
        else:
            # one-sided difference; the family is affine in t so still exact
            fd = (_explicit_form(points, t + h) - _explicit_form(points, t)) / h
        oracle = max(oracle, float(np.max(np.abs(fd + ricci))))
        det_res = max(
            det_res,
            float(
                np.max(
                    np.abs(
                        np.linalg.det(_explicit_form(points, t)).real
                        - hopf_det(points, t)
                    )
                )
            ),
        )
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

    ghat = _explicit_form(points, t)
    H = potential.d2(points)
    G = ghat + H
    lo = np.linalg.eigvalsh(G)[..., 0].min()
    if lo <= 0.0:
        raise NotPositiveDefinite(f"omega has min eigenvalue {lo:.3e}")
    Gi = herm_inv(G)

    # d_k g_{i jbar} = d_k ghat_{i jbar} + d3[k, i, j]
    Dg = hopf_d_metric(points, t) + potential.d3(points)
    Dbarg = np.conj(np.swapaxes(Dg, -1, -2))
    DDghat = hopf_ddbar_metric(points, t)
    DDg = DDghat + potential.d4(points)  # [k, l, i, j]
    Dbarghat = hopf_dbar_metric(points, t)

    ricH = hopf_ricci(points)
    tr_H_omega = (r2 * np.einsum("mkk->m", G)).real
    tr_omega_H = (np.einsum("mii->m", Gi) / r2).real
    tr_omega_ricH = np.einsum("mji,mij->m", Gi, ricH).real
    q = np.einsum("mji,mi,mj->m", Gi, zb, z).real / r2 ** 2

    # (d_t - Delta) tr_{g_H} omega, raw assembly
    dt_tr = -r2 * np.einsum("mjp,mqi,mkpq,mkij->m", Gi, Gi, Dg, Dbarg) + r2 * np.einsum(
        "mji,mkkij->m", Gi, DDg
    )
    piece1 = np.einsum("mii->m", Gi) * np.einsum("mkk->m", G)
    piece2 = r2 * np.einsum("mji,mijkk->m", Gi, DDg)
    piece3 = 2.0 * np.einsum("mji,mi,mjkk->m", Gi, zb, Dbarg).real
    lap_tr = piece1 + piece2 + piece3
    lhs_chain = (dt_tr - lap_tr).real

    # (a): displayed four-term right side
    ref_diff = r2 * (
        np.einsum("mji,mkkij->m", Gi, DDghat) - np.einsum("mji,mijkk->m", Gi, DDghat)
    )
    rhs_a = (
        -piece1
        + ref_diff
        - piece3
        - r2 * np.einsum("mjp,mqi,mkpq,mkij->m", Gi, Gi, Dg, Dbarg)
    ).real
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

_INTEGRANDS = ("omega2", "omega_ric", "ric2")


def _mixed_determinant(a, b):
    """m(a,b) with integral a ^ b = 4 * integral m dLeb for n = 2."""
    return (
        a[..., 0, 0] * b[..., 1, 1]
        + a[..., 1, 1] * b[..., 0, 0]
        - a[..., 0, 1] * b[..., 1, 0]
        - a[..., 1, 0] * b[..., 0, 1]
    ).real


def integrate_hopf(alpha_modulus, integrand, order=32):
    """Integral of a (2,2)-form over the fundamental annulus 1 <= |z| < R.

    Tensor-product Gauss-Legendre in (log r, chi, phi1, phi2) with
    z = e^u (cos(chi) e^{i phi1}, sin(chi) e^{i phi2}),
    dLeb = e^{4u} du cos(chi) sin(chi) dchi dphi1 dphi2.
    """
    if integrand not in _INTEGRANDS:
        raise UnsupportedIntegrand(f"integrand must be one of {_INTEGRANDS}")
    R = float(alpha_modulus)
    if R < 1.0:
        R = 1.0 / R
    xs, ws = leggauss(order)

    u = 0.5 * np.log(R) * (xs + 1.0)
    wu = ws * 0.5 * np.log(R)
    chi = 0.25 * np.pi * (xs + 1.0)
    wchi = ws * 0.25 * np.pi
    ang = np.pi * (xs + 1.0)
    wang = ws * np.pi

    total = 0.0
    cos_chi = np.cos(chi)
    sin_chi = np.sin(chi)
    e1 = np.exp(1j * ang)
    for iu in range(order):
        rad = np.exp(u[iu])
        z1 = rad * cos_chi[:, None, None] * e1[None, :, None] * np.ones((1, 1, order))
        z2 = rad * sin_chi[:, None, None] * np.ones((1, order, 1)) * e1[None, None, :]
        pts = np.stack([z1, z2], axis=-1).reshape(-1, 2)
        gH = hopf_round_metric(pts)
        ric = hopf_ricci(pts)
        if integrand == "omega2":
            dens = _mixed_determinant(gH, gH)
        elif integrand == "omega_ric":
            dens = _mixed_determinant(gH, ric)
        else:
            dens = _mixed_determinant(ric, ric)
        dens = dens.reshape(order, order, order)
        w3 = (
            (cos_chi * sin_chi * wchi)[:, None, None]
            * wang[None, :, None]
            * wang[None, None, :]
        )
        total += wu[iu] * np.exp(4.0 * u[iu]) * float(np.sum(dens * w3))
    return 4.0 * total


def hopf_surface_data(alpha_modulus, order=32):
    """Intersection numbers of the n=2 Hopf manifold from quadrature."""
    return {
        "vol0": integrate_hopf(alpha_modulus, "omega2", order),
        "pairing": integrate_hopf(alpha_modulus, "omega_ric", order),
        "c1sq": integrate_hopf(alpha_modulus, "ric2", order),
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

    def potential(self, chart):
        phi = np.zeros(chart.shape)
        for p in self.perturbations:
            phi = phi + p.waveform(chart)
        return ScalarField(chart, phi)

    def build(self, chart):
        base = np.asarray(self.base, dtype=complex)
        if self.kahler:
            g = HermitianMatrixField(
                chart,
                base + i_ddbar(self.potential(chart)).values,
            )
        else:
            values = np.broadcast_to(
                base, chart.shape + (chart.n, chart.n)
            ).astype(complex).copy()
            for p in self.perturbations:
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


def random_verification_triple(rng, n=2, scale=0.1, sharpness=1.18, axes=None):
    """Seeded (g0, ghat, phi) recipes for identity-certification runs.

    Each metric mixes a few low cosine modes with one peaked hump whose
    Fourier tail makes truncation error visible on coarse grids, so the
    spectral convergence of the identity residuals is observable; phi is a
    small band-limited potential plus a weak hump, scaled to keep
    omega = omega_0 + i ddbar phi positive.
    """
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
