"""Connection, torsion, curvature, and numerical identity certification.

Conventions, with G[..., a, b] storing g_{a bbar}:

    inverse pairing      g^{jbar i}          = Gi[..., j, i]
    Christoffel symbols  Gamma^k_{ij}        = g^{qbar k} d_i g_{j qbar}
    torsion              T^k_{ij}            = Gamma^k_{ij} - Gamma^k_{ji}
    curvature            R_{k lbar i}^{   p} = - d_lbar Gamma^p_{ki}
    lowered curvature    R_{k lbar i jbar}   = g_{p jbar} R_{k lbar i}^{   p}
    Ricci form           Ric_{k lbar}        = - d_k d_lbar log det g
    Laplacian            Delta f             = g^{jbar i} d_i d_jbar f

The verification operations assemble both sides of each identity through
independent code paths (raw spectral derivatives of scalars on one side,
covariant tensor expressions on the other) and report max-norm residuals;
time derivatives along the flow are always substituted analytically from
d_t g = -Ric(g), never finite-differenced in time.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ClosednessViolated, NotPositiveDefinite
from .geometry import (
    HermitianMatrixField,
    ScalarField,
    herm_eig_bounds,
    herm_inv,
    herm_logdet,
    require_positive,
)

_CONDITION_FLAG = 1e8
# max-norm residual of d chi above which a reference form counts as not closed
_CLOSEDNESS_TOL = 1e-10


@dataclass
class ConnectionField:
    """Christoffel symbols Gamma^k_{ij}; values[..., k, i, j]."""

    chart: object
    values: np.ndarray


@dataclass
class TorsionField:
    """Torsion T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}; values[..., k, i, j]."""

    chart: object
    values: np.ndarray


@dataclass
class CurvatureField:
    """Curvature with raised and lowered last index.

    up[..., k, l, i, p] = R_{k lbar i}^{   p},
    low[..., k, l, i, j] = R_{k lbar i jbar}.
    """

    chart: object
    up: np.ndarray
    low: np.ndarray


@dataclass
class IdentityReport:
    """Flat record of one numerical identity check."""

    name: str
    residual: float
    grid: str
    tolerance: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self):
        return bool(self.residual <= self.tolerance)

    def lines(self):
        out = [
            f"identity = {self.name}",
            f"grid = {self.grid}",
            f"residual = {self.residual:.17g}",
            f"tolerance = {self.tolerance:.17g}",
            f"pass = {'true' if self.passed else 'false'}",
        ]
        for key in sorted(self.extras):
            val = self.extras[key]
            if isinstance(val, float):
                out.append(f"{key} = {val:.17g}")
            else:
                out.append(f"{key} = {val}")
        return out


def _grid_label(chart):
    dims = [str(chart.resolution[a]) for a in chart.active_axes]
    return "x".join(dims) if dims else "point"


# -- raw building blocks -------------------------------------------------------


def _dz_stack(chart, values, conj_side=False):
    """Stack of Wirtinger derivatives along a new axis before tensor axes."""
    op = chart.dzbar if conj_side else chart.dz
    parts = [op(values, i) for i in range(chart.n)]
    extra = values.ndim - chart.naxes
    return np.stack(parts, axis=values.ndim - extra)


def _christoffel(chart, G, Gi):
    Dg = _dz_stack(chart, G)  # [..., i, a, b] = d_i g_{a bbar}
    return np.einsum("...qk,...ijq->...kij", Gi, Dg), Dg


def _curvature(chart, Gamma, G):
    DbarGamma = _dz_stack(chart, Gamma, conj_side=True)  # [..., l, p, k, i]
    up = -np.einsum("...lpki->...klip", DbarGamma)
    low = np.einsum("...klip,...pj->...klij", up, G)
    return up, low


def connection_torsion_curvature(g):
    """Chern connection data of a positive metric field."""
    require_positive(g)
    chart = g.chart
    G = g.values
    Gi = herm_inv(G)
    Gamma, _ = _christoffel(chart, G, Gi)
    T = Gamma - np.swapaxes(Gamma, -1, -2)
    up, low = _curvature(chart, Gamma, G)
    return (
        ConnectionField(chart, Gamma),
        TorsionField(chart, T),
        CurvatureField(chart, up, low),
    )


def chern_ricci(g):
    """Ricci form of the Chern connection, -d dbar log det g."""
    logdet = herm_logdet(g.values)
    return HermitianMatrixField(g.chart, -g.chart.complex_hessian(logdet))


def ricci_from_curvature(g):
    """Trace g^{jbar i} R_{k lbar i jbar}; cross-check path for chern_ricci."""
    Gi = herm_inv(g.values)
    _, _, R = connection_torsion_curvature(g)
    return HermitianMatrixField(g.chart, np.einsum("...ji,...klij->...kl", Gi, R.low))


def trace_and_laplacian(g, target):
    """Pointwise trace tr_g(target) or complex Laplacian of a scalar."""
    g.chart.require_same(target.chart)
    Gi = herm_inv(g.values)
    if isinstance(target, HermitianMatrixField):
        out = np.einsum("...ji,...ij->...", Gi, target.values).real
    else:
        hess = g.chart.complex_hessian(target.values)
        out = np.einsum("...ji,...ij->...", Gi, hess).real
    return ScalarField(g.chart, out)


def closedness_residual(chart, values):
    """Max norm of the (2,1) part of d applied to a (1,1) form field.

    For a real (1,1) form, d-closedness is equivalent to
    d_k chi_{i jbar} - d_i chi_{k jbar} = 0 for all k < i.
    """
    n = chart.n
    if n == 1:
        return 0.0
    D = _dz_stack(chart, values)  # [..., k, a, b]
    res = 0.0
    for k in range(n):
        for i in range(k + 1, n):
            res = max(res, float(np.max(np.abs(D[..., k, i, :] - D[..., i, k, :]))))
    return res


def _check_closed(chart, values, what):
    res = closedness_residual(chart, values)
    if res > _CLOSEDNESS_TOL:
        raise ClosednessViolated(f"{what} closedness residual {res:.3e} > {_CLOSEDNESS_TOL:.0e}")
    return res


# -- trace evolution identity --------------------------------------------------


@dataclass
class TraceEvolutionReport:
    """Residuals of the trace evolution identity and its three term bounds."""

    identity_residual: float
    bound_violations: tuple  # (I, II, III), max over nodes with tr_ghat g >= 1
    constants: tuple  # (C, C') for bounds (II), (III)
    imag_residual: float
    masked_fraction: float
    chi_closedness: float
    max_condition: float
    grid: str

    def as_identity_reports(self, tol_identity, tol_bounds):
        reports = [
            IdentityReport(
                "trace_evolution",
                self.identity_residual,
                self.grid,
                tol_identity,
                extras={
                    "imag_residual": self.imag_residual,
                    "max_condition": self.max_condition,
                },
            )
        ]
        for label, v in zip(("I", "II", "III"), self.bound_violations):
            reports.append(
                IdentityReport(
                    f"trace_evolution_bound_{label}", v, self.grid, tol_bounds
                )
            )
        return reports


def verify_trace_evolution(g0, ghat, phi, t=0.0, chi=None):
    """Certify the evolution identity for log tr_ghat g term by term.

    The evolving metric is omega = omega_0 + t*chi + i ddbar phi for a closed
    chi (default -Ric(omega_0)). The left side (d_t - Delta) log tr_ghat g is
    computed from raw spectral derivatives with d_t g_{i jbar} =
    d_i d_jbar log det g substituted; the right side is the sum of the three
    displayed tensor terms. Also checks the stated upper bounds on each term
    with constants computed from grid sup-norms of the torsion and curvature
    of ghat and the torsion of g_0.
    """
    chart = g0.chart
    chart.require_same(ghat.chart)
    chart.require_same(phi.chart)
    n = chart.n

    if chi is None:
        chi = HermitianMatrixField(chart, -chern_ricci(g0).values)
    chart.require_same(chi.chart)
    chi_res = _check_closed(chart, chi.values, "chi")

    G = g0.values + t * chi.values + chart.complex_hessian(phi.values)
    G = HermitianMatrixField(chart, G).values
    lo, hi = herm_eig_bounds(G)
    if not lo > 0.0:
        raise NotPositiveDefinite(f"omega(t) has min eigenvalue {lo:.3e}")
    require_positive(ghat, what="ghat")

    Gi = herm_inv(G)
    Ghat = ghat.values
    Gihat = herm_inv(Ghat)
    G0 = g0.values

    GammaHat, _ = _christoffel(chart, Ghat, Gihat)
    THat = GammaHat - np.swapaxes(GammaHat, -1, -2)
    _, RlowHat = _curvature(chart, GammaHat, Ghat)

    Gamma0, _ = _christoffel(chart, G0, herm_inv(G0))
    T0 = Gamma0 - np.swapaxes(Gamma0, -1, -2)

    tau = np.einsum("...lk,...kl->...", Gihat, G).real

    # left side: (d_t - Delta) log tau with the flow substituted analytically
    logdet_g = herm_logdet(G)
    LD = chart.complex_hessian(logdet_g)
    dt_tau = np.einsum("...lk,...kl->...", Gihat, LD).real
    logtau = np.log(tau)
    lap_logtau = np.einsum(
        "...ji,...ij->...", Gi, chart.complex_hessian(logtau)
    ).real
    lhs = dt_tau / tau - lap_logtau

    # covariant derivatives of g with respect to ghat
    Dg = _dz_stack(chart, G)
    Dbarg = _dz_stack(chart, G, conj_side=True)
    Cov1 = Dg - np.einsum("...rki,...rj->...kij", GammaHat, G)
    Covb = Dbarg - np.einsum("...slj,...is->...lij", np.conj(GammaHat), G)

    dtau = np.stack([chart.dz(tau, i) for i in range(n)], axis=-1)
    dbtau = np.conj(dtau)

    term_a = -np.einsum(
        "...jp,...qi,...lk,...kij,...lpq->...", Gi, Gi, Gihat, Cov1, Covb
    )
    term_b = np.einsum("...lk,...k,...l->...", Gi, dtau, dbtau) / tau
    term_c = -2.0 * np.einsum(
        "...ji,...lk,...pki,...lpj->...", Gi, Gihat, THat, Covb
    ).real
    term_d = -np.einsum(
        "...ji,...lk,...pik,...qjl,...pq->...", Gi, Gihat, THat, np.conj(THat), G
    )
    term_I = (term_a + term_b + term_c + term_d) / tau

    # term (II) coefficient tensor N_{i jbar}^{k qbar}, built from ghat alone
    DCT = _dz_stack(chart, np.conj(THat))  # [..., i, q, j, l]
    inner = DCT - np.einsum("...ilpj,...qp->...iqjl", RlowHat, Gihat)
    N2 = np.einsum("...lk,...iqjl->...ijkq", Gihat, inner)
    term_II = np.einsum("...ji,...ijkq,...kq->...", Gi, N2, G) / tau

    # term (III) bracket P_{i jbar}, built from ghat and g0
    S = np.einsum("...pjl,...kp->...kjl", np.conj(T0), G0)
    CovS = _dz_stack(chart, S) - np.einsum("...rik,...rjl->...ikjl", GammaHat, S)
    W = np.einsum("...pik,...pj->...ikj", T0, G0)
    CovbW = _dz_stack(chart, W, conj_side=True) - np.einsum(
        "...slj,...iks->...likj", np.conj(GammaHat), W
    )
    P = (
        np.einsum("...lk,...ikjl->...ij", Gihat, CovS)
        + np.einsum("...lk,...likj->...ij", Gihat, CovbW)
        - np.einsum("...lk,...qjl,...pik,...pq->...ij", Gihat, np.conj(THat), T0, G0)
    )
    term_III = -np.einsum("...ji,...ij->...", Gi, P) / tau

    rhs = term_I + term_II + term_III
    imag_residual = float(np.max(np.abs(rhs.imag)))
    residual = float(np.max(np.abs(lhs - rhs.real)))

    # bounds, checked where tr_ghat g >= 1
    tr_g_ghat = np.einsum("...lk,...kl->...", Gi, Ghat).real
    bound_I = (2.0 / tau ** 2) * np.einsum(
        "...li,...qk,...pki,...pl,...q->...", Gihat, Gi, T0, G0, dbtau
    ).real

    norm_N2 = np.sqrt(
        np.maximum(
            np.einsum(
                "...ijkq,...abcd,...ai,...jb,...kc,...dq->...",
                N2,
                np.conj(N2),
                Gihat,
                Gihat,
                Ghat,
                Ghat,
            ).real,
            0.0,
        )
    )
    norm_P = np.sqrt(
        np.maximum(
            np.einsum(
                "...ij,...ab,...ai,...jb->...", P, np.conj(P), Gihat, Gihat
            ).real,
            0.0,
        )
    )
    C_II = float(np.max(norm_N2))
    C_III = float(np.max(norm_P))

    mask = tau >= 1.0
    if np.any(mask):
        v1 = float(np.max((term_I.real - bound_I)[mask]))
        v2 = float(np.max((term_II.real - C_II * tr_g_ghat)[mask]))
        v3 = float(np.max((term_III.real - C_III * tr_g_ghat)[mask]))
        masked_fraction = float(1.0 - mask.mean())
    else:
        v1 = v2 = v3 = 0.0
        masked_fraction = 1.0

    return TraceEvolutionReport(
        identity_residual=residual,
        bound_violations=(v1, v2, v3),
        constants=(C_II, C_III),
        imag_residual=imag_residual,
        masked_fraction=masked_fraction,
        chi_closedness=chi_res,
        max_condition=hi / lo,
        grid=_grid_label(chart),
    )


def verify_bianchi_vanishing(ghat):
    """Max norm of ghat^{lbar k}(nabla_lbar That^i_{ik} + Rhat_{i lbar k qbar}
    ghat^{qbar i} - Rhat_{k lbar i qbar} ghat^{qbar i}), which vanishes
    identically for every Hermitian metric."""
    require_positive(ghat)
    chart = ghat.chart
    Ghat = ghat.values
    Gihat = herm_inv(Ghat)
    GammaHat, _ = _christoffel(chart, Ghat, Gihat)
    THat = GammaHat - np.swapaxes(GammaHat, -1, -2)
    _, RlowHat = _curvature(chart, GammaHat, Ghat)

    tcontr = np.einsum("...iik->...k", THat)
    dbar_t = _dz_stack(chart, tcontr, conj_side=True)  # [..., l, k]
    term2 = np.einsum("...ilkq,...qi->...lk", RlowHat, Gihat)
    term3 = np.einsum("...kliq,...qi->...lk", RlowHat, Gihat)
    V = np.einsum("...lk,...lk->...", Gihat, dbar_t + term2 - term3)
    return float(np.max(np.abs(V)))


def verify_schwarz_identity(g, gN):
    """Residual of (d_t - Delta) log u = tr_omega Ric(omega_N) for the
    volume-form ratio u = det(g_N)/det(g) along the flow (identity map case).

    d_t log u = tr_omega Ric(omega) is substituted analytically from
    d_t g = -Ric(g).
    """
    chart = g.chart
    chart.require_same(gN.chart)

    G = g.values
    logdet_g = herm_logdet(G)
    logdet_gN = herm_logdet(gN.values)
    Gi = herm_inv(G)
    logu = logdet_gN - logdet_g

    ric_g = -chart.complex_hessian(logdet_g)
    ric_gN = -chart.complex_hessian(logdet_gN)

    dt_logu = np.einsum("...ji,...ij->...", Gi, ric_g).real
    lap_logu = np.einsum("...ji,...ij->...", Gi, chart.complex_hessian(logu)).real
    rhs = np.einsum("...ji,...ij->...", Gi, ric_gN).real
    return float(np.max(np.abs(dt_logu - lap_logu - rhs)))


def commutator_residual(g, X):
    """Max residual of [nabla_k, nabla_lbar] X^i = R_{k lbar j}^{   i} X^j
    for a vector field X (values [..., i])."""
    chart = g.chart
    G = g.values
    Gi = herm_inv(G)
    Gamma, _ = _christoffel(chart, G, Gi)
    up, _ = _curvature(chart, Gamma, G)

    # nabla_k X^i = d_k X^i + Gamma^i_{kj} X^j; barred slots are inert under
    # nabla_k of the Chern connection and unbarred ones under nabla_lbar
    covX = _dz_stack(chart, X) + np.einsum("...ikj,...j->...ki", Gamma, X)
    after = _dz_stack(chart, covX, conj_side=True)  # nabla_lbar nabla_k; [..., l, k, i]
    dbarX = _dz_stack(chart, X, conj_side=True)  # [..., l, i]
    before = _dz_stack(chart, dbarX)  # nabla_k nabla_lbar; [..., k, l, i]
    before = before + np.einsum("...ikj,...lj->...kli", Gamma, dbarX)
    lhs = before - np.einsum("...lki->...kli", after)
    rhs = np.einsum("...klji,...j->...kli", up, X)
    return float(np.max(np.abs(lhs - rhs)))
