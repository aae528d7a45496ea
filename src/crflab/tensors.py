"""Connection, torsion, curvature, and numerical identity certification.

Conventions, with G[a, b] storing g_{a bbar}:

    inverse pairing      g^{jbar i}          = Gi[j, i]
    Christoffel symbols  Gamma^k_{ij}        = g^{qbar k} d_i g_{j qbar}
    torsion              T^k_{ij}            = Gamma^k_{ij} - Gamma^k_{ji}
    curvature            R_{k lbar i}^{   p} = - d_lbar Gamma^p_{ki}
    lowered curvature    R_{k lbar i jbar}   = g_{p jbar} R_{k lbar i}^{   p}
    Ricci form           Ric_{k lbar}        = - d_k d_lbar log det g
    Laplacian            Delta f             = g^{jbar i} d_i d_jbar f

Layout: inside this module every tensor is held tensor-first, with its
indices first and the 2n grid axes last (``G[a, b, *grid]``), so that each
contraction runs its inner loop over the grid and not over indices of size
n. Inputs enter as grid-leading fields and are moved once (`_tensor_first`);
every derived tensor is created in that layout. `_chern` is the one builder
of a metric's G, G^-1 and Christoffel symbols, and its one positivity test;
`_torsion` and `_curvature` build the rest from them, for the certifiers
only. Each contraction is a sequence of two-operand einsums in an order
fixed here, with no intermediate larger than n^4 per node. What leaves the
module is a report of residuals or, from `chern_ricci`, a grid-leading
field like every other.

The verification operations assemble both sides of each identity through
independent code paths (raw spectral derivatives of scalars on one side,
covariant tensor expressions on the other) and report max-norm residuals;
time derivatives along the flow are always substituted analytically from
d_t g = -Ric(g), never finite-differenced in time.

`verify_trace_evolution` takes three derivatives of its right side from
exact symmetries of tensors it already holds instead of transforming again:
nabla_lbar g_{i jbar} = conj(nabla_l g_{j ibar}), since g is exactly
Hermitian and the Chern connection's barred part is the conjugate of its
unbarred part; d_i conj(That^q_{jl}) = conj(dbar_i Gammahat^q_{jl} -
dbar_i Gammahat^q_{lj}), from the dbar Gammahat that the curvature of ghat
is built from; and nabla_lbar W_{ikj} = conj(nabla_l S_{jik}) for the
torsion of g_0 lowered two ways, S_{kjl} = g0_{k pbar} conj(T0^p_{jl}) and
W_{ikj} = T0^p_{ik} g0_{p jbar} = conj(S_{jik}). All three stay on
the tensor side: the left side still comes only from `complex_hessian` of
scalars, so the two sides stay independent.

`verify_trace_evolution` also runs in liveness order, so that each
intermediate is released right after its last use: the left side; term (I);
then g_0's torsion, bound (I)'s contraction of it, term (III) and |P|, so
that g_0's torsion, W and conj(That) are gone before nabla S, the first
n^4 tensor, and P before term (II); then term (II)'s curvature and |N2|,
taken as soon as N2 is built. nabla_lbar W is the conjugate of nabla S in
place, seen with moved axes.
Each value is computed by the same operations whatever the order of the
sections, so that order changes no bit of any residual. A 64^2 or 128^2
n = 2 call then peaks at about 4.8 complex n^4 tensors of working memory
above its inputs (tracemalloc). Term (III) sets it, with nabla S and its
Christoffel correction at once; term (II), with dbar Gammahat, the lowered
curvature and their difference at once, reaches about 4.3.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ClosednessViolated, NotPositiveDefinite
from .geometry import (
    HermitianMatrixField,
    herm_det,
    herm_eig_bounds,
    herm_inv,
    herm_logdet,
    require_positive,
)

# max-norm residual of d chi above which a reference form counts as not closed
_CLOSEDNESS_TOL = 1e-10


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
    return "x".join(str(chart.resolution[a]) for a in chart.active_axes)


# -- layout --------------------------------------------------------------------


def _tensor_first_view(chart, values):
    """Tensor-first view of a grid-leading array (no copy)."""
    return np.moveaxis(values, tuple(range(chart.naxes)), tuple(range(-chart.naxes, 0)))


def _tensor_first(chart, values):
    """Contiguous tensor-first copy of a grid-leading array, for reuse."""
    return np.ascontiguousarray(_tensor_first_view(chart, values))


def _trace(A, B):
    """Pointwise sum_ij A[j, i] B[i, j] of tensor-first rank-2 arrays."""
    return np.einsum("ji...,ij...->...", A, B)


# -- raw building blocks (tensor-first) ----------------------------------------


def _christoffel(chart, G, Gi):
    """Gamma^k_{ij} as [k, i, j, *grid] from G and its inverse."""
    return np.einsum("qk...,ijq...->kij...", Gi, chart.grad(G))


def _torsion(Gamma):
    return Gamma - np.swapaxes(Gamma, 1, 2)


def _curvature(chart, Gamma, G):
    """(dbar Gamma as [l, p, k, i, *grid], lowered curvature [k, l, i, j, *grid]).

    R_{k lbar i}^p = -dbar_l Gamma^p_{ki}, so lowering with -G gives R_{k lbar i jbar}.
    """
    DbarGamma = chart.grad(Gamma, conj=True)
    return DbarGamma, np.einsum("lpki...,pj...->klij...", DbarGamma, -G)


def _chern(g, what="metric"):
    """(G, G^-1, Gamma) of a metric field, tested positive, tensor-first."""
    require_positive(g, what=what)
    chart = g.chart
    G = _tensor_first(chart, g.values)
    Gi = _tensor_first(chart, herm_inv(g.values))
    return G, Gi, _christoffel(chart, G, Gi)


def chern_ricci(g):
    """Ricci form of the Chern connection, -d dbar log det g."""
    return HermitianMatrixField(g.chart, ricci_form(g.chart, g.values))


def ricci_form(chart, values):
    """`chern_ricci` of the metric array ``values`` on ``chart``, as an array
    that is exactly Hermitian; herm_logdet tests the metric's positivity."""
    return -chart.complex_hessian(herm_logdet(values))


def closedness_residual(chart, values):
    """Max norm of the (2,1) part of d applied to a (1,1) form field.

    For a real (1,1) form, d-closedness is equivalent to
    d_k chi_{i jbar} - d_i chi_{k jbar} = 0 for all k < i.
    """
    n = chart.n
    if n == 1:
        return 0.0
    D = chart.grad(_tensor_first(chart, values))  # [k, a, b, *grid]
    res = 0.0
    for k in range(n):
        for i in range(k + 1, n):
            res = max(res, float(np.max(np.abs(D[k, i] - D[i, k]))))
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


def _norm(value):
    """sqrt of the real part, clipped at zero (a norm assembled from rounding)."""
    return np.sqrt(np.maximum(value.real, 0.0))


def verify_trace_evolution(g0, ghat, phi, t=0.0):
    """Certify the evolution identity for log tr_ghat g term by term.

    The evolving metric is omega = omega_0 + t*chi + i ddbar phi with
    chi = -Ric(omega_0), checked closed. The left side (d_t - Delta) log tr_ghat g is
    computed from raw spectral derivatives with d_t g_{i jbar} =
    d_i d_jbar log det g substituted; the right side is the sum of the three
    displayed tensor terms. Also checks the stated upper bounds on each term
    with constants computed from grid sup-norms of the torsion and curvature
    of ghat and the torsion of g_0.

    The work runs in liveness order (module docstring): the left side, term
    (I), term (III) with bound (I) and |P|, then term (II) with |N2|, each
    intermediate released after its last use.
    """
    chart = g0.chart
    chart.require_same(ghat.chart)
    chart.require_same(phi.chart)

    chi = -ricci_form(chart, g0.values)
    chi_res = _check_closed(chart, chi, "chi")

    # exactly Hermitian: a sum of exactly Hermitian arrays
    G = g0.values + t * chi + chart.complex_hessian(phi.values)
    del chi
    lo, hi = herm_eig_bounds(G)
    if not lo > 0.0:
        raise NotPositiveDefinite(f"omega(t) has min eigenvalue {lo:.3e}")
    # lo > 0 is the positivity test herm_logdet would repeat
    logdet_g = np.log(herm_det(G))

    # the one move to tensor-first layout of each rank-2 input and inverse
    Gi = _tensor_first(chart, herm_inv(G))
    G = _tensor_first(chart, G)
    Ghat, Gihat, GammaHat = _chern(ghat, what="ghat")

    tau = _trace(Gihat, G).real

    # left side: (d_t - Delta) log tau with the flow substituted analytically
    LD = _tensor_first_view(chart, chart.complex_hessian(logdet_g))
    del logdet_g
    dt_tau = _trace(Gihat, LD).real
    del LD
    logtau = np.log(tau)
    lap_logtau = _trace(Gi, _tensor_first_view(chart, chart.complex_hessian(logtau))).real
    del logtau
    lhs = dt_tau / tau - lap_logtau
    del dt_tau, lap_logtau

    # covariant derivatives of g with respect to ghat:
    # Cov1[k, i, j] = nabla_k g_{i jbar}, Covb[l, i, j] = nabla_lbar g_{i jbar};
    # G is exactly Hermitian and nabla_lbar is the conjugate of nabla_l, so
    # nabla_lbar g_{i jbar} = conj(nabla_l g_{j ibar})
    Cov1 = chart.grad(G)
    Cov1 -= np.einsum("rki...,rj...->kij...", GammaHat, G)
    Covb = np.conj(np.swapaxes(Cov1, 1, 2))

    dtau = chart.grad(tau)  # [k, *grid]
    dbtau = np.conj(dtau)

    # term (I): -Gi_jp Gi_qi Gihat_lk Cov1_kij Covb_lpq
    A = np.einsum("lk...,kij...->lij...", Gihat, Cov1)
    del Cov1
    A = np.einsum("qi...,lij...->lqj...", Gi, A)
    A = np.einsum("lqj...,jp...->lqp...", A, Gi)
    term_a = -np.einsum("lqp...,lpq...->...", A, Covb)
    del A
    # Gi_lk dtau_k dbtau_l / tau
    term_b = np.einsum("l...,l...->...", np.einsum("lk...,k...->l...", Gi, dtau), dbtau) / tau
    del dtau
    # -2 Re Gi_ji Gihat_lk THat_pki Covb_lpj, through C_pli = Gihat_lk THat_pki
    THat = _torsion(GammaHat)
    C = np.einsum("lk...,pki...->pli...", Gihat, THat)
    cTHat = np.conj(THat, out=THat)
    del THat
    term_c = -2.0 * np.einsum(
        "plj...,lpj...->...", np.einsum("pli...,ji...->plj...", C, Gi), Covb
    ).real
    del Covb
    # -Gi_ji Gihat_lk THat_pik conj(THat)_qjl G_pq; torsion is antisymmetric,
    # so THat_pik Gihat_lk = -C_pli exactly
    D = np.einsum("pq...,pli...->qil...", G, C)
    del C
    D = np.einsum("ji...,qil...->qjl...", Gi, D)
    term_d = np.einsum("qjl...,qjl...->...", D, cTHat)
    del D
    term_I = (term_a + term_b + term_c + term_d) / tau
    del term_a, term_b, term_c, term_d

    # term (III) bracket P_{i jbar}, built from ghat and g0, before the n^4
    # curvature of term (II), so that the torsion of g0 is gone by then.
    # S_{kjl} = g0_{k pbar} conj(T0^p_{jl}) and W_{ikj} = T0^p_{ik} g0_{p jbar}
    G0 = _tensor_first(chart, g0.values)
    T0 = _torsion(_christoffel(chart, G0, _tensor_first(chart, herm_inv(g0.values))))
    S = np.einsum("pjl...,kp...->kjl...", np.conj(T0), G0)
    W = np.einsum("pik...,pj...->ikj...", T0, G0)
    del T0, G0
    # Gihat_lk conj(THat)_qjl T0_pik G0_pq, with T0_pik G0_pq = W_ikq
    P_W = np.einsum("ikq...,qjk...->ij...", W, np.einsum("qjl...,lk...->qjk...", cTHat, Gihat))
    del cTHat
    # bound (I)'s Gihat_li T0_pki G0_pl, with T0_pki G0_pl = W_kil
    W_I = np.einsum("kil...,li...->k...", W, Gihat)
    del W
    CovS = chart.grad(S)  # [i, k, j, l]
    CovS -= np.einsum("rik...,rjl...->ikjl...", GammaHat, S)
    del S
    P = np.einsum("lk...,ikjl...->ij...", Gihat, CovS)
    # W_{ikj} = conj(S_{jik}) exactly (G0 is Hermitian), so
    # nabla_lbar W_{ikj} = conj(nabla_l S_{jik}): conjugated in place, CovS
    # seen with its axes moved is nabla_lbar W as [l, i, k, j]
    np.conj(CovS, out=CovS)
    P += np.einsum("lk...,likj...->ij...", Gihat, np.moveaxis(CovS, 1, 3))
    del CovS
    P -= P_W
    del P_W
    term_III = -_trace(Gi, P) / tau

    # bound (I): Gihat_li Gi_qk T0_pki G0_pl dbtau_q, checked where tr_ghat g >= 1
    bound_I = (2.0 / tau ** 2) * np.einsum(
        "k...,k...->...", np.einsum("q...,qk...->k...", dbtau, Gi), W_I
    ).real
    del dbtau, W_I
    # |P|^2 = Q_ab conj(P)_ab, Q_ab = Gihat_ai P_ij Gihat_jb
    Q = np.einsum("aj...,jb...->ab...", np.einsum("ai...,ij...->aj...", Gihat, P), Gihat)
    norm_P = _norm(np.einsum("ab...,ab...->...", Q, np.conj(P)))
    del P, Q

    # term (II) coefficient tensor N_{i jbar}^{k qbar}, built from ghat alone;
    # d_i conj(THat)^q_{jl} = conj(dbar_i GammaHat^q_{jl} - dbar_i GammaHat^q_{lj})
    DbarGammaHat, RlowHat = _curvature(chart, GammaHat, Ghat)
    del GammaHat
    inner = DbarGammaHat - np.swapaxes(DbarGammaHat, 2, 3)  # [i, q, j, l]
    del DbarGammaHat
    np.conj(inner, out=inner)
    inner -= np.einsum("ilpj...,qp...->iqjl...", RlowHat, Gihat)
    del RlowHat
    N2 = np.einsum("iqjl...,lk...->ijkq...", inner, Gihat)
    del inner
    term_II = _trace(Gi, np.einsum("ijkq...,kq...->ij...", N2, G)) / tau
    tr_g_ghat = _trace(Gi, Ghat).real
    del G, Gi

    # |N2|^2 = M_abcd conj(N2)_abcd, M_abcd = Gihat_ai Gihat_jb Ghat_kc Ghat_dq N2_ijkq
    M = np.einsum("ai...,ijkq...->ajkq...", Gihat, N2)
    M = np.einsum("ajkq...,jb...->abkq...", M, Gihat)
    M = np.einsum("abkq...,kc...->abcq...", M, Ghat)
    M = np.einsum("abcq...,dq...->abcd...", M, Ghat)
    norm_N2 = _norm(np.einsum("abcd...,abcd...->...", M, np.conj(N2)))
    del M, N2

    rhs = term_I + term_II + term_III
    imag_residual = float(np.max(np.abs(rhs.imag)))
    residual = float(np.max(np.abs(lhs - rhs.real)))

    # bounds, checked where tr_ghat g >= 1
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
    chart = ghat.chart
    Ghat, Gihat, GammaHat = _chern(ghat)
    tcontr = np.einsum("iik...->k...", _torsion(GammaHat))
    _, RlowHat = _curvature(chart, GammaHat, Ghat)
    del GammaHat

    V = chart.grad(tcontr, conj=True)  # [l, k]
    V += np.einsum("ilkq...,qi...->lk...", RlowHat, Gihat)
    V -= np.einsum("kliq...,qi...->lk...", RlowHat, Gihat)
    return float(np.max(np.abs(np.einsum("lk...,lk...->...", Gihat, V))))


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
    Gi = _tensor_first(chart, herm_inv(G))
    logu = logdet_gN - logdet_g

    def trace_hessian(f):
        return _trace(Gi, _tensor_first_view(chart, chart.complex_hessian(f))).real

    # tr_omega Ric(g) - Delta log u - tr_omega Ric(g_N), Ric = -ddbar log det
    dt_logu = -trace_hessian(logdet_g)
    lap_logu = trace_hessian(logu)
    rhs = -trace_hessian(logdet_gN)
    return float(np.max(np.abs(dt_logu - lap_logu - rhs)))
