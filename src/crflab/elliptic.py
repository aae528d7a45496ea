"""Elliptic complex Monge-Ampere solves and empirical a-priori certificates.

Solves, on a torus chart with background metric omega,

    log det(g + Hess phi) - log det g = F + b,    omega + i ddbar phi > 0,

for the potential phi and the uniquely determined constant b, by either
integrating the parabolic relaxation

    d_t phi = log det(g + Hess phi)/det(g) - F

to stationarity (phi drifts linearly with slope b; the spatial oscillation
of d_t phi bounds the residual), or by damped Newton on (phi, b) with the
linearized operator Delta' (the complex Laplacian of the updated metric)
applied matrix-free and inverted by a flat-Laplacian-preconditioned
BiCGStab iteration on the mean-zero subspace. Both come from `geometry`:
the preconditioner is `TorusChart.laplacian_inverse`, and `herm_logdet`
rejects every trial metric that is not positive definite, also at det > 0.

`certify_estimates` measures the oscillation bound and the second-order
statistic C(A) = sup tr_g g' e^{-A(phi - inf phi)}, re-solving on a
Fourier-refined grid to test stability under grid doubling.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, NotPositiveDefinite
from .flow import FlowScenario, FlowState, step
from .geometry import (
    HermitianMatrixField,
    ScalarField,
    VolumeField,
    herm_det,
    herm_inv,
    herm_logdet,
    refine_field,
    require_positive,
)


@dataclass
class EllipticProblem:
    omega: HermitianMatrixField
    F: ScalarField
    normalization: str = "mean"  # "mean" or "sup"

    def __post_init__(self):
        self.omega.chart.require_same(self.F.chart)
        require_positive(self.omega, what="background metric")
        if self.normalization not in ("mean", "sup"):
            raise ValueError("normalization must be 'mean' or 'sup'")

    @property
    def chart(self):
        return self.omega.chart

    def refined(self, factor=2):
        return EllipticProblem(
            refine_field(self.omega, factor),
            refine_field(self.F, factor),
            self.normalization,
        )


@dataclass
class EllipticSolution:
    problem: EllipticProblem
    phi: ScalarField
    b: float
    residual: float
    method: str
    iterations: int
    extras: dict = field(default_factory=dict)

    def updated_metric(self):
        chart = self.problem.chart
        return HermitianMatrixField(
            chart,
            self.problem.omega.values + chart.complex_hessian(self.phi.values),
        )


def _normalize(problem, phi_values):
    # Nyquist modes are invisible to the discrete Hessian; strip them so
    # both solution routes return the same canonical representative
    phi_values = problem.chart.strip_nyquist(phi_values)
    if problem.normalization == "mean":
        return phi_values - phi_values.mean()
    return phi_values - phi_values.max()


def _residual_field(problem, phi_values, b):
    G = problem.omega.values
    Gp = G + problem.chart.complex_hessian(phi_values)
    return herm_logdet(Gp) - herm_logdet(G) - problem.F.values - b, Gp


def solve_elliptic(problem, method="newton-continuation", tol=None, max_steps=None):
    """Solve the elliptic equation; returns an EllipticSolution.

    tol defaults to 1e-8 for n = 1 charts and 1e-6 otherwise (max-norm of
    the equation residual after fixing b).
    """
    if tol is None:
        tol = 1e-8 if problem.chart.n == 1 else 1e-6
    if method == "gill-flow":
        return _solve_gill_flow(problem, tol, max_steps or 2_000_000)
    if method == "newton-continuation":
        return _solve_newton(problem, tol, max_steps or 40)
    raise ValueError(f"unknown method {method!r}")


def _solve_gill_flow(problem, tol, max_steps):
    chart = problem.chart
    density = VolumeField(
        chart, herm_det(problem.omega.values) * np.exp(problem.F.values)
    )
    chi = HermitianMatrixField(chart, np.zeros(chart.shape + (chart.n, chart.n)))
    scenario = FlowScenario(problem.omega, 1e12, chi, density)
    state = FlowState.initial(scenario)
    osc = np.inf
    steps = 0
    while steps < max_steps:
        state = step(state, scenario)
        steps += 1
        pd = state.phidot
        osc = float(pd.max() - pd.min())
        if osc <= 0.5 * tol:
            break
    else:
        raise NonConvergence(
            f"gill-flow oscillation {osc:.3e} after {steps} steps (tol {tol:.1e})"
        )
    phi = _normalize(problem, state.phi)
    res0, _ = _residual_field(problem, phi, 0.0)
    b = float(res0.mean())
    res = float(np.max(np.abs(res0 - b)))
    return EllipticSolution(
        problem, ScalarField(chart, phi), b, res, "gill-flow", steps,
        extras={"t_end": state.t},
    )


def _bicgstab(op, rhs, precond, tol, max_iter=400):
    """Preconditioned BiCGStab on real fields; returns (x, relative residual)."""
    x = precond(rhs)
    r = rhs - op(x)
    r0 = r.copy()
    rho = alpha = omega_c = 1.0
    v = np.zeros_like(rhs)
    p = np.zeros_like(rhs)
    norm0 = max(float(np.max(np.abs(rhs))), 1e-300)
    for it in range(max_iter):
        rho_new = float(np.vdot(r0, r).real)
        if abs(rho_new) < 1e-300:
            break
        if it == 0:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega_c)
            p = r + beta * (p - omega_c * v)
        rho = rho_new
        phat = precond(p)
        v = op(phat)
        denom = float(np.vdot(r0, v).real)
        if abs(denom) < 1e-300:
            break
        alpha = rho / denom
        s = r - alpha * v
        x = x + alpha * phat
        if float(np.max(np.abs(s))) <= tol * norm0:
            r = s
            break
        shat = precond(s)
        t = op(shat)
        tt = float(np.vdot(t, t).real)
        if tt < 1e-300:
            r = s
            break
        omega_c = float(np.vdot(t, s).real) / tt
        x = x + omega_c * shat
        r = s - omega_c * t
        if float(np.max(np.abs(r))) <= tol * norm0:
            break
    return x, float(np.max(np.abs(r))) / norm0


def _solve_newton(problem, tol, max_steps):
    chart = problem.chart
    phi = np.zeros(chart.shape)
    b = -float(problem.F.values.mean())
    res_field, Gp = _residual_field(problem, phi, b)
    res = float(np.max(np.abs(res_field)))
    iterations = 0
    while res > tol and iterations < max_steps:
        Gpi = herm_inv(Gp)

        def lap(v):
            hess = chart.complex_hessian(v)
            return np.einsum("...ji,...ij->...", Gpi, hess).real

        proj = lambda v: v - v.mean()
        rhs = -proj(res_field)
        # the flat Laplacian tr(Gbar^-1 H) of the mean metric
        precond = chart.laplacian_inverse(np.linalg.inv(chart.mean(Gp)))
        lin_tol = max(1e-12, min(1e-2, 0.05 * res))
        dphi, _ = _bicgstab(lambda v: proj(lap(proj(v))), rhs, precond, lin_tol)
        dphi = proj(dphi)
        db = float((res_field + lap(dphi)).mean())

        s = 1.0
        while s >= 2.0 ** -24:
            try:
                trial_field, trial_Gp = _residual_field(
                    problem, phi + s * dphi, b + s * db
                )
            except NotPositiveDefinite:
                s *= 0.5  # positivity lost inside the line search
                continue
            trial_res = float(np.max(np.abs(trial_field)))
            if trial_res <= (1.0 - 0.25 * s) * res or trial_res <= tol:
                phi = phi + s * dphi
                b = b + s * db
                res_field, Gp, res = trial_field, trial_Gp, trial_res
                break
            s *= 0.5
        else:
            raise NonConvergence(
                f"newton line search stalled at residual {res:.3e}"
            )
        iterations += 1
    if res > tol:
        raise NonConvergence(f"newton residual {res:.3e} after {iterations} steps")

    phi = _normalize(problem, phi)
    res_field, _ = _residual_field(problem, phi, b)
    b = b + float(res_field.mean())
    res = float(np.max(np.abs(res_field - res_field.mean())))
    return EllipticSolution(
        problem, ScalarField(chart, phi), b, res, "newton-continuation", iterations
    )


@dataclass
class EstimateReport:
    oscillation: float
    A_grid: tuple
    C_coarse: tuple
    C_fine: tuple
    stable_A: object
    stability_ratio: tuple


def certify_estimates(solution, A_grid, method=None, tol=None):
    """Oscillation and trace-growth statistics with a grid-doubling check.

    For each A reports C(A) = sup_M tr_g g' exp(-A (phi - inf phi)) on the
    solution's grid and on a Fourier-doubled grid (re-solved), and the
    smallest A whose C(A) is stable within 10 percent under the doubling.
    """
    problem = solution.problem
    method = method or solution.method

    def stats(sol):
        chart = sol.problem.chart
        Gi = herm_inv(sol.problem.omega.values)
        Gp = sol.updated_metric().values
        tr = np.einsum("...ji,...ij->...", Gi, Gp).real
        phi = sol.phi.values
        shifted = phi - phi.min()
        osc = float(phi.max() - phi.min())
        C = tuple(float(np.max(tr * np.exp(-A * shifted))) for A in A_grid)
        return osc, C

    osc, C1 = stats(solution)
    fine_problem = problem.refined()
    fine_solution = solve_elliptic(fine_problem, method=method, tol=tol)
    _, C2 = stats(fine_solution)

    ratios = tuple(abs(c2 - c1) / max(abs(c1), 1e-300) for c1, c2 in zip(C1, C2))
    stable_A = None
    for A, r in zip(A_grid, ratios):
        if r <= 0.10:
            stable_A = float(A)
            break
    return EstimateReport(
        oscillation=osc,
        A_grid=tuple(float(a) for a in A_grid),
        C_coarse=C1,
        C_fine=C2,
        stable_A=stable_A,
        stability_ratio=ratios,
    )
