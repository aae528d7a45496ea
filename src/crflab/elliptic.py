"""Elliptic complex Monge-Ampere solves and empirical a-priori certificates.

Solves, on a torus chart with background metric omega,

    log det(g + Hess phi) - log det g = F + b,    omega + i ddbar phi > 0,

for the potential phi and the uniquely determined constant b, by either
integrating the parabolic relaxation

    d_t phi = log det(g + Hess phi)/det(g) - F

to stationarity in the flow engine's one time loop, `flow._integrate` (phi
drifts linearly with slope b; the spatial oscillation of d_t phi bounds the
residual), or by damped Newton on (phi, b) with the
linearized operator Delta' (the complex Laplacian of the updated metric)
applied matrix-free and inverted by BiCGStab on the mean-zero subspace,
right-preconditioned: the Krylov solve runs on A M^-1 y = rhs, with M the
flat Laplacian of the mean metric, and the step is M^-1 y. M^-1 is a
half-spectrum multiplier, so one operator apply is one `rfft` of y, the
live real Hessian components of M^-1 y (at most n^2, one `irfft` each; see
`TorusChart.hessian_live`), and their sum against real weights built once
per Newton iteration. Everything spectral comes from `geometry`
(this module makes no transform of its own), and the multiplier is
`TorusChart.laplacian_inverse`.

The residual forms the updated metric's real components, in the order of
`herm_components`, with `FlowScenario`'s recipe for every n: omega's
components plus the Hessian of phi's half spectrum (`TorusChart.plus_hessian`),
with `components_logdet` as the positivity test. Everything downstream reads
those components: the Krylov weights tr(G'^-1 H) are
`components_trace_weights` of `components_inv`, and the preconditioner is
`laplacian_inverse` of `components_inv` of their grid mean: for n <= 2 no
matrix is built or inverted. `EllipticProblem` is
frozen and takes the background's log det once, as its positivity test, for
every residual to read.

Gill-flow's limit does not depend on the path to it, so its steps need to
be stable and keep the metric positive, not to be accurate in time: it sets
its scenario's step tolerance to 1e-3, where the flows keep 1e-6. A 32-node
n = 1 problem at tol 1e-8 then relaxes in 26 steps rather than 202, and the
n = 2 recipe of the newton_n2 benchmark workload, on 64^2 at tol 1e-6, in 69
rather than 550, with phi within 4e-7 of Newton's.

Both start from phi = 0 unless given a start phi0 (Newton also takes b0)
and share one ending: phi loses the modes no Wirtinger operator sees, which
leaves its residual unchanged, and b moves to the residual's mean. Near a
grid's rounding floor that re-evaluation can round the residual above tol;
Newton then steps on from the normalized (phi, b) within its step budget,
and raises NonConvergence naming the floor rather than return a residual
above tol.

Without a phi0, on a chart with at least 128 nodes on each active axis,
Newton first solves a chain of coarser problems (nested iteration, the
first leg of full multigrid): each level keeps every other node of each
active axis of the one above (`EllipticProblem.coarsened`), down to 32
nodes per axis, and the coarsest starts from (0, b0). A level solves to
max(tol, its chart's default tol), with each Krylov solve capped at 25
iterations; a tighter coarse target would only chase the residual floor of
an under-resolved grid. Its Fourier-refined (phi, b) starts the next level.
The gain rests on the problem being resolved on 32 nodes per axis, and the
chain tests that as it goes: the first level that does not converge from
its start (a Krylov miss, a stalled line search, or a start that is not
positive definite) ends the chain, and the problem's own solve starts from
(0, b0), exactly as without the chain; so does a refined start that is not
positive definite on the full grid. The problem's own solve iterates to
tol and is the only gate: `EllipticSolution.iterations` counts its steps,
and extras["coarse_levels"] records the levels. Smaller charts and
gill-flow have no chain.

An `EllipticSolution` keeps the metric components of its final residual
(``metric_parts``), so `updated_metric` and the certificate need no further
Hessian. When Newton's line search stalls, its message gives the part of the
residual in the modes no Wirtinger operator sees, a floor no step can lower.

`certify_estimates` measures the oscillation bound and the second-order
statistic C(A) = sup tr_g g' e^{-A(phi - inf phi)}, with tr_g g' from the
kept components (`components_trace`), re-solving on a Fourier-refined grid
to test stability under grid doubling. `refine_field` pads real half
spectra, one real component of omega at a time. The re-solve starts from the
refined coarse solution and iterates to its own tolerance.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, NotPositiveDefinite
# step is unused here; perfbench's tests check that its tracer patches this binding too
from .flow import FlowScenario, FlowState, _integrate, step
from .geometry import (
    HermitianMatrixField,
    ScalarField,
    VolumeField,
    coarsen_field,
    components_inv,
    components_logdet,
    components_trace,
    herm_components,
    herm_det,
    herm_logdet,
    refine_field,
)

# coarse levels halve each active axis down to this, which fixes the depth:
# 16^2 floors near 1e-4 (newton_n2 recipe); 512^2 took 1.01 s, cold 3.21 s
_COARSEST_NODES = 32
# the chain needs this many nodes per active axis: a failed 32^2 level added
# 73 % to a 64^2 solve, 13-35 % at 128^2 and 9 % at 256^2, where converged
# chains saved at most 21 %, 32-60 % and 64 %
_NESTED_MIN_NODES = 4 * _COARSEST_NODES
# BiCGStab cap per coarse Krylov solve: converging coarse levels used at most 13;
# a 32^2 level that misses 1e-6 then wastes 79 operator applies, uncapped 829
_COARSE_KRYLOV_CAP = 25
# gill-flow stops after this many steps without a new oscillation minimum:
# on 16 nodes at tol 1e-6 it stalls at 1.48e-5; converging runs set one each step
_GILL_STALL_STEPS = 100
# gill-flow's step tolerance: its limit does not depend on the path, so its
# steps need stability and positivity, not time accuracy. Against the flows'
# 1e-6 it cut a 32-node n = 1 solve at tol 1e-8 from 202 to 26 steps and the
# newton_n2 recipe on 32^2/64^2 at 1e-6 from 546/550 to 67/69, with
# |phi - Newton| 4.7e-9, 1.4e-7 and 3.6e-7. At 1e-2 phi's drift b t passed
# t ~ 3e6, and the Hessian's rounding of |phi| ~ 1.5e6 stalled the 64^2 solve
# at 7.9e-7; at 1e-3 t_end stays <= 6.4e5
_GILL_STEP_TOL = 1e-3


@dataclass(frozen=True)
class EllipticProblem:
    omega: HermitianMatrixField
    F: ScalarField
    normalization: str = "mean"  # "mean" or "sup"

    def __post_init__(self):
        self.omega.chart.require_same(self.F.chart)
        try:
            # the problem is frozen, so this stays the log det of its omega
            object.__setattr__(self, "_logdet", herm_logdet(self.omega.values))
        except NotPositiveDefinite:
            raise NotPositiveDefinite("background metric is not positive definite") from None
        if self.normalization not in ("mean", "sup"):
            raise ValueError("normalization must be 'mean' or 'sup'")

    @property
    def chart(self):
        return self.omega.chart

    def refined(self):
        """The problem on the Fourier-doubled grid."""
        return EllipticProblem(
            refine_field(self.omega), refine_field(self.F), self.normalization
        )

    def coarsened(self):
        """The problem on every other node of each active axis; its metric
        samples this one's, so it is positive definite too."""
        return EllipticProblem(
            coarsen_field(self.omega), coarsen_field(self.F), self.normalization
        )


@dataclass
class EllipticSolution:
    problem: EllipticProblem
    phi: ScalarField
    b: float
    residual: float
    method: str
    iterations: int
    # the real components of omega + i ddbar phi, in the order of
    # `herm_components`, from the residual that gave ``residual``
    metric_parts: list = field(repr=False)
    extras: dict = field(default_factory=dict)

    def updated_metric(self):
        return HermitianMatrixField.from_components(self.problem.chart, self.metric_parts)


def _normalize(problem, phi_values):
    # strip the modes the discrete Hessian cannot see, so both solution
    # routes return the same canonical representative
    phi_values = problem.chart.strip_invisible(phi_values)
    if problem.normalization == "mean":
        return phi_values - phi_values.mean()
    return phi_values - phi_values.max()


def _residual_field(problem, phi_values, b):
    """(residual field, real components of the updated metric omega + i ddbar
    phi in the order of `herm_components`) of (phi, b); raises
    NotPositiveDefinite unless that metric is positive definite."""
    chart = problem.chart
    parts = chart.plus_hessian(herm_components(problem.omega.values), chart.rfft(phi_values))
    return components_logdet(parts) - problem._logdet - problem.F.values - b, parts


def _normalized(problem, phi_values, b):
    """Both routes end here: normalize phi, then move b to the residual's
    mean. Returns (phi, b, residual field, updated metric's components)."""
    phi_values = _normalize(problem, phi_values)
    res_field, parts = _residual_field(problem, phi_values, b)
    mean = float(res_field.mean())
    return phi_values, b + mean, res_field - mean, parts


def _solution(problem, phi_values, b, method, iterations, extras=None):
    phi_values, b, res_field, parts = _normalized(problem, phi_values, b)
    return EllipticSolution(
        problem, ScalarField(problem.chart, phi_values), b,
        float(np.max(np.abs(res_field))), method, iterations, parts, extras or {},
    )


def solve_elliptic(
    problem, method="newton-continuation", tol=None, max_steps=None, phi0=None, b0=None
):
    """Solve the elliptic equation; returns an EllipticSolution.

    tol defaults to 1e-8 for n = 1 charts and 1e-6 otherwise (max-norm of
    the equation residual after fixing b) and must be finite and positive;
    ``max_steps`` (default 40 Newton iterations, 2,000,000 gill-flow steps)
    must be a positive integer. ``phi0`` (values on the problem's chart,
    default 0) is the start of both methods; ``b0`` (default -mean F) is
    Newton's starting constant. Without phi0, Newton on a chart of 128 or
    more nodes per active axis starts from a chain of coarser solves (see the
    module docstring). A start only shortens the path: the solve still
    iterates to its own tol.
    """
    tol = _default_tol(problem.chart) if tol is None else float(tol)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    if max_steps is not None and not (isinstance(max_steps, (int, np.integer)) and max_steps > 0):
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    nested = phi0 is None and min(_active_nodes(problem.chart)) >= _NESTED_MIN_NODES
    if phi0 is None:
        phi0 = np.zeros(problem.chart.shape)
    else:
        phi0 = np.asarray(phi0, dtype=float)
        if phi0.shape != problem.chart.shape:
            raise ValueError(
                f"phi0 has shape {phi0.shape}, the chart {problem.chart.shape}"
            )
        if not np.isfinite(phi0).all():
            raise ValueError("phi0 has non-finite values")
    b0 = -float(problem.F.values.mean()) if b0 is None else float(b0)
    if not np.isfinite(b0):
        raise ValueError(f"b0 must be finite, got {b0!r}")
    if method == "gill-flow":
        return _solve_gill_flow(problem, tol, max_steps or 2_000_000, phi0)
    if method == "newton-continuation":
        if nested:
            return _solve_newton_nested(problem, tol, max_steps or 40, phi0, b0)
        return _solve_newton(problem, tol, max_steps or 40, phi0, b0)
    raise ValueError(f"unknown method {method!r}")


def _default_tol(chart):
    return 1e-8 if chart.n == 1 else 1e-6


def _active_nodes(chart):
    return tuple(chart.shape[a] for a in chart.active_axes)


def _solve_newton_nested(problem, tol, max_steps, phi0, b0):
    """Newton on ``problem`` started from its coarsened problems, solved
    from the coarsest up. The first level that fails from its start ends the
    chain, and ``problem`` then starts from (phi0, b0), as it does when the
    refined start is not positive definite. extras["coarse_levels"] gets
    (nodes per active axis, iterations) per level, coarsest first, with
    iterations None for the level that failed."""
    chain = [problem]
    while min(_active_nodes(chain[-1].chart)) >= 2 * _COARSEST_NODES:
        chain.append(chain[-1].coarsened())
    phi, b = np.zeros(chain[-1].chart.shape), b0
    levels = []
    for coarse in chain[:0:-1]:
        try:
            sol = _solve_newton(
                coarse, max(tol, _default_tol(coarse.chart)), max_steps, phi, b,
                _COARSE_KRYLOV_CAP,
            )
        except (NonConvergence, NotPositiveDefinite):
            levels.append((_active_nodes(coarse.chart), None))
            phi, b = phi0, b0
            break
        levels.append((_active_nodes(coarse.chart), sol.iterations))
        phi, b = refine_field(sol.phi).values, sol.b
    try:
        solution = _solve_newton(problem, tol, max_steps, phi, b)
    except NotPositiveDefinite:
        # only a start can fail this way: the line search backtracks
        solution = _solve_newton(problem, tol, max_steps, phi0, b0)
    solution.extras["coarse_levels"] = levels
    return solution


def _solve_gill_flow(problem, tol, max_steps, phi0):
    chart = problem.chart
    density = VolumeField(
        chart, herm_det(problem.omega.values) * np.exp(problem.F.values)
    )
    chi = HermitianMatrixField(chart, np.zeros(chart.shape + (chart.n, chart.n)))
    scenario = FlowScenario(problem.omega, 1e12, chi, density)
    scenario.step_tol = _GILL_STEP_TOL
    osc = best = np.inf
    steps = since_best = 0
    # the loop body holds the stop rules: tolerance, stall and step budget
    for state in _integrate(scenario, FlowState.initial(scenario, phi0), scenario.T0):
        steps += 1
        pd = state.phidot
        osc = float(pd.max() - pd.min())
        if osc <= 0.5 * tol:
            return _solution(problem, state.phi, 0.0, "gill-flow", steps, {"t_end": state.t})
        if osc < best:
            best, since_best = osc, 0
        else:
            since_best += 1
            if since_best >= _GILL_STALL_STEPS:
                raise NonConvergence(
                    f"gill-flow oscillation stalled at {best:.3e}: no new minimum "
                    f"in {since_best} steps (tol {tol:.1e})"
                )
        if steps >= max_steps:
            break
    raise NonConvergence(f"gill-flow oscillation {osc:.3e} after {steps} steps (tol {tol:.1e})")


def _bicgstab(op, rhs, tol, max_iter=400):
    """BiCGStab on real fields from x = rhs; returns (x, relative residual).

    A preconditioner goes into ``op`` from the right. x is the iterate
    with the smallest residual seen, x = 0 included, so a solve that
    diverges or stagnates hands back its best iterate, not its last one,
    and never one worse than no step; a converged solve stops at its first
    residual <= tol.
    """
    norm0 = max(float(np.max(np.abs(rhs))), 1e-300)
    best_x, best = np.zeros_like(rhs), norm0
    x = rhs
    r = rhs - op(x)
    r0 = r.copy()
    rho = alpha = omega_c = 1.0
    v = np.zeros_like(rhs)
    p = np.zeros_like(rhs)
    res = float(np.max(np.abs(r)))
    if res < best:
        best_x, best = x, res
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
        v = op(p)
        denom = float(np.vdot(r0, v).real)
        if abs(denom) < 1e-300:
            break
        alpha = rho / denom
        s = r - alpha * v
        x = x + alpha * p
        res = float(np.max(np.abs(s)))
        if res < best:
            best_x, best = x, res
        if res <= tol * norm0:
            break
        t = op(s)
        tt = float(np.vdot(t, t).real)
        if tt < 1e-300:
            break
        omega_c = float(np.vdot(t, s).real) / tt
        x = x + omega_c * s
        r = s - omega_c * t
        res = float(np.max(np.abs(r)))
        if res < best:
            best_x, best = x, res
        if res <= tol * norm0:
            break
    return best_x, best / norm0


def _solve_newton(problem, tol, max_steps, phi, b, krylov_cap=None):
    """Damped Newton from (phi, b); with ``krylov_cap`` every Krylov solve
    runs at most that many iterations, and one that misses its tolerance
    raises NonConvergence. Near the grid's rounding floor the residual of the
    normalized (phi, b) can round above tol although the last iterate's was
    below it; Newton then goes on from the normalized pair, within
    ``max_steps``, and never returns a residual above tol."""
    chart = problem.chart
    res_field, parts = _residual_field(problem, phi, b)
    res = float(np.max(np.abs(res_field)))
    iterations = 0
    floor = ""
    while True:
        if res <= tol:
            phi, b, res_field, parts = _normalized(problem, phi, b)
            res = float(np.max(np.abs(res_field)))
            if res <= tol:
                return EllipticSolution(
                    problem, ScalarField(chart, phi), b, res, "newton-continuation",
                    iterations, parts,
                )
            floor = (
                f"; normalizing phi last rounded a residual below tol up to {res:.3e}: "
                f"tol {tol:.1e} is at this grid's rounding floor"
            )
        if iterations >= max_steps:
            raise NonConvergence(
                f"newton residual {res:.3e} after {iterations} steps" + floor
            )
        # tr(Gp^-1 H) as real weights times the Hessian's live real components
        weights = chart.components_trace_weights(components_inv(parts))

        def lap(spec):
            # Delta' of the field with half spectrum spec
            return sum(w * h for w, h in zip(weights, chart.hessian_components(spec)))

        # right preconditioner M^-1: the inverse flat Laplacian
        # tr(Gbar^-1 H) of the mean metric Gbar, as a half-spectrum
        # multiplier; the Krylov solve runs on y with dphi = M^-1 y. The
        # stacked components reduce node by node, as the matrix field did
        Gbar_inv = components_inv(list(chart.mean(np.stack(parts, axis=-1))))
        inverse = chart.laplacian_inverse(Gbar_inv)
        proj = lambda v: v - v.mean()
        rhs = -proj(res_field)
        # forcing term: tighter as res falls, but no tighter than the
        # accuracy that brings the next residual to tol (Eisenstat-Walker)
        lin_tol = max(1e-12, 0.5 * tol / res, min(1e-2, 0.05 * res))
        op = lambda v: proj(lap(chart.rfft(v) * inverse))
        cap = {} if krylov_cap is None else {"max_iter": krylov_cap}
        y, lin_res = _bicgstab(op, rhs, lin_tol, **cap)
        if krylov_cap and lin_res > lin_tol:
            raise NonConvergence(
                f"Krylov solve reached {lin_res:.3e} against tolerance "
                f"{lin_tol:.3e} in {krylov_cap} iterations"
            )
        dspec = chart.rfft(y) * inverse
        dphi = chart.irfft(dspec)
        db = float((res_field + lap(dspec)).mean())

        s = 1.0
        while s >= 2.0 ** -24:
            try:
                trial_field, trial_parts = _residual_field(
                    problem, phi + s * dphi, b + s * db
                )
            except NotPositiveDefinite:
                s *= 0.5  # positivity lost inside the line search
                continue
            trial_res = float(np.max(np.abs(trial_field)))
            if trial_res <= (1.0 - 0.25 * s) * res or trial_res <= tol:
                phi = phi + s * dphi
                b = b + s * db
                res_field, parts, res = trial_field, trial_parts, trial_res
                break
            s *= 0.5
        else:
            # the part of the residual in the modes no Wirtinger operator
            # sees, which no Newton step can move: the modes strip_invisible
            # removes, less the mean, which b absorbs
            invisible = res_field - chart.strip_invisible(res_field) - res_field.mean()
            raise NonConvergence(
                f"newton line search stalled at residual {res:.3e}, "
                f"{float(np.max(np.abs(invisible))):.3e} of it in modes no Wirtinger "
                f"operator sees; the last Krylov solve reached {lin_res:.3e} against "
                f"tolerance {lin_tol:.3e}" + floor
            )
        iterations += 1


@dataclass
class EstimateReport:
    oscillation: float
    A_grid: tuple
    C_coarse: tuple
    C_fine: tuple
    stable_A: object
    stability_ratio: tuple


def certify_estimates(solution, A_grid, tol=None):
    """Oscillation and trace-growth statistics with a grid-doubling check.

    For each A reports C(A) = sup_M tr_g g' exp(-A (phi - inf phi)) on the
    solution's grid and on a Fourier-doubled grid, and the smallest A whose
    C(A) is stable within 10 percent under the doubling. The doubled problem
    is re-solved starting from the Fourier-refined solution (nested
    iteration); that solve still iterates until its own residual is <= tol,
    so a start that is not yet converged on the fine grid takes more steps.
    It uses the method that found ``solution``.
    """
    problem = solution.problem

    def stats(sol):
        # tr_g g' from the updated metric the solution kept
        omega_inv = components_inv(herm_components(sol.problem.omega.values))
        tr = components_trace(omega_inv, sol.metric_parts)
        phi = sol.phi.values
        shifted = phi - phi.min()
        osc = float(phi.max() - phi.min())
        C = tuple(float(np.max(tr * np.exp(-A * shifted))) for A in A_grid)
        return osc, C

    osc, C1 = stats(solution)
    fine_problem = problem.refined()
    fine_solution = solve_elliptic(
        fine_problem, method=solution.method, tol=tol,
        phi0=refine_field(solution.phi).values, b0=solution.b,
    )
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
