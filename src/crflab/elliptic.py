"""Elliptic complex Monge-Ampere solves and empirical a-priori certificates.

Solves, on a torus chart with background metric omega,

    log det(g + Hess phi) - log det g = F + b,    omega + i ddbar phi > 0,

for the potential phi and the uniquely determined constant b, by either
integrating the parabolic relaxation

    d_t phi = log det(g + Hess phi)/det(g) - F - (its grid mean)

to stationarity in the flow engine's one time loop, `flow._integrate` (the
spatial oscillation of d_t phi bounds the residual, and the mean taken off
keeps phi from drifting with slope b on the grid), or by damped Newton on
(phi, b) with the linearized operator Delta' (the complex Laplacian of the
updated metric G') applied matrix-free and inverted by BiCGStab on the
mean-zero subspace, right-preconditioned: the Krylov solve runs on
A M^-1 y = rhs, and the step is M^-1 y = L^-1 (y / sigma). L is the flat
Laplacian of the mean metric Gbar, whose inverse is a half-spectrum
multiplier (`TorusChart.laplacian_inverse`), and sigma = tr(G'^-1 Gbar) / n
is the local scale of Delta' against L, taken node by node from the inverse
the Krylov weights already build: scale by the local coefficient, then invert
the constant-coefficient operator (Concus & Golub, SIAM J. Numer. Anal. 10,
1973). For n = 1 that makes A M^-1 the identity but for the invisible modes.
One operator apply is one scaling and one `rfft` of y, the live real Hessian
components of M^-1 y (at most n^2, one `irfft` each; see
`TorusChart.hessian_live`), and their sum against real weights built once
per Newton iteration. BiCGStab stops after `_KRYLOV_STALL` iterations
without a new best residual; an uncapped solve that misses its tolerance
is repeated with sigma = 1, whose best is kept when it is smaller: at an
under-resolved grid's floor the scaled solve can stall with visible modes
left. Everything spectral comes from `geometry` (this module makes no
transform of its own).

The residual forms the updated metric's real components, in the order of
`herm_components`, with `FlowScenario`'s recipe for every n: omega's
components plus the Hessian of phi's half spectrum (`TorusChart.plus_hessian`),
with `components_logdet` as the positivity test. Everything downstream reads
those components: the Krylov weights tr(G'^-1 H) are
`components_trace_weights` of `components_inv`, and the preconditioner is
`laplacian_inverse` of `components_inv` of their grid mean: for n <= 2 no
matrix is built or inverted. `EllipticProblem` is frozen; it keeps omega as
a field of its real components (``omega.parts``), so it holds no matrix
until ``omega.values`` is read, and takes the background's log det once, as
its positivity test, for every residual to read.

Gill-flow's limit does not depend on the path to it, so its steps need to
be stable and keep the metric positive, not to be accurate in time. Its
scenario, `_Relaxation`, is only a relaxation: omega is the reference at
every t, and its step tolerance is 1e-2, where the flows keep 1e-6. A 32-node
n = 1 problem at tol 1e-8 then relaxes in 17 steps, and the n = 2 recipe of
the newton_n2 benchmark workload at tol 1e-6 from phi = 0 in 48, 50, 52 and
54 steps on 32^2, 64^2, 128^2 and 256^2, with phi within 2.4e-7 of Newton's.
A step that loses positivity or underflows raises NonConvergence: the limit
is positive definite, so only the grid can fail to reach it.

Both start from phi = 0 unless given a start phi0 (Newton also takes b0)
and share one ending, `_on_grid` and then `_solution`: phi is a canonical half
spectrum (`TorusChart.canonical_spec`), zero on the modes no Wirtinger
operator sees (the chart's `invisible` modes, which `laplacian_inverse`
zeroes: the mean and the modes whose every wavenumber is zero or Nyquist), it
goes to the grid once and is normalized there, and its grid residual, with
the mean moved into b, is the returned residual.
Gill-flow's final phi is canonicalized first; so is Newton's start, whose
grid residual decides whether it already meets tol. Newton then iterates on
the spectrum itself: its step is zero on those modes, so the iterate stays
canonical, and each residual takes the spectrum, with no transform of phi.
The grid re-rounds phi, and the Hessian multiplies that rounding by up to
k^2 (about 7e-12 on the newton_n2 recipe at 128^2, 4e-11 at 256^2 and 2e-10
at 512^2). So once the spectral residual is within tol, phi goes to the grid
once; should the grid residual be above tol, the spectrum steps on to half
of tol and phi goes to the grid once more, and a grid residual still above
tol raises NonConvergence naming the grid's rounding floor with both
residuals. No residual above tol is returned, and phi is never taken back
from the grid, so nothing ping-pongs between the two.

Without a phi0, on a chart with at least 128 nodes on each active axis, both
methods first solve a chain of coarser problems (nested iteration, the first
leg of full multigrid; `_solve_nested`, which takes the method's level
solve): each level keeps every other node of each active axis of the one
above (`EllipticProblem.coarsened`, whose `coarsen_field` injects omega's
components, so no level assembles a matrix), down to 32 nodes per axis, and
the coarsest starts from (0, b0). A level solves to max(tol, its chart's
default tol), with each Krylov solve capped at 25 iterations, or with at
most 64 gill-flow steps; a tighter coarse target would only chase the
residual floor of an under-resolved grid. Its Fourier-refined (phi, b)
starts the next level, which canonicalizes it like any start. The gain rests
on the problem being resolved on 32 nodes per axis, and the chain tests that
as it goes: the first level that does not converge from its start (a Krylov
miss, a stalled line search or relaxation, a spent step cap, or a start that
is not positive definite) ends the chain, and the problem's own solve starts
from (0, b0), exactly as without the chain; so does a refined start that is
not positive definite on the full grid. The problem's own solve iterates to
tol and is the only gate: `EllipticSolution.iterations` counts its steps,
and extras["coarse_levels"] records the levels. On the newton_n2 recipe at
256^2 gill-flow takes 48, 10 and 1 steps on 32^2, 64^2 and 128^2, then one
step, in about 0.1 s against 1.2 s from phi = 0. Smaller charts have no
chain.

An `EllipticSolution` keeps the metric components of its final residual
(``metric_parts``), so the updated metric
(`HermitianMatrixField.from_components`) and the certificate need no further
Hessian. When Newton's line search stalls, its message gives the part of the
residual in the modes no Wirtinger operator sees, a floor no step can lower.

`certify_estimates` measures the oscillation bound and the second-order
statistic C(A) = sup tr_g g' e^{-A(phi - inf phi)}, with tr_g g' from the
kept components (`components_trace`), re-solving on a Fourier-refined grid
to test stability under grid doubling. `EllipticProblem.refined`, through
`refine_field`, pads the real half spectra of omega's components one at a
time, so the refined problem assembles no matrix either. The re-solve
starts from the refined coarse solution and iterates to its own tolerance.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, NotPositiveDefinite, PositivityLost, StepUnderflow
# step is unused here; perfbench's tests check that its tracer patches this binding too
from .flow import FlowScenario, FlowState, _integrate, step
from .geometry import (
    HermitianMatrixField,
    ScalarField,
    coarsen_field,
    components_inv,
    components_logdet,
    components_trace,
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
# a 32^2 level that misses 1e-6 then wastes 45 operator applies (79 without
# the stall stop below), uncapped 829
_COARSE_KRYLOV_CAP = 25
# a BiCGStab solve stops after this many iterations with no new best
# residual: converging solves set one every iteration or two, while at an
# under-resolved grid's floor (32^2 at tol 1e-8) the best stays put after
# 4-8 iterations, and the 400-iteration cap spent 800 applies a solve
_KRYLOV_STALL = 5
# gill-flow stops after this many steps without a new oscillation minimum:
# on 16 nodes at tol 1e-6 it stalls at 1.48e-5; converging runs set one each step
_GILL_STALL_STEPS = 100
# gill-flow's step tolerance: its limit does not depend on the path, so its
# steps need stability and positivity, not time accuracy. Against 1e-3 it
# cuts a 32-node n = 1 solve at tol 1e-8 from 24 to 17 steps (202 at the
# flows' 1e-6) and the newton_n2 recipe at 1e-6 on 32^2-256^2 from 64-71 to
# 48-54, within 2.4e-7 of Newton. In random sweeps of 820 recipes (n = 1, 2;
# 16-64 nodes; cos and peaked waves) every one that converged at 1e-3 did at
# 1e-2, within 0.95 tol, in 22 % fewer steps; 3e-2 and 1e-1 saved at most
# 5 more a solve
_GILL_STEP_TOL = 1e-2
# step cap per coarse gill-flow level: converging 32^2 levels took at most 53
# steps in 1145 random 32-node recipes (n = 1 levels: 4 of 157 took 72-127
# and fall back); the failing 32^2 level of missed_level_problem(128) ran 150 steps
_COARSE_GILL_STEPS = 64
# step budgets of a solve on its own grid: Newton iterations and gill-flow steps
_NEWTON_STEPS = 40
_GILL_STEPS = 2_000_000


@dataclass(frozen=True)
class EllipticProblem:
    omega: HermitianMatrixField
    F: ScalarField
    normalization: str = "mean"  # "mean" or "sup"

    def __post_init__(self):
        self.chart.require_same(self.F.chart)
        # keep omega's components, not the caller's matrix
        omega = HermitianMatrixField.from_components(self.chart, self.omega.parts)
        object.__setattr__(self, "omega", omega)
        try:
            # the problem is frozen, so this stays the log det of its omega
            object.__setattr__(self, "_logdet", components_logdet(omega.parts))
        except NotPositiveDefinite:
            raise NotPositiveDefinite("background metric is not positive definite") from None
        if self.normalization not in ("mean", "sup"):
            raise ValueError("normalization must be 'mean' or 'sup'")

    @property
    def chart(self):
        return self.omega.chart

    def refined(self):
        """The problem on the Fourier-doubled grid, omega refined one real
        component at a time."""
        return EllipticProblem(refine_field(self.omega), refine_field(self.F), self.normalization)

    def coarsened(self):
        """The problem on every other node of each active axis, as
        `coarsen_field` keeps them (an inactive axis has one); its metric
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


def _residual_field(problem, phi_values, b, spec=None):
    """(residual field, real components of the updated metric omega + i ddbar
    phi in the order of `herm_components`) of (phi, b); raises
    NotPositiveDefinite unless that metric is positive definite. ``spec``,
    when given, is phi's half spectrum, and then ``phi_values`` may be None."""
    chart = problem.chart
    if spec is None:
        spec = chart.rfft(phi_values)
    parts = chart.plus_hessian(problem.omega.parts, spec)
    return components_logdet(parts) - problem._logdet - problem.F.values - b, parts


def _on_grid(problem, spec, b):
    """Both routes end here: the normalized grid phi of a canonical half
    spectrum, and its residual with the mean moved into b. Returns (phi, b,
    residual field, updated metric's components, the field's max norm)."""
    phi_values = problem.chart.irfft(spec)
    phi_values -= phi_values.mean() if problem.normalization == "mean" else phi_values.max()
    res_field, parts = _residual_field(problem, phi_values, b)
    mean = float(res_field.mean())
    res_field = res_field - mean
    return phi_values, b + mean, res_field, parts, float(np.max(np.abs(res_field)))


def _solution(problem, grid, method, iterations, extras=None):
    # the EllipticSolution of an `_on_grid` tuple
    phi_values, b, _, parts, residual = grid
    return EllipticSolution(
        problem, ScalarField(problem.chart, phi_values), b,
        residual, method, iterations, parts, extras or {},
    )


def solve_elliptic(problem, method="newton-continuation", tol=None, phi0=None, b0=None):
    """Solve the elliptic equation; returns an EllipticSolution.

    tol defaults to 1e-8 for n = 1 charts and 1e-6 otherwise (max-norm of
    the equation residual after fixing b) and must be finite and positive.
    A solve takes at most 40 Newton iterations or 2,000,000 gill-flow steps
    on the problem's own grid. ``phi0`` (values on the problem's chart,
    default 0) is the start of both methods; ``b0`` (default -mean F) is
    Newton's starting constant. Without phi0, either method on a chart of
    128 or more nodes per active axis starts from a chain of coarser solves
    by the same method (see the module docstring). A start only shortens the
    path: the solve still iterates to its own tol.
    """
    tol = _default_tol(problem.chart) if tol is None else float(tol)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
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
        solve = _solve_gill_flow
    elif method == "newton-continuation":
        solve = _solve_newton
    else:
        raise ValueError(f"unknown method {method!r}")
    if nested:
        return _solve_nested(problem, tol, phi0, b0, solve)
    return solve(problem, tol, phi0, b0, coarse=False)


def _default_tol(chart):
    return 1e-8 if chart.n == 1 else 1e-6


def _active_nodes(chart):
    return tuple(chart.shape[a] for a in chart.active_axes)


def _solve_nested(problem, tol, phi0, b0, solve):
    """``problem`` solved by ``solve`` (`_solve_newton` or
    `_solve_gill_flow`, whose ``coarse`` caps a coarse level's work) started
    from its coarsened problems, solved from the coarsest up. The first level
    that fails from its start ends the chain, and ``problem`` then starts
    from (phi0, b0), as it does when the refined start is not positive
    definite. extras["coarse_levels"] gets (nodes per active axis,
    iterations) per level, coarsest first, with iterations None for the
    level that failed."""
    chain = [problem]
    while min(_active_nodes(chain[-1].chart)) >= 2 * _COARSEST_NODES:
        chain.append(chain[-1].coarsened())
    phi, b = np.zeros(chain[-1].chart.shape), b0
    levels = []
    for level in chain[:0:-1]:
        level_tol = max(tol, _default_tol(level.chart))
        try:
            sol = solve(level, level_tol, phi, b, coarse=True)
        except (NonConvergence, NotPositiveDefinite):
            levels.append((_active_nodes(level.chart), None))
            phi, b = phi0, b0
            break
        levels.append((_active_nodes(level.chart), sol.iterations))
        phi, b = refine_field(sol.phi).values, sol.b
    try:
        solution = solve(problem, tol, phi, b, coarse=False)
    except NotPositiveDefinite:
        # only a start can fail this way: Newton's line search backtracks,
        # and gill-flow's steps fail as NonConvergence
        solution = solve(problem, tol, phi0, b0, coarse=False)
    solution.extras["coarse_levels"] = levels
    return solution


class _Relaxation(FlowScenario):
    """Gill-flow's pseudo-time problem: d_t phi = log det(omega + i ddbar phi)
    - log det omega - F, less its grid mean. The reference is omega at every
    t, so there is no horizon, chi or drift monitor; a constant in d_t phi
    moves neither the stationary phi nor the oscillation of d_t phi, and
    without it phi's mean does not drift on the grid."""

    step_tol = _GILL_STEP_TOL

    def __init__(self, problem):
        self.chart = problem.chart
        self.omega = problem.omega
        self._log_density = problem._logdet + problem.F.values

    def _reference_parts(self, t):
        # omega's components; plus_hessian never writes them
        return self.omega.parts

    def rhs(self, phi, t, spec=None):
        phidot, parts = super().rhs(phi, t, spec)
        return phidot - phidot.mean(), parts


def _solve_gill_flow(problem, tol, phi0, b0, coarse=False):
    """Gill-flow from phi0, with at most `_GILL_STEPS` steps, or
    `_COARSE_GILL_STEPS` on a ``coarse`` level. b0, Newton's starting
    constant, plays no part: the returned b is the final residual's mean."""
    max_steps = _COARSE_GILL_STEPS if coarse else _GILL_STEPS
    scenario = _Relaxation(problem)
    try:
        state = FlowState.initial(scenario, phi0)
    except PositivityLost:
        # the right side names a start outside the positive cone a loss of positivity
        raise NotPositiveDefinite("gill-flow start is not positive definite") from None
    osc = float(state.phidot.max() - state.phidot.min())
    best = np.inf
    steps = since_best = 0
    try:
        # the loop body holds the stop rules: tolerance, stall and step budget
        for state in _integrate(scenario, state, math.inf):
            steps += 1
            pd = state.phidot
            osc = float(pd.max() - pd.min())
            if osc <= 0.5 * tol:
                grid = _on_grid(problem, problem.chart.canonical_spec(state.phi), 0.0)
                return _solution(problem, grid, "gill-flow", steps, {"t_end": state.t})
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
    except (PositivityLost, StepUnderflow) as err:
        # the relaxation's limit is positive definite, so a step that leaves
        # the cone or underflows is the grid's failure to reach it
        raise NonConvergence(
            f"gill-flow step {steps + 1} failed at oscillation {osc:.3e}: {err} (tol {tol:.1e})"
        ) from err
    raise NonConvergence(f"gill-flow oscillation {osc:.3e} after {steps} steps (tol {tol:.1e})")


def _bicgstab(op, rhs, tol, max_iter=400):
    """BiCGStab on real fields from x = rhs; returns (x, relative residual).

    A preconditioner goes into ``op`` from the right. x is the iterate
    with the smallest residual seen, x = 0 included, so a solve that
    diverges or stagnates hands back its best iterate, not its last one,
    and never one worse than no step; a converged solve stops at its first
    residual <= tol, and one that finds no smaller residual in
    `_KRYLOV_STALL` iterations stops there.
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
    last_best = 0
    for it in range(max_iter):
        if it - last_best > _KRYLOV_STALL:
            break
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
            best_x, best, last_best = x, res, it
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
            best_x, best, last_best = x, res, it
        if res <= tol * norm0:
            break
    return best_x, best / norm0


def _solve_newton(problem, tol, phi, b, coarse=False):
    """Damped Newton from (phi, b) on phi's canonical half spectrum, with at
    most `_NEWTON_STEPS` iterations; on a ``coarse`` level every Krylov solve
    runs at most `_COARSE_KRYLOV_CAP` iterations, and one that misses its
    tolerance raises NonConvergence.

    The start is canonicalized once, and its grid residual decides whether
    it already meets tol. Otherwise the spectrum steps until its residual is
    within tol, and phi goes to the grid once. Should the rounding of phi on
    the grid lift the residual above tol, the spectrum steps on to half of
    tol and phi goes to the grid once more; a grid residual still above tol
    raises NonConvergence naming the grid's rounding floor, so no residual
    above tol is returned."""
    krylov_cap = _COARSE_KRYLOV_CAP if coarse else None
    spec = problem.chart.canonical_spec(phi)
    grid = _on_grid(problem, spec, b)
    _, b, res_field, parts, res = grid
    grid_res = res
    iterations = 0
    for target in (tol, 0.5 * tol):
        if res > target:
            while res > target:
                if iterations >= _NEWTON_STEPS:
                    raise NonConvergence(f"newton residual {res:.3e} after {iterations} steps")
                spec, b, res_field, parts, res = _newton_step(
                    problem, spec, b, res_field, parts, res, target, krylov_cap
                )
                iterations += 1
            grid = _on_grid(problem, spec, b)
            grid_res = grid[4]
        if grid_res <= tol:
            return _solution(problem, grid, "newton-continuation", iterations)
    raise NonConvergence(
        f"newton residual {res:.3e} on phi's half spectrum is {grid_res:.3e} on the "
        f"grid after {iterations} steps: tol {tol:.1e} is below this grid's rounding floor"
    )


def _newton_step(problem, spec, b, res_field, parts, res, target, krylov_cap):
    """One damped Newton step from the half spectrum ``spec`` and b, whose
    residual field and updated metric's components are given; returns the
    new (spec, b, residual field, components, residual)."""
    chart = problem.chart
    # tr(Gp^-1 H) as real weights times the Hessian's live real components
    Gp_inv = components_inv(parts)
    weights = chart.components_trace_weights(Gp_inv)

    def lap(spec):
        # Delta' of the field with half spectrum spec
        return sum(w * h for w, h in zip(weights, chart.hessian_components(spec)))

    # right preconditioner M^-1 y = L^-1 (y / sigma): L is the flat
    # Laplacian tr(Gbar^-1 H) of the mean metric Gbar, a half-spectrum
    # multiplier, and sigma = tr(Gp^-1 Gbar) / n the local scale of Delta'
    # against L (Concus-Golub); the Krylov solve runs on y, and the step is
    # M^-1 y
    Gbar = [float(p.mean()) for p in parts]
    inverse = chart.laplacian_inverse(components_inv(Gbar))
    proj = lambda v: v - v.mean()
    rhs = -proj(res_field)
    # forcing term: tighter as res falls, but no tighter than the
    # accuracy that brings the next residual to target (Eisenstat-Walker)
    lin_tol = max(1e-12, 0.5 * target / res, min(1e-2, 0.05 * res))
    cap = {} if krylov_cap is None else {"max_iter": krylov_cap}

    def krylov(scale):
        # (y, relative residual, scale) of the solve preconditioned with 1/sigma = scale
        op = lambda v: proj(lap(chart.rfft(v * scale) * inverse))
        return _bicgstab(op, rhs, lin_tol, **cap) + (scale,)

    y, lin_res, scale = krylov(chart.n / components_trace(Gp_inv, Gbar))
    if krylov_cap and lin_res > lin_tol:
        raise NonConvergence(
            f"Krylov solve reached {lin_res:.3e} against tolerance "
            f"{lin_tol:.3e} in {krylov_cap} iterations"
        )
    if lin_res > lin_tol:
        # at an under-resolved grid's floor the scaled solve can stall with
        # visible modes left (32^2 at tol 1e-8: 4.3e-8, a quarter of it
        # invisible); the flat one's best leaves mostly the invisible part
        y, lin_res, scale = min((y, lin_res, scale), krylov(1.0), key=lambda out: out[1])
    # zero on the invisible modes, so the iterate stays canonical
    dspec = chart.rfft(y * scale) * inverse
    db = float((res_field + lap(dspec)).mean())

    # a Krylov solve that beat no step (lin_res 1) leaves nothing to search
    s = 1.0 if lin_res < 1.0 else 0.0
    while s >= 2.0 ** -24:
        trial = spec + s * dspec
        try:
            trial_field, trial_parts = _residual_field(problem, None, b + s * db, trial)
        except NotPositiveDefinite:
            s *= 0.5  # positivity lost inside the line search
            continue
        trial_res = float(np.max(np.abs(trial_field)))
        if trial_res <= (1.0 - 0.25 * s) * res or trial_res <= target:
            return trial, b + s * db, trial_field, trial_parts, trial_res
        s *= 0.5
    # the part of the residual in the modes no Wirtinger operator sees,
    # which no Newton step can move: the modes canonical_spec zeroes, less
    # the mean, which b absorbs
    invisible = res_field - chart.irfft(chart.canonical_spec(res_field)) - res_field.mean()
    raise NonConvergence(
        f"newton line search stalled at residual {res:.3e}, "
        f"{float(np.max(np.abs(invisible))):.3e} of it in modes no Wirtinger "
        f"operator sees; the last Krylov solve reached {lin_res:.3e} against "
        f"tolerance {lin_tol:.3e}"
    )


@dataclass
class EstimateReport:
    oscillation: float
    A_grid: tuple
    C_coarse: tuple
    C_fine: tuple
    stable_A: object
    stability_ratio: tuple


def _A_values(A_grid):
    """The A values of a certificate as floats; raises ValueError unless
    every one is finite."""
    A_grid = tuple(float(a) for a in A_grid)
    if not all(map(math.isfinite, A_grid)):
        raise ValueError(f"A values must be finite, got {A_grid}")
    return A_grid


def certify_estimates(solution, A_grid, tol=None):
    """Oscillation and trace-growth statistics with a grid-doubling check.

    For each A reports C(A) = sup_M tr_g g' exp(-A (phi - inf phi)) on the
    solution's grid and on a Fourier-doubled grid, and the smallest A whose
    C(A) is stable within 10 percent under the doubling. The doubled problem
    is re-solved starting from the Fourier-refined solution (nested
    iteration); that solve still iterates until its own residual is <= tol,
    so a start that is not yet converged on the fine grid takes more steps.
    It uses the method that found ``solution``. Every A must be finite;
    a ValueError says so before anything is solved.
    """
    A_grid = _A_values(A_grid)
    problem = solution.problem

    def stats(sol):
        # tr_g g' from the updated metric the solution kept
        omega_inv = components_inv(sol.problem.omega.parts)
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
        A_grid=A_grid,
        C_coarse=C1,
        C_fine=C2,
        stable_A=stable_A,
        stability_ratio=ratios,
    )
