"""Time stepping of the scalar metric-evolution equation on torus charts.

The metric flow d_t omega = -Ric(omega) reduces to the scalar equation

    d_t phi = log( det(ghat_t + Hess phi) / Omega0 ),   omega = ghat_t + i ddbar phi,

for a reference family ghat_t = g0 + t*chi and a positive density Omega0
with i ddbar log Omega0 = chi. The normalized variant integrates

    d_t phi = log( det(ghat_t + Hess phi) / Omega0 ) - phi,
    ghat_t = chi + e^{-t} (g0 - chi),

whose metric solves d_t omega = -Ric(omega) - omega; the two runs are
related by omega_norm(t) = omega(s)/(s+1) at t = log(s+1).

Stepping is exponential time differencing (Cox-Matthews ETDRK4) in Fourier
space over the active axes. The right side splits as L phi + N(phi, t) with
the diagonal operator L = (1/lambda_min) sum_i d_i d_ibar - d, where
lambda_min is omega's smallest eigenvalue at the step start and d the
coefficient of the -phi term (0 or 1). Since omega^{-1} <= 1/lambda_min, L
dominates the linearization tr(omega^{-1} ddbar) - d at every node, so the
stiff diffusion is integrated exactly and N keeps only the dominated rest:
no diffusion CFL limit binds dt. The phi-function coefficients are evaluated
elementwise on the grid, by recurrence for |z| >= 1 and by Taylor series
below, where the recurrence cancels. Every stage goes through the guarded
right side, so an interior stage that loses positivity raises.

dt is error-controlled and no step is rejected: the embedded order-2
exponential trapezoid, fed by the right side the new state evaluates anyway,
gives err, and the next step is dt * min(2, safety * (tol/err)^(1/3)). The
first step of a run takes safety * 2.7 / max|L|, where classical RK4 would
be stable on L; `_rk4` stays as the reference the tests compare against.
Positivity of omega is asserted after every accepted step; dropping below
the eigenvalue floor signals the approach to the maximal existence time.

`step` alone picks dt, runs ETDRK4 and checks the floor; one loop drives it
for `run`, `run_normalized` and `equivalence_check`, landing on t_end and on
sample times and writing one monitor row per state, whose ``dt`` is
t_k - t_{k-1}. A `FlowState` holds raw arrays (phi, d_t phi, omega), the
chart, omega's eigenvalue bounds, computed once per state, and the
controller's next step; fields are validated only where data enters or
leaves the engine.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateReference,
    NotPositiveDefinite,
    PositivityLost,
    PositivityUnreachable,
    StepUnderflow,
)
from .geometry import (
    HermitianMatrixField,
    ScalarField,
    TorusChart,
    VolumeField,
    herm_det,
    herm_eig_bounds,
    herm_logdet,
    i_ddbar,
    require_positive,
)
from .tensors import _check_closed, chern_ricci

# stability interval of classical RK4 on the negative real axis
_RK4_STABILITY = 2.7
# error tolerance of the step-size controller: sup-norm distance between the
# ETDRK4 update and the order-2 exponential trapezoid over one step
_STEP_TOL = 1e-6
# Taylor coefficients 1/(j + 3)! of phi_3 at |z| < 1; the remainder is below
# 1/20!, under 1e-17 relative to phi_3 >= 0.11 there
_PHI3_TAYLOR = tuple(1.0 / math.factorial(j + 3) for j in range(17))


@dataclass
class StepControl:
    safety: float = 0.8
    eps_pd: float = 1e-8
    dt_min: float = 1e-12

    def __post_init__(self):
        for name in ("safety", "eps_pd", "dt_min"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"control {name} = {value!r} must be positive and finite")


TRAJECTORY_COLUMNS = (
    "t",
    "dt",
    "volume",
    "eig_min",
    "eig_max",
    "phi_sup",
    "phi_inf",
    "phidot_sup",
    "phidot_inf",
    "q1_max",
    "q0_min",
    "schwarz_u_sup",
)


class TrajectoryRecord:
    """Per-step monitor rows with a fixed column order."""

    columns = TRAJECTORY_COLUMNS

    def __init__(self, meta=None):
        self.rows = []
        self.meta = dict(meta or {})

    def append(self, **kwargs):
        row = tuple(float(kwargs[c]) for c in self.columns)
        if self.rows and not row[0] > self.rows[-1][0]:
            raise ValueError("trajectory rows must be strictly increasing in t")
        self.rows.append(row)

    def column(self, name):
        idx = self.columns.index(name)
        return np.array([r[idx] for r in self.rows])

    def to_csv(self, path):
        from .io import write_csv

        write_csv(path, self.columns, self.rows)


class FlowScenario:
    """Reference data for one flow run.

    Attributes
    ----------
    g0 : initial metric field.
    T0 : horizon of the reference family (Q0 bookkeeping uses it).
    chi : closed (1,1) form with ghat_t = g0 + t*chi.
    omega_density : positive density Omega0; the equation's volume form is
        n! 2^n Omega0 dLeb, so the right side is log(det(g)/Omega0).
    f_T0 : the potential used to build chi and Omega0 (None when chi given
        directly).
    control : StepControl.
    """

    # coefficient of the -phi term on the right side; the stiff operator L carries it
    phi_decay = 0.0

    def __init__(
        self,
        g0,
        T0,
        chi,
        omega_density,
        f_T0=None,
        control=None,
        convergence_tol=1e-6,
        convergence_patience=50,
        closedness_tol=1e-10,
    ):
        chart = g0.chart
        chart.require_same(chi.chart)
        chart.require_same(omega_density.chart)
        self.chart = chart
        self.g0 = g0
        self.T0 = float(T0)
        self.chi = chi
        self.omega_density = omega_density
        self.f_T0 = f_T0
        self.control = control or StepControl()
        self.convergence_tol = float(convergence_tol)
        self.convergence_patience = int(convergence_patience)

        _check_closed(chart, chi.values, closedness_tol, "chi")
        self._log_density = np.log(omega_density.values)
        # lambda_min(g0 + t chi) is concave in t, so the endpoints decide
        for ts in (0.0, self.T0):
            lo, _ = herm_eig_bounds(self.reference_metric(ts))
            if not lo > 0.0:
                raise PositivityUnreachable(
                    f"reference family loses positivity at t = {ts:.4g}"
                )
        # constant for the drift monitor max_M(phi - A t)
        a = -np.inf
        for ts in np.linspace(0.0, self.T0, 9):
            val = herm_logdet(self.reference_metric(ts))
            a = max(a, float(np.max(val - self._log_density)))
        self.monitor_A = a + 0.1
        # Fourier symbol of sum_i d_i d_ibar, the flat part of the stiff operator
        self._laplacian = chart.laplacian_symbol(np.eye(chart.n))

    def reference_metric(self, t):
        return self.g0.values + t * self.chi.values

    def rhs(self, phi, t):
        """(log(det(ghat_t + Hess phi)/Omega0), metric); raises on loss of positivity."""
        return self._log_volume_ratio(phi, t)

    def _log_volume_ratio(self, phi, t):
        G = self.reference_metric(t) + self.chart.complex_hessian(phi)
        try:
            logdet = herm_logdet(G)
        except NotPositiveDefinite:
            raise PositivityLost("interior stage lost positivity", t=t) from None
        return logdet - self._log_density, G

    def state_at(self, t, phi):
        """The FlowState of potential values ``phi`` at time ``t``."""
        phidot, omega = self.rhs(phi, t)
        lo, hi = herm_eig_bounds(omega)
        return FlowState(t, phi, phidot, omega, self.chart, lo, hi)


@dataclass
class FlowState:
    """phi, d_t phi and omega as raw arrays on ``chart``, with omega's
    smallest and largest eigenvalue over all nodes, and the step size the
    controller proposes from here (None before the first step)."""

    t: float
    phi: np.ndarray
    phidot: np.ndarray
    omega: np.ndarray
    chart: TorusChart
    eig_min: float
    eig_max: float
    dt_next: float | None = None

    @staticmethod
    def initial(scenario):
        """The state at t = 0 with phi = 0."""
        state = scenario.state_at(0.0, np.zeros(scenario.chart.shape))
        if not state.eig_min >= scenario.control.eps_pd:
            raise NotPositiveDefinite(f"initial metric eigenvalue {state.eig_min:.3e}")
        return state


def scenario_from_metric(g0, T0, f_T0=None, **kwargs):
    """Build the reference family and volume density from an initial metric.

    With ``f_T0`` omitted the potential is derived spectrally: the trace of
    the target T0*Ric(omega_0) is inverted through the flat Laplacian, which
    recovers the exact discrete potential because Ric(omega_0) is itself a
    discrete complex Hessian. The resulting chi = (1/T0) i ddbar f - Ric(omega_0)
    vanishes at rounding level and Omega0 = det(g0) e^{f/T0} is the
    corresponding flat density.
    """
    chart = g0.chart
    T0 = float(T0)
    if T0 <= 0.0:
        raise ValueError("T0 must be positive")
    ric0 = chern_ricci(g0)
    if f_T0 is None:
        target = T0 * ric0.values
        trace = np.einsum("...ii->...", target).real
        f_vals = chart.laplacian_inverse(np.eye(chart.n))(trace)
        f_T0 = ScalarField(chart, f_vals)
    else:
        chart.require_same(f_T0.chart)
    hess_f = i_ddbar(f_T0)
    alpha_T0 = g0.values - T0 * ric0.values + hess_f.values
    if herm_eig_bounds(alpha_T0)[0] <= 0.0:
        raise PositivityUnreachable(
            "alpha_T0 + i ddbar f_T0 is not positive definite"
        )
    chi = HermitianMatrixField(chart, hess_f.values / T0 - ric0.values)
    density = VolumeField(
        chart, herm_det(g0.values) * np.exp(f_T0.values / T0)
    )
    return FlowScenario(g0, T0, chi, density, f_T0=f_T0, **kwargs)


def _rk4(rhs, phi, t, dt):
    k1, _ = rhs(phi, t)
    k2, _ = rhs(phi + 0.5 * dt * k1, t + 0.5 * dt)
    k3, _ = rhs(phi + 0.5 * dt * k2, t + 0.5 * dt)
    k4, _ = rhs(phi + dt * k3, t + dt)
    return phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _phi_functions(z):
    """phi_1, phi_2, phi_3 of real z <= 0, elementwise, stacked on axis 0.

    phi_k(z) = sum_j z^j / (j + k)! and phi_{k+1} = (phi_k - 1/k!) / z. For
    |z| >= 1 that recurrence, started from phi_1 = expm1(z)/z, divides by
    |z| >= 1 and loses no digits; below that it cancels, so there phi_3 is
    summed as a Taylor series and phi_2, phi_1 follow from
    phi_k = z phi_{k+1} + 1/k!, which multiplies by |z| < 1.
    """
    out = np.empty((3,) + z.shape)
    small = np.abs(z) < 1.0
    big = ~small
    zb = z[big]
    p = np.expm1(zb) / zb
    for k in range(3):
        out[k][big] = p
        p = (p - 1.0 / math.factorial(k + 1)) / zb
    zs = z[small]
    p = np.zeros_like(zs)
    for coef in _PHI3_TAYLOR[::-1]:
        p = p * zs + coef
    for k in (3, 2, 1):
        out[k - 1][small] = p
        p = p * zs + 1.0 / math.factorial(k - 1)
    return out


def _etdrk4(rhs, phi, t, dt, chart, symbol):
    """One Cox-Matthews ETDRK4 step of d_t phi = L phi + N(phi, t).

    L is diagonal in Fourier space over the active axes with the real
    ``symbol`` (on the grid, even in the wavevector), and N = rhs - L phi.
    Every stage goes through ``rhs``. Returns phi at t + dt and a function
    that maps the right side there to the order-2 exponential trapezoid
    e^{hL} phi + h (phi_1 - phi_2)(hL) N(phi, t) + h phi_2(hL) N(new, t + h),
    the embedded solution of the error estimate.
    """
    fft = chart.fft
    ifft = lambda spec: chart.ifft(spec).real

    def nonlinear(spec, s):
        return fft(rhs(ifft(spec), s)[0]) - symbol * spec

    z = dt * symbol
    e, e2 = np.exp(z), np.exp(0.5 * z)
    q = 0.5 * dt * _phi_functions(0.5 * z)[0]
    p1, p2, p3 = dt * _phi_functions(z)
    t2 = t + 0.5 * dt

    u = fft(phi)
    nu = fft(rhs(phi, t)[0]) - symbol * u
    a = e2 * u + q * nu
    na = nonlinear(a, t2)
    b = e2 * u + q * na
    nb = nonlinear(b, t2)
    c = e2 * a + q * (2.0 * nb - nu)
    nc = nonlinear(c, t + dt)
    new = (
        e * u
        + (p1 - 3.0 * p2 + 4.0 * p3) * nu
        + 2.0 * (p2 - 2.0 * p3) * (na + nb)
        + (4.0 * p3 - p2) * nc
    )

    def trapezoid(rhs_new):
        n_new = fft(rhs_new) - symbol * new
        return ifft(e * u + (p1 - p2) * nu + p2 * n_new)

    return ifft(new), trapezoid


def step(state, scenario, dt_max=None):
    """One accepted ETDRK4 step; returns the new FlowState.

    The stiff operator L = (1/lambda_min) sum_i d_i d_ibar - phi_decay is
    refrozen from the state's smallest eigenvalue, so it dominates the
    linearization tr(omega^-1 ddbar) - phi_decay at every node. With no
    error estimate yet, the first step of a run takes safety * 2.7 / max|L|,
    where classical RK4 would be stable on L; each step then proposes the
    next, never rejecting one: dt * min(2, safety * (tol/err)^(1/3)), err
    being the sup-norm gap to the embedded order-2 solution. A step
    shortened by ``dt_max`` proposes no more than it was given.
    """
    if not state.eig_min > 0.0:
        raise PositivityLost("metric not positive at step start", t=state.t)
    control = scenario.control
    symbol = scenario._laplacian / state.eig_min - scenario.phi_decay
    wanted = state.dt_next or control.safety * _RK4_STABILITY / -symbol.min()
    dt = wanted if dt_max is None else min(wanted, dt_max)
    if dt < control.dt_min:
        raise StepUnderflow(f"dt = {dt:.3e} underflow at t = {state.t:.6g}")
    t_new = state.t + dt
    phi, trapezoid = _etdrk4(scenario.rhs, state.phi, state.t, dt, scenario.chart, symbol)
    new = scenario.state_at(t_new, phi)
    if not new.eig_min >= control.eps_pd:
        raise PositivityLost(
            f"metric eigenvalue {new.eig_min:.3e} below floor at t = {t_new:.6g}",
            t=t_new,
            last_state=state,
        )
    err = max(float(np.max(np.abs(phi - trapezoid(new.phidot)))), 1e-300)
    cap = 2.0 * dt if dt == wanted else wanted
    new.dt_next = min(cap, dt * control.safety * (_STEP_TOL / err) ** (1.0 / 3.0))
    return new


def _monitor_row(state, scenario, dt):
    phi = state.phi
    pd = state.phidot
    t = state.t
    n = state.chart.n
    det = herm_det(state.omega)
    q0 = (scenario.T0 - t) * pd + phi + n * t
    q1 = t * pd - phi - n * t
    u = herm_det(scenario.g0.values) / det
    return dict(
        t=t,
        dt=dt,
        # omega^n = n! 2^n det(g) dLeb, as in geometry.metric_volume
        volume=math.factorial(n) * 2.0 ** n * state.chart.integral(det),
        eig_min=state.eig_min,
        eig_max=state.eig_max,
        phi_sup=phi.max(),
        phi_inf=phi.min(),
        phidot_sup=pd.max(),
        phidot_inf=pd.min(),
        q1_max=q1.max(),
        q0_min=q0.min(),
        schwarz_u_sup=u.max(),
    )


def _integrate(scenario, state, t_end, record, samples=None):
    """Yield each accepted state after ``state`` up to t_end, each state
    adding a monitor row to ``record``. Steps land on t_end and on each key
    of ``samples`` (to 1e-12), which is set to the metric there; keys never
    reached are dropped."""
    stops = sorted(samples or ())
    record.append(**_monitor_row(state, scenario, 0.0))
    while True:
        while stops and state.t >= stops[0] - 1e-12:
            samples[stops.pop(0)] = state.omega
        if not state.t < t_end - 1e-12:
            break
        prev = state
        try:
            state = step(prev, scenario, dt_max=min(stops[:1] + [t_end]) - prev.t)
        except PositivityLost as err:
            err.record, err.last_state = record, prev
            raise
        record.append(**_monitor_row(state, scenario, state.t - prev.t))
        yield state
    for s in stops:
        del samples[s]


def run(scenario, t_end, state=None, callback=None):
    """Integrate to t_end (or early convergence); monitors every step.

    Convergence is declared when the per-unit-time update rate
    sup|dphi|/dt stays below ``convergence_tol`` for ``convergence_patience``
    consecutive whole time units. Step errors propagate with the last good
    state and partial record attached.
    """
    t_end = float(t_end)
    if t_end > scenario.T0 + 1e-12:
        raise ValueError("t_end exceeds the scenario horizon T0")
    state = state or FlowState.initial(scenario)
    record = TrajectoryRecord(meta={"mode": "unnormalized"})
    quiet_since = None
    prev = state
    for state in _integrate(scenario, state, t_end, record):
        # rate of the mean-free update: the spatial mean of phi is gauge
        # (it drops out of i ddbar phi) and drifts linearly in general
        dphi = state.phi - prev.phi
        rate = float(np.max(np.abs(dphi - dphi.mean()))) / (state.t - prev.t)
        prev = state
        if callback is not None:
            callback(state, record)
        if rate < scenario.convergence_tol:
            if quiet_since is None:
                quiet_since = state.t
            elif state.t - quiet_since >= scenario.convergence_patience:
                record.meta["converged_at"] = state.t
                break
        else:
            quiet_since = None
    return record, state


def ricci_sup_norm(omega):
    """Certificate ||Ric(omega)||_inf, max over nodes and entries."""
    return float(np.max(np.abs(chern_ricci(omega).values)))


# -- normalized mode -----------------------------------------------------------


class NormalizedScenario(FlowScenario):
    """Reference family of the normalized flow built over a FlowScenario.

    The limiting form of the family is the scenario's chi; on charts with
    vanishing first Bott-Chern class no volume form makes that limit
    positive, so running requires an explicit positive ``target_form``
    acknowledgment, recorded in the trajectory metadata (the hypothesis
    c1(M) < 0 of the long-time convergence statement is unavailable here).
    """

    phi_decay = 1.0

    def __init__(self, base, target_form=None):
        vars(self).update(vars(base))
        limit_lo, _ = herm_eig_bounds(base.chi.values)
        if limit_lo <= 0.0:
            if target_form is None:
                raise DegenerateReference(
                    "the limiting reference form -Ric(Omega) is not positive "
                    "definite on this chart; pass an explicit positive "
                    "target_form to run the degenerate normalized flow"
                )
            self.chart.require_same(target_form.chart)
            require_positive(target_form, what="target_form")
            self.target_note = "degenerate reference; user target form recorded"
        else:
            self.target_note = "positive limiting reference"

    def reference_metric(self, t):
        decay = math.exp(-t)
        return self.chi.values * (1.0 - decay) + decay * self.g0.values

    def rhs(self, phi, t):
        log_ratio, G = self._log_volume_ratio(phi, t)
        return log_ratio - phi, G


def run_normalized(scenario, t_end, target_form=None, sample_times=()):
    """Integrate the normalized potential equation; returns
    (TrajectoryRecord, FlowState, samples) where samples maps requested
    times to metric values."""
    norm = NormalizedScenario(scenario, target_form)
    record = TrajectoryRecord(
        meta={"mode": "normalized", "target_note": norm.target_note}
    )
    samples = dict.fromkeys(float(s) for s in sample_times)
    state = FlowState.initial(norm)
    for state in _integrate(norm, state, float(t_end), record, samples):
        pass
    return record, state, samples


def equivalence_check(scenario, s_end=5.0, samples=21):
    """Sup-norm agreement between the two integrations.

    Runs the unnormalized flow to s_end and the normalized flow to
    log(s_end + 1), comparing omega_norm(t_j) against omega(s_j)/(s_j + 1)
    at t_j = log(s_j + 1).
    """
    t_samples = np.linspace(0.0, math.log(s_end + 1.0), samples)
    s_samples = np.expm1(t_samples)

    stored = dict.fromkeys(float(s) for s in s_samples)
    state = FlowState.initial(scenario)
    for _ in _integrate(scenario, state, s_samples[-1], TrajectoryRecord(), stored):
        pass

    record, _, nsamples = run_normalized(
        scenario, t_samples[-1], target_form=scenario.g0, sample_times=t_samples
    )
    disc = 0.0
    for t_j, s_j in zip(t_samples, s_samples):
        a = nsamples[float(t_j)]
        b = stored[float(s_j)] / (s_j + 1.0)
        disc = max(disc, float(np.max(np.abs(a - b))))
    return {"max_discrepancy": disc, "normalized_record": record}


# -- checkpointing --------------------------------------------------------------


def write_checkpoint(path, state, dt_hint):
    from .io import write_snapshot

    write_snapshot(path, ScalarField(state.chart, state.phi), footer=(state.t, dt_hint))


def read_checkpoint(path, scenario):
    """The stored state, continuing with the footer's step; raises
    PositivityLost below the eigenvalue floor."""
    from .io import read_snapshot

    phi, footer = read_snapshot(path, chart=scenario.chart, want_footer=True)
    t, dt = footer
    state = scenario.state_at(t, phi.values)
    if not state.eig_min >= scenario.control.eps_pd:
        raise PositivityLost(
            f"checkpoint metric eigenvalue {state.eig_min:.3e} below floor at t = {t:.6g}",
            t=t,
        )
    if math.isfinite(dt) and dt > 0.0:
        state.dt_next = dt
    return state
