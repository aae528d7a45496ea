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
space over the active axes: the state and the stages are half spectra of
`TorusChart.rfft`, and each stage's right side takes its complex Hessian
from the stage spectrum instead of transforming the grid values back. A new
state transforms its grid phi afresh for its right side and keeps that half
spectrum, from which the next step starts. So a state depends only on its
own values, and a resumed run, which transforms the checkpoint's phi the
same way, repeats an uninterrupted one bitwise.

The right side works on real components, in the order of `herm_components`,
for every n: a scenario reads g0's and chi's contiguous components
(`HermitianMatrixField.parts`), forms ghat_t's from them, adds the Hessian
of the stage spectrum with `TorusChart.plus_hessian` (one batched inverse
transform for all its live components) and takes `components_logdet`, the
one positivity test. ghat_t's components are built once per distinct time
and kept read-only until the next: a step's five right sides meet only two
new times, t + dt/2 (twice) and t + dt (again in the new state), its first
being at the previous state's time. The right side returns the metric's
components; a state keeps them, its eigenvalue bounds and its monitor row's
det read them, and only `FlowState.omega`, for a sample or a certificate,
assembles the complex matrix.

The right side splits as L phi + N(phi, t) with
the diagonal operator L = (1/lambda_min) sum_i d_i d_ibar - d, where
lambda_min is omega's smallest eigenvalue at the step start and d the
coefficient of the -phi term (0 or 1). Since omega^{-1} <= 1/lambda_min, L
dominates the linearization tr(omega^{-1} ddbar) - d at every node, so the
stiff diffusion is integrated exactly and N keeps only the dominated rest:
no diffusion CFL limit binds dt. The phi-function coefficients are evaluated
elementwise on the grid, by recurrence for |z| >= 1 and by Taylor series
below, where the recurrence cancels, in one evaluation per step for both
hL/2 and hL. Every stage goes through the guarded
right side, so an interior stage that loses positivity raises.

dt is error-controlled and no step is rejected: the embedded order-2
exponential trapezoid, fed by the right side the new state evaluates anyway,
gives err, and the next step is dt * min(2, safety * (tol/err)^(1/3)), with
the safety factor 0.8 (`_SAFETY`) and tol the scenario's `step_tol`: 1e-6
for the flows, which follow a transient, and looser for gill-flow, which
only seeks the stationary limit. The first step of a run takes
safety * 2.7 / max|L|, where classical RK4 would be stable on L; the tests
keep classical RK4 as the reference. Positivity of omega is asserted after
every accepted step; dropping below the eigenvalue floor 1e-8 (`_EPS_PD`)
signals the approach to the maximal existence time. The drift monitor's
constant `FlowScenario.monitor_A` is built on first read, not with the
scenario.

`step` alone picks dt, runs ETDRK4 and checks the floor; one loop,
`_integrate`, drives it for `run`, `run_normalized`, `equivalence_check` and
gill-flow, landing on t_end and on sample times, with one monitor row per
state (``dt`` = t_k - t_{k-1}) if given a record. A `FlowState` holds raw
arrays (phi, its half spectrum, d_t phi and omega's real components), the
chart, omega's eigenvalue bounds, computed once per state, and the
controller's next step; fields are validated only where data enters or
leaves the engine.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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
    components_det,
    components_eig_bounds,
    components_inv,
    components_logdet,
    components_trace,
    herm_components,
    herm_eig_bounds,
    herm_from_components,
    i_ddbar,
    require_positive,
)
from .tensors import _check_closed, ricci_form

# stability interval of classical RK4 on the negative real axis
_RK4_STABILITY = 2.7
# Taylor coefficients 1/(j + 3)! of phi_3 at |z| < 1; the remainder is below
# 1/20!, under 1e-17 relative to phi_3 >= 0.11 there
_PHI3_TAYLOR = tuple(1.0 / math.factorial(j + 3) for j in range(17))
# a proposed step shorter than this raises StepUnderflow
_DT_MIN = 1e-12
# the step controller's safety factor on its error-based proposal and first step
_SAFETY = 0.8
# eigenvalue floor of omega: a state below it raises PositivityLost
_EPS_PD = 1e-8


class TrajectoryRecord:
    """Per-step monitor rows with a fixed column order."""

    columns = (
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
    """

    # coefficient of the -phi term on the right side; the stiff operator L carries it
    phi_decay = 0.0
    # error tolerance of the step-size controller: sup-norm distance between the
    # ETDRK4 update and the order-2 exponential trapezoid over one step
    step_tol = 1e-6
    # (t, ghat_t's read-only components) of the last time a right side met
    _ghat = (None, None)

    def __init__(
        self,
        g0,
        T0,
        chi,
        omega_density,
        convergence_tol=1e-6,
        convergence_patience=50,
    ):
        chart = g0.chart
        chart.require_same(chi.chart)
        chart.require_same(omega_density.chart)
        self.chart = chart
        self.g0 = g0
        self.T0 = float(T0)
        self.chi = chi
        self.omega_density = omega_density
        self.convergence_tol = float(convergence_tol)
        self.convergence_patience = int(convergence_patience)

        _check_closed(chart, chi.values, "chi")
        self._log_density = np.log(omega_density.values)
        # det g0, the numerator of every monitor row's volume-form ratio
        self._det_g0 = components_det(g0.parts)
        # lambda_min(g0 + t chi) is concave in t, so the endpoints decide
        for ts in (0.0, self.T0):
            lo, _ = components_eig_bounds(self._reference_parts(ts))
            if not lo > 0.0:
                raise PositivityUnreachable(
                    f"reference family loses positivity at t = {ts:.4g}"
                )

    @cached_property
    def monitor_A(self):
        """Constant A of the drift monitor max_M(phi - A t), built on first
        read: the maximum over nodes and [0, T0] of log det(g0 + t chi) -
        log Omega0. That log det is concave in t, so bisecting on the sign of
        its slope tr((g0 + t chi)^-1 chi) brings each node's maximizer t
        within T0's rounding in 53 halvings. It bisects g0 + t chi in every
        subclass, so a `NormalizedScenario` reports its base's A."""
        t, width = np.zeros(self.chart.shape), self.T0
        for _ in range(53):
            width *= 0.5
            inv = components_inv(FlowScenario._reference_parts(self, t + width))
            t = np.where(components_trace(inv, self.chi.parts) > 0.0, t + width, t)
        logdet = components_logdet(FlowScenario._reference_parts(self, t))
        return float(np.max(logdet - self._log_density))

    def _reference_parts(self, t):
        # the real components of ghat_t = g0 + t chi, as new arrays
        return [g + t * c for g, c in zip(self.g0.parts, self.chi.parts)]

    def _reference_at(self, t):
        # _reference_parts at the scalar time t, built only when t is not the
        # last time asked, and read-only. monitor_A, built on first read and
        # bisecting on an array t, calls _reference_parts itself
        if self._ghat[0] != t:
            parts = self._reference_parts(t)
            for p in parts:
                p.flags.writeable = False
            self._ghat = t, parts
        return self._ghat[1]

    def rhs(self, phi, t, spec=None):
        """(log(det(ghat_t + Hess phi)/Omega0), the metric's real components
        in the order of `herm_components`); raises on loss of positivity.
        ``spec``, when given, is phi's half spectrum, and then ``phi`` may
        be None."""
        return self._log_volume_ratio(phi, t, spec)

    def _log_volume_ratio(self, phi, t, spec):
        chart = self.chart
        if spec is None:
            spec = chart.rfft(np.asarray(phi))
        parts = chart.plus_hessian(self._reference_at(t), spec)
        try:
            logdet = components_logdet(parts)
        except NotPositiveDefinite:
            raise PositivityLost("interior stage lost positivity") from None
        return logdet - self._log_density, parts

    def state_at(self, t, phi):
        """The FlowState of potential values ``phi`` at time ``t``."""
        spec = self.chart.rfft(phi)
        phidot, parts = self.rhs(phi, t, spec)
        return FlowState(t, phi, spec, phidot, parts, self.chart, *components_eig_bounds(parts))


@dataclass
class FlowState:
    """phi, its half spectrum (`TorusChart.rfft`), d_t phi and omega's real
    components as raw arrays on ``chart``, with omega's smallest and largest
    eigenvalue over all nodes, and the step size the controller proposes from
    here (None before the first step)."""

    t: float
    phi: np.ndarray
    spec: np.ndarray
    phidot: np.ndarray
    parts: list
    chart: TorusChart
    eig_min: float
    eig_max: float
    dt_next: float | None = None

    @property
    def omega(self):
        """omega as a new matrix array, from ``parts`` in `herm_components` order."""
        return herm_from_components(self.parts, self.chart.shape)

    @staticmethod
    def initial(scenario, phi=None):
        """The state at t = 0 with potential ``phi`` (default 0)."""
        if phi is None:
            phi = np.zeros(scenario.chart.shape)
        state = scenario.state_at(0.0, phi)
        if not state.eig_min >= _EPS_PD:
            raise NotPositiveDefinite(f"initial metric eigenvalue {state.eig_min:.3e}")
        return state


def scenario_from_metric(g0, T0, **kwargs):
    """Build the reference family and volume density from an initial metric.

    The potential f is derived spectrally: the trace of the target
    T0*Ric(omega_0) is inverted through the flat Laplacian, which recovers
    the exact discrete potential because Ric(omega_0) is itself a discrete
    complex Hessian. The resulting chi = (1/T0) i ddbar f - Ric(omega_0)
    vanishes at rounding level and Omega0 = det(g0) e^{f/T0} is the
    corresponding flat density.
    """
    chart = g0.chart
    T0 = float(T0)
    if T0 <= 0.0:
        raise ValueError("T0 must be positive")
    ric0 = ricci_form(chart, g0.values)
    trace = np.einsum("...ii->...", T0 * ric0).real
    flat = chart.laplacian_inverse(herm_components(np.eye(chart.n)))
    f = ScalarField(chart, chart.irfft(flat * chart.rfft(trace)))
    # FlowScenario tests g0 + T0 chi = alpha_T0 + i ddbar f for positivity
    chi = HermitianMatrixField(chart, i_ddbar(f).values / T0 - ric0)
    density = VolumeField(chart, components_det(g0.parts) * np.exp(f.values / T0))
    return FlowScenario(g0, T0, chi, density, **kwargs)


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
    out[0][big] = p
    for k in (1, 2):
        p = (p - 1.0 / math.factorial(k)) / zb
        out[k][big] = p
    zs = z[small]
    # Horner's first step, 0 * z + 1/19!, is 1/19! at every finite z
    p = np.full_like(zs, _PHI3_TAYLOR[-1])
    for coef in _PHI3_TAYLOR[-2::-1]:
        p *= zs
        p += coef
    out[2][small] = p
    for k in (2, 1):
        p *= zs
        p += 1.0 / math.factorial(k)
        out[k - 1][small] = p
    return out


def _etdrk4(rhs, state, dt, symbol):
    """One Cox-Matthews ETDRK4 step of d_t phi = L phi + N(phi, t) from
    ``state``, starting from the half spectrum it keeps.

    L is diagonal in Fourier space over the active axes with the real
    ``symbol`` (on the half grid of `TorusChart.rfft`), and N = rhs - L phi.
    The state and the stages stay half spectra; every stage goes through
    ``rhs(None, t, spec)``, which takes its Hessian from the stage spectrum
    and transforms it to the grid only if it reads phi itself.
    Returns phi at t + dt and a function that maps the right side there to
    the order-2 exponential trapezoid
    e^{hL} phi + h (phi_1 - phi_2)(hL) N(phi, t) + h phi_2(hL) N(new, t + h),
    the embedded solution of the error estimate.
    """
    fft, ifft = state.chart.rfft, state.chart.irfft
    t, u = state.t, state.spec

    def nonlinear(spec, s):
        return fft(rhs(None, s, spec)[0]) - symbol * spec

    z = dt * symbol
    hz = 0.5 * z
    e, e2 = np.exp(z), np.exp(hz)
    # phis[k, 0] is phi_{k+1}(hL/2), phis[k, 1] is phi_{k+1}(hL)
    phis = _phi_functions(np.stack([hz, z]))
    q = 0.5 * dt * phis[0, 0]
    p1, p2, p3 = dt * phis[:, 1]
    p3x4 = 4.0 * p3
    t2 = t + 0.5 * dt

    eu, e2u = e * u, e2 * u
    nu = fft(rhs(state.phi, t, u)[0]) - symbol * u
    a = e2u + q * nu
    na = nonlinear(a, t2)
    b = e2u + q * na
    nb = nonlinear(b, t2)
    c = e2 * a + q * (2.0 * nb - nu)
    nc = nonlinear(c, t + dt)
    new = (
        eu
        + (p1 - 3.0 * p2 + p3x4) * nu
        + 2.0 * (p2 - 2.0 * p3) * (na + nb)
        + (p3x4 - p2) * nc
    )

    def trapezoid(rhs_new):
        n_new = fft(rhs_new) - symbol * new
        return ifft(eu + (p1 - p2) * nu + p2 * n_new)

    return ifft(new), trapezoid


def step(state, scenario, dt_max=None):
    """One accepted ETDRK4 step; returns the new FlowState.

    The stiff operator L = (1/lambda_min) sum_i d_i d_ibar - phi_decay is
    refrozen from the state's smallest eigenvalue, so it dominates the
    linearization tr(omega^-1 ddbar) - phi_decay at every node. With no
    error estimate yet, the first step of a run takes safety * 2.7 / max|L|,
    where classical RK4 would be stable on L; each step then proposes the
    next, never rejecting one: dt * min(2, safety * (tol/err)^(1/3)), err
    being the sup-norm gap to the embedded order-2 solution and tol the
    scenario's ``step_tol``. A step shortened by ``dt_max`` proposes no more
    than it was given.
    """
    if not state.eig_min > 0.0:
        raise PositivityLost("metric not positive at step start")
    symbol = scenario.chart.flat_laplacian / state.eig_min - scenario.phi_decay
    wanted = state.dt_next or _SAFETY * _RK4_STABILITY / -symbol.min()
    dt = wanted if dt_max is None else min(wanted, dt_max)
    if dt < _DT_MIN:
        raise StepUnderflow(f"dt = {dt:.3e} underflow at t = {state.t:.6g}")
    t_new = state.t + dt
    phi, trapezoid = _etdrk4(scenario.rhs, state, dt, symbol)
    new = scenario.state_at(t_new, phi)
    if not new.eig_min >= _EPS_PD:
        raise PositivityLost(
            f"metric eigenvalue {new.eig_min:.3e} below floor at t = {t_new:.6g}"
        )
    err = max(float(np.max(np.abs(phi - trapezoid(new.phidot)))), 1e-300)
    cap = 2.0 * dt if dt == wanted else wanted
    new.dt_next = min(cap, dt * _SAFETY * (scenario.step_tol / err) ** (1.0 / 3.0))
    return new


def _monitor_row(state, scenario, dt):
    phi = state.phi
    pd = state.phidot
    t = state.t
    n = state.chart.n
    det = components_det(state.parts)
    q0 = (scenario.T0 - t) * pd + phi + n * t
    q1 = t * pd - phi - n * t
    u = scenario._det_g0 / det
    return dict(
        t=t,
        dt=dt,
        # omega^n = n! det(g) (sqrt(-1) dz dzbar)^n = n! 2^n det(g) dLeb
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


def _integrate(scenario, state, t_end, record=None, samples=None):
    """Yield each accepted state after ``state`` up to t_end, adding a monitor
    row to ``record`` unless it is None; a caller stops early by leaving its
    loop. Steps land on t_end and on each key of ``samples`` (to 1e-12), which
    is set to the metric there; keys never reached are dropped."""
    stops = sorted(samples or ())
    if record is not None:
        record.append(**_monitor_row(state, scenario, 0.0))
    while True:
        while stops and state.t >= stops[0] - 1e-12:
            samples[stops.pop(0)] = state.omega
        if not state.t < t_end - 1e-12:
            break
        prev = state
        try:
            state = step(prev, scenario, dt_max=min(stops[:1] + [t_end]) - prev.t)
        except (PositivityLost, StepUnderflow) as err:
            err.record, err.last_state = record, prev
            raise
        if record is not None:
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
    if t_end < state.t - 1e-12:
        raise ValueError(f"t_end = {t_end:.6g} is behind the start state's t = {state.t:.6g}")
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


def ricci_sup_norm(chart, omega):
    """Certificate ||Ric(omega)||_inf, max over nodes and entries, of a
    metric array ``omega`` on ``chart`` (a FlowState's, say)."""
    return float(np.max(np.abs(ricci_form(chart, omega))))


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
        # the base's ghat_t is not this family's
        self._ghat = (None, None)
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

    def _reference_parts(self, t):
        # ghat_t = chi + e^{-t} (g0 - chi)
        decay = math.exp(-t)
        return [
            c * (1.0 - decay) + decay * g for g, c in zip(self.g0.parts, self.chi.parts)
        ]

    def rhs(self, phi, t, spec=None):
        log_ratio, parts = self._log_volume_ratio(phi, t, spec)
        if phi is None:
            phi = self.chart.irfft(spec)
        return log_ratio - phi, parts


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
    for _ in _integrate(scenario, FlowState.initial(scenario), s_samples[-1], samples=stored):
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
    """The stored state, continuing with the footer's step; raises ValueError
    for a file that is not a scalar snapshot on the scenario's chart with a
    footer, or whose time is off [0, T0] (to 1e-12), and PositivityLost below
    the eigenvalue floor."""
    from .io import read_snapshot

    phi, footer = read_snapshot(path, chart=scenario.chart, want_footer=True)
    t, dt = footer
    if not -1e-12 <= t <= scenario.T0 + 1e-12:
        raise ValueError(f"{path}: checkpoint time {t} is not in [0, T0 = {scenario.T0:g}]")
    state = scenario.state_at(t, phi.values)
    if not state.eig_min >= _EPS_PD:
        raise PositivityLost(
            f"checkpoint metric eigenvalue {state.eig_min:.3e} below floor at t = {t:.6g}"
        )
    if math.isfinite(dt) and dt > 0.0:
        state.dt_next = dt
    return state
