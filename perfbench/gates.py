"""Correctness gates applied to each workload's outputs.

Every gate reads the outputs a user would get (CSV files, returned fields)
and recomputes what it checks with its own code: the CSV reader and the
Monge-Ampere residual below use only the standard library and numpy, never
``crflab``. A gate returns a list of failure messages; an empty list passes.
"""

import csv

import numpy as np

MONITOR_JITTER = 1e-8  # acceptance criterion 5
EQUIVALENCE_TOL = 1e-5  # acceptance criterion 6
REFINEMENT_RATIO = 100.0  # acceptance criterion 2


def read_trajectory(path):
    """Columns of a trajectory CSV as float arrays, keyed by header name."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    data = np.array([[float(v) for v in row] for row in body])
    return {name: data[:, i] for i, name in enumerate(header)}


def monitor_failures(traj, monitor_A, label):
    """q1_max non-increasing, q0_min non-decreasing, phi_sup - A t
    non-increasing, each up to MONITOR_JITTER."""
    out = []
    if traj["q1_max"].size > 1:
        rise = float(np.max(np.diff(traj["q1_max"])))
        if rise > MONITOR_JITTER:
            out.append(f"{label}: q1_max increased by {rise:.3e}")
        drop = float(-np.min(np.diff(traj["q0_min"])))
        if drop > MONITOR_JITTER:
            out.append(f"{label}: q0_min decreased by {drop:.3e}")
        drift = traj["phi_sup"] - monitor_A * traj["t"]
        rise = float(np.max(np.diff(drift)))
        if rise > MONITOR_JITTER:
            out.append(f"{label}: phi_sup - A t increased by {rise:.3e}")
    return out


def equivalence_failures(plain, normalized, s_end, n):
    """Last rows of the two runs agree under omega_norm = omega / (s + 1).

    Eigenvalues scale by 1/(s+1) and the volume of omega^n by 1/(s+1)^n.
    """
    out = []
    t_norm = float(np.log1p(s_end))
    if abs(plain["t"][-1] - s_end) > 1e-12 or abs(normalized["t"][-1] - t_norm) > 1e-12:
        out.append(
            f"runs stopped at s = {plain['t'][-1]!r}, t = {normalized['t'][-1]!r}; "
            f"expected {s_end!r}, {t_norm!r}"
        )
        return out
    scale = s_end + 1.0
    for name, power in (("eig_min", 1), ("eig_max", 1), ("volume", n)):
        err = abs(normalized[name][-1] - plain[name][-1] / scale ** power)
        if not err <= EQUIVALENCE_TOL:
            out.append(f"normalized {name} disagrees by {err:.3e}")
    return out


def _wavenumbers(m, period):
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=period / m)
    k[m // 2] = 0.0  # the package zeroes Nyquist in every derivative factor
    return k


def complex_hessian(phi, periods):
    """d_i d_jbar of a real field that varies only along the real parts x_i.

    ``phi`` has one array axis per complex coordinate (the imaginary axes
    are inactive), so d_i d_jbar = (1/4) d^2 / dx_i dx_j. Returns an array
    of shape phi.shape + (n, n).
    """
    n = phi.ndim
    spec = np.fft.fftn(phi)
    ks = []
    for a in range(n):
        shape = [1] * n
        shape[a] = phi.shape[a]
        ks.append(_wavenumbers(phi.shape[a], periods[a]).reshape(shape))
    out = np.empty(phi.shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            dij = np.fft.ifftn(-ks[i] * ks[j] * spec).real / 4.0
            out[..., i, j] = dij
            out[..., j, i] = dij
    return out


def ma_residual(G, phi, F, b, periods):
    """Max-norm of log det(G + i ddbar phi) - log det G - F - b.

    ``G`` is the background metric on the same reduced grid as ``phi``,
    shape phi.shape + (n, n), Hermitian.
    """
    Gp = G + complex_hessian(phi, periods)
    det_p = np.linalg.det(Gp).real
    det_g = np.linalg.det(G).real
    if det_p.min() <= 0.0:
        return float("inf")
    return float(np.max(np.abs(np.log(det_p) - np.log(det_g) - F - b)))


def residual_failures(G, phi, F, b, periods, tol, label):
    res = ma_residual(G, phi, F, b, periods)
    if not res <= tol:
        return [f"{label}: recomputed residual {res:.3e} above {tol:.1e}"]
    return []


def agreement_failures(phi_a, phi_b, tol, label):
    """Mean-free fields agree within tol in max-norm."""
    err = float(np.max(np.abs((phi_a - phi_a.mean()) - (phi_b - phi_b.mean()))))
    if not err <= tol:
        return [f"{label}: mean-free solutions differ by {err:.3e}"]
    return []


def identity_failures(coarse, fine):
    """Every report passes and the trace-evolution residual drops at least
    REFINEMENT_RATIO-fold from the coarse to the fine grid.

    ``coarse`` and ``fine`` map identity names to (residual, tolerance).
    """
    out = []
    for grid, reports in (("coarse", coarse), ("fine", fine)):
        for name, (residual, tol) in reports.items():
            if not residual <= tol:
                out.append(f"{grid} {name}: residual {residual:.3e} above {tol:.1e}")
    ratio = coarse["trace_evolution"][0] / max(fine["trace_evolution"][0], 1e-300)
    if not ratio >= REFINEMENT_RATIO:
        out.append(f"trace-evolution refinement ratio {ratio:.3g} below {REFINEMENT_RATIO:g}")
    return out


def read_reports(path):
    """Parse a ``key = value`` identity report file into {name: (residual, tol)}."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        blocks = fh.read().strip().split("\n\n")
    for block in blocks:
        kv = dict(line.split(" = ", 1) for line in block.splitlines())
        out[kv["identity"]] = (float(kv["residual"]), float(kv["tolerance"]))
    return out
