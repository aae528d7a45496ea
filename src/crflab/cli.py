"""Scenario-driven command line entry point.

Subcommands: verify-identities, run-flow, run-normalized, hopf-explicit,
hopf-verify, solve-ma, max-time, plot. Every run writes its manifest before
any heavy compute; identical manifests reproduce identical CSV bytes
(seeded generators, fixed float formatting, fixed iteration order).

Exit codes: 0 success, 2 validation error, 3 numerical failure,
64 usage error. Thread pools follow the standard variables
(``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``), which must be set before
the process starts.
"""

import argparse
import os
import sys

from . import __version__


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text):
    """A count option: an integer that is not negative."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a count (an integer >= 0)")
    return int(text)


# -- config -> objects ------------------------------------------------------------
# The sections arrive checked by io.load_config; keys a file leaves out keep
# the defaults of the constructors they feed.


def _preset_chart(name, resolution):
    from .geometry import TorusChart

    if name == "torus1":
        return TorusChart(1, resolution, active_axes=(0,))
    if name == "torus2":
        return TorusChart(2, resolution, active_axes=(0, 2))
    raise ValueError(f"unknown chart preset {name!r} (torus1 or torus2)")


def _load(args, section, command, **manifest):
    """The checked ``section`` of the scenario file and the seed, after the manifest."""
    from .io import load_config, write_manifest

    cfg = load_config(args.scenario, section)
    seed = cfg["seed"] if args.seed is None else args.seed
    write_manifest(args.out, command, __version__, seed=seed,
                   scenario_path=args.scenario, **manifest)
    return cfg, seed


def _metric_from_config(cfg, chart, seed):
    import numpy as np

    from .models import Perturbation, TorusMetricRecipe, random_metric_recipe

    options = dict(cfg)
    if options.pop("kind") == "random":
        rng = np.random.default_rng(seed)
        return random_metric_recipe(rng, chart.n, axes=chart.active_axes, **options).build(chart)
    base = options.pop("base", None)
    base = np.eye(chart.n) if base is None else np.reshape(base, (chart.n, chart.n))
    perturbations = [Perturbation(**p) for p in options.pop("perturbation", ())]
    return TorusMetricRecipe(base, perturbations, **options).build(chart)


def _scenario_from_config(cfg, seed):
    from .flow import StepControl, scenario_from_metric
    from .geometry import TorusChart

    chart = TorusChart(**cfg["chart"])
    g0 = _metric_from_config(cfg["recipe"], chart, seed)
    names = {"tolerance": "convergence_tol", "patience": "convergence_patience"}
    monitors = {names[key]: value for key, value in cfg["monitors"].items()}
    control = StepControl(**cfg["control"])
    return scenario_from_metric(g0, cfg["T0"], control=control, **monitors), cfg


def _given(**options):
    """The options that are set, so the others keep their defaults."""
    return {key: value for key, value in options.items() if value is not None}


def _report(path, reports):
    """Write ``reports`` to ``path`` and print a PASS or FAIL line for each;
    returns the exit code, 3 after naming the failed ones on stderr."""
    from .io import write_reports

    write_reports(path, reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.residual:.3e}")
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# -- subcommands -------------------------------------------------------------------


def _cmd_verify_identities(args):
    import numpy as np

    from . import models as M
    from . import tensors as T
    from .io import write_manifest
    from .tensors import IdentityReport

    tol = args.tolerance
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    chart = _preset_chart(args.chart, args.resolution)
    write_manifest(
        args.out, "verify-identities", __version__, seed=args.seed,
        extra={"chart": args.chart, "resolution": args.resolution},
    )
    rng = np.random.default_rng(args.seed)
    r_g0, r_gh, r_phi = M.random_verification_triple(rng, chart.n, axes=chart.active_axes)
    g0 = r_g0.build(chart)
    ghat = r_gh.build(chart)
    phi = r_phi.build(chart)

    rep = T.verify_trace_evolution(g0, ghat, phi, t=args.t)
    reports = rep.as_identity_reports(tol, 1e-8)
    grid = reports[0].grid
    reports.append(
        IdentityReport("bianchi_vanishing", T.verify_bianchi_vanishing(ghat), grid, 1e-7)
    )
    reports.append(
        IdentityReport("schwarz_volume_ratio", T.verify_schwarz_identity(g0, ghat), grid, 1e-7)
    )
    return _report(os.path.join(args.out, "identities.txt"), reports)


def _cmd_run_flow(args):
    from .errors import PositivityLost, StepUnderflow
    from .flow import read_checkpoint, ricci_sup_norm, run, write_checkpoint

    scenario, cfg = _scenario_from_config(
        *_load(args, "scenario", "run-flow", resume_path=args.resume)
    )
    state = None
    if args.resume:
        state = read_checkpoint(args.resume, scenario)
    t_end = cfg.get("t_end", scenario.T0)

    ckpt_path = os.path.join(args.out, "checkpoint.snap")

    def callback(st, record):
        steps = len(record.rows) - 1
        if args.checkpoint_every and steps % args.checkpoint_every == 0:
            write_checkpoint(ckpt_path, st, st.dt_next)

    csv_path = os.path.join(args.out, "trajectory.csv")
    try:
        record, state = run(scenario, t_end, state=state, callback=callback)
    except (PositivityLost, StepUnderflow) as err:
        if getattr(err, "record", None) is not None:
            err.record.to_csv(csv_path)  # the rows up to the last good state
        raise
    record.to_csv(csv_path)
    # the controller's next step, so a resumed run continues with it
    write_checkpoint(ckpt_path, state, state.dt_next or record.rows[-1][1])
    ric = ricci_sup_norm(state.chart, state.omega)
    print(f"t_end = {state.t:.6g}  steps = {len(record.rows) - 1}  "
          f"ricci_sup = {ric:.3e}")
    if "converged_at" in record.meta:
        print(f"converged_at = {record.meta['converged_at']:.6g}")
    return 0


def _cmd_run_normalized(args):
    from .flow import run_normalized

    scenario, cfg = _scenario_from_config(*_load(args, "scenario", "run-normalized"))
    t_end = cfg.get("t_end", 2.0)
    record, state, _ = run_normalized(scenario, t_end, target_form=scenario.g0)
    record.to_csv(os.path.join(args.out, "trajectory.csv"))
    print(f"t_end = {state.t:.6g}  steps = {len(record.rows) - 1}  "
          f"note = {record.meta['target_note']}")
    return 0


def _cmd_hopf_explicit(args):
    import numpy as np

    from .geometry import HopfSampleSet
    from .io import write_csv, write_manifest
    from .models import hopf_metric_at

    sample = HopfSampleSet.random(args.n, args.alpha, args.points, args.seed)
    metric = hopf_metric_at(sample.points, args.t)
    write_manifest(args.out, "hopf-explicit", __version__, seed=args.seed,
                   extra={"n": args.n, "t": args.t, "points": args.points})
    r2 = np.sum(np.abs(sample.points) ** 2, axis=-1)
    eigs = np.linalg.eigvalsh(metric * r2[:, None, None])
    rows = [
        tuple([r2[i]] + [eigs[i, j] for j in range(args.n)])
        for i in range(len(r2))
    ]
    cols = ["r2"] + [f"eig_scaled_{j}" for j in range(args.n)]
    write_csv(os.path.join(args.out, "eigenvalues.csv"), cols, rows)
    lo = eigs.min(axis=0)
    hi = eigs.max(axis=0)
    print("eigenvalues of r^2 * omega(t):")
    for j in range(args.n):
        print(f"  lambda_{j}: [{lo[j]:.12g}, {hi[j]:.12g}]")
    print(f"expected: 1 - n t = {1 - args.n * args.t:.12g} "
          f"(multiplicity {args.n - 1}) and 1")
    return 0


def _cmd_hopf_verify(args):
    from .geometry import HopfSampleSet
    from .io import write_manifest
    from .models import (
        ReBilinear,
        hopf_metric_at,
        verify_deck_invariance,
        verify_hopf_flow,
        verify_hopf_trace_chain,
    )
    from .tensors import IdentityReport

    sample = HopfSampleSet.random(args.n, args.alpha, args.points, args.seed)
    times = args.times or [0.0, 0.1, 0.2, 0.3 * (2.0 / args.n)]
    for t in times:
        hopf_metric_at(sample.points[:1], t)  # the existence interval, before any file
    write_manifest(args.out, "hopf-verify", __version__, seed=args.seed,
                   extra={"n": args.n, "points": args.points})
    flow = verify_hopf_flow(sample, times)
    grid = f"{args.points}pts"
    reports = [
        IdentityReport("hopf_flow_closed_form", flow["closed_form_residual"], grid, 1e-10),
        IdentityReport("hopf_flow_fd_oracle", flow["fd_oracle_residual"], grid, 1e-6),
        IdentityReport("hopf_det_formula", flow["det_identity_residual"], grid, 1e-12),
        IdentityReport("hopf_deck_invariance", verify_deck_invariance(sample, times[-1]), grid, 1e-12),
    ]
    chain = verify_hopf_trace_chain(sample, times[-1], ReBilinear(0.01))
    reports.append(
        IdentityReport("hopf_trace_chain_equalities", chain.max_equality_residual(), grid, 1e-9)
    )
    reports.append(
        IdentityReport("hopf_trace_chain_inequality", chain.inequality_violation, grid, 1e-12)
    )
    return _report(os.path.join(args.out, "hopf.txt"), reports)


def _cmd_solve_ma(args):
    from .elliptic import EllipticProblem, certify_estimates, solve_elliptic
    from .geometry import TorusChart
    from .io import write_snapshot
    from .models import Perturbation, ScalarRecipe

    cfg, seed = _load(args, "elliptic", "solve-ma")
    chart = TorusChart(**cfg["chart"])
    omega = _metric_from_config(cfg["recipe"], chart, seed)
    F = ScalarRecipe([Perturbation(**p) for p in cfg["rhs"].get("perturbation", ())]).build(chart)
    normalization = args.normalization or cfg.get("normalization")
    problem = EllipticProblem(omega, F, **_given(normalization=normalization))
    method = args.method or cfg.get("method")
    solution = solve_elliptic(problem, tol=args.tolerance, **_given(method=method))
    write_snapshot(os.path.join(args.out, "phi.snap"), solution.phi)
    print(f"method = {solution.method}  residual = {solution.residual:.3e}  "
          f"b = {solution.b:.12g}")
    if args.a_grid:
        report = certify_estimates(solution, tuple(args.a_grid), tol=args.tolerance)
        print(f"oscillation = {report.oscillation:.6g}")
        for A, c1, c2 in zip(report.A_grid, report.C_coarse, report.C_fine):
            print(f"C({A:g}) = {c1:.6g}  refined = {c2:.6g}")
        print(f"stable_A = {report.stable_A}")
    return 0


def _cmd_max_time(args):
    import json

    from .io import load_config, write_manifest
    from .surfaces import Divisor, SurfaceClassData, SurfaceFlags, classify, maximal_time

    cfg = load_config(args.data, "surface")
    write_manifest(args.out, "max-time", __version__, scenario_path=args.data)
    flags = cfg.get("flags")
    data = SurfaceClassData(
        cfg["name"], cfg["vol0"], cfg["pairing"], cfg["c1sq"],
        tuple(Divisor(**d) for d in cfg.get("divisor", ())),
        None if flags is None else SurfaceFlags(**flags),
    )
    result = maximal_time(data)
    report = classify(data, result)
    record = {
        "name": data.name,
        "T": "inf" if not result.finite else result.T,
        "case": result.case,
        "binding": result.binding,
        "volume_poly": list(result.volume_poly),
    }
    with open(os.path.join(args.out, "maxtime.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"T = {'inf' if not result.finite else format(result.T, '.12g')}  "
          f"case = ({result.case})  binding = {result.binding}")
    for line in report.narrative:
        print(f"  {line}")
    return 0


def _cmd_plot(args):
    from .plotsvg import plot_csv

    out = args.out or (os.path.splitext(args.csv)[0] + ".svg")
    plot_csv(args.csv, [c.strip() for c in args.columns.split(",")], out)
    print(out)
    return 0


# -- parser ------------------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="crflab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identities", help="certify tensor identities")
    p.add_argument("--chart", default="torus2")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--out", default="out-verify")
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("run-flow", help="integrate the metric flow")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default="out-flow")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint-every", type=_count, default=0)
    p.add_argument("--resume", default=None)
    p.set_defaults(func=_cmd_run_flow)

    p = sub.add_parser("run-normalized", help="integrate the normalized flow")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default="out-normalized")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_run_normalized)

    p = sub.add_parser("hopf-explicit", help="tabulate the explicit solution")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--t", type=float, default=0.25)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out-hopf")
    p.set_defaults(func=_cmd_hopf_explicit)

    p = sub.add_parser("hopf-verify", help="verify the explicit-solution identities")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--times", type=float, nargs="*", default=None)
    p.add_argument("--out", default="out-hopf-verify")
    p.set_defaults(func=_cmd_hopf_verify)

    p = sub.add_parser("solve-ma", help="solve the elliptic equation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", default=None)
    p.add_argument("--normalization", default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--a-grid", type=float, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out-ma")
    p.set_defaults(func=_cmd_solve_ma)

    p = sub.add_parser("max-time", help="maximal time from intersection data")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="out-maxtime")
    p.set_defaults(func=_cmd_max_time)

    p = sub.add_parser("plot", help="SVG line plot of trajectory columns")
    p.add_argument("--csv", required=True)
    p.add_argument("--columns", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    from .errors import (
        CrflabError,
        NonConvergence,
        PositivityLost,
        StepUnderflow,
    )

    try:
        return args.func(args)
    except (NonConvergence, PositivityLost, StepUnderflow) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        # the flow's loop attaches the last accepted state to its step errors
        if getattr(err, "last_state", None) is not None:
            print(f"last good state at t = {err.last_state.t:.6g}", file=sys.stderr)
        return 3
    except (CrflabError, ValueError, KeyError, OSError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
