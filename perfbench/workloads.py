"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (``setup``), runs the
timed compute through the same public ``crflab`` calls its CLI subcommand
makes, including the result files a user pays for (``solve``), and checks
what came out (``check``). ``outputs`` lists the files whose bytes must
repeat exactly between runs of one seed.

Every seed poses a problem of the same size and difficulty, so timings move
little from seed to seed. ``relax_n2`` draws the phases of fixed-amplitude
waves; its step count moves by about 1 % across seeds. The two elliptic
workloads translate one fixed problem by a seeded shift on the torus, which
changes every sampled value but not the iteration counts. With independent
phases their step and Krylov counts moved by up to 10 % from seed to seed.
``certify_n2`` does the same fixed-size work for every seeded triple. Sizes
are chosen so that one solve takes one to three seconds on one core.
"""

import dataclasses
import math
import os

import numpy as np

import gates


def _phases(seed, count):
    return [float(2.0 * np.pi * p) for p in np.random.default_rng(seed).random(count)]


def _shifts(seed, n):
    """Seeded translation of the torus: one phase shift per complex axis."""
    shifts = _phases(seed, n)
    return [shifts[a // 2] if a % 2 == 0 else 0.0 for a in range(2 * n)]


def _translated(perturbations, shifts):
    """The same waves moved by ``shifts`` (radians per real axis)."""
    return [
        dataclasses.replace(p, phase=p.phase + sum(k * s for k, s in zip(p.wavevector, shifts)))
        for p in perturbations
    ]


def _reduced(values, chart):
    """Drop the single-node inactive axes of a field (tensor axes kept)."""
    grid = tuple(chart.resolution[a] for a in chart.active_axes)
    return values.reshape(grid + values.shape[chart.naxes:])


class RelaxN2:
    """Plain and normalized flow of one seeded non-Kahler n = 2 metric.

    The plain run goes to s_end with a checkpoint every ``checkpoint_every``
    steps, the normalized run to log(1 + s_end); both trajectories are
    written as CSV, as ``crflab run-flow`` and ``run-normalized`` do.
    """

    name = "relax_n2"

    def __init__(self, resolution=64, s_end=1.0, checkpoint_every=50):
        self.resolution = resolution
        self.s_end = s_end
        self.checkpoint_every = checkpoint_every

    def setup(self, seed, out):
        from crflab.flow import scenario_from_metric
        from crflab.geometry import HermitianMatrixField, TorusChart
        from crflab.models import Perturbation, TorusMetricRecipe

        chart = TorusChart(2, self.resolution, active_axes=(0, 2))
        ph = _phases(seed, 5)
        recipe = TorusMetricRecipe(
            np.eye(2),
            [
                # g_{1 1bar} varies along x_2: the metric has torsion
                Perturbation(0, 0, 0.12, (0, 0, 1, 0), ph[0]),
                Perturbation(1, 1, 0.12, (1, 0, 0, 0), ph[1]),
                Perturbation(0, 1, 0.05, (1, 0, 1, 0), ph[2]),
                Perturbation(0, 0, 0.06, (2, 0, 0, 0), ph[3]),
                Perturbation(1, 1, 0.05, (0, 0, 1, 0), ph[4],
                             profile="peaked", sharpness=1.3),
            ],
        )
        g0 = recipe.build(chart)
        scenario = scenario_from_metric(g0, 100.0)
        return {
            "scenario": scenario,
            "target": HermitianMatrixField(chart, g0.values),
            "plain_csv": os.path.join(out, "trajectory.csv"),
            "norm_csv": os.path.join(out, "trajectory_normalized.csv"),
            "checkpoint": os.path.join(out, "checkpoint.snap"),
        }

    def solve(self, inp):
        from crflab.flow import run, run_normalized, write_checkpoint

        scenario = inp["scenario"]
        count = [0]

        def callback(state, record):
            count[0] += 1
            if count[0] % self.checkpoint_every == 0:
                write_checkpoint(inp["checkpoint"], state, record.rows[-1][1])

        record, state = run(scenario, self.s_end, callback=callback)
        record.to_csv(inp["plain_csv"])
        write_checkpoint(inp["checkpoint"], state, record.rows[-1][1])
        nrecord, _, _ = run_normalized(
            scenario, math.log1p(self.s_end), target_form=inp["target"]
        )
        nrecord.to_csv(inp["norm_csv"])

    def check(self, inp, _result):
        plain = gates.read_trajectory(inp["plain_csv"])
        normalized = gates.read_trajectory(inp["norm_csv"])
        return gates.monitor_failures(
            plain, inp["scenario"].monitor_A, "plain run"
        ) + gates.equivalence_failures(plain, normalized, self.s_end, 2)

    def outputs(self, inp):
        return [inp["plain_csv"], inp["norm_csv"], inp["checkpoint"]]


def _elliptic_gate(problem, solution, tol, label):
    chart = problem.chart
    periods = [chart.periods[a] for a in chart.active_axes]
    return gates.residual_failures(
        _reduced(problem.omega.values, chart),
        _reduced(solution.phi.values, chart),
        _reduced(problem.F.values, chart),
        solution.b,
        periods,
        tol,
        label,
    )


class GillN1:
    """Gill-flow relaxation of a seeded n = 1 elliptic problem.

    Thousands of explicit steps on a 32-node grid: per-step fixed costs
    (object construction, validation, numpy dispatch) dominate.
    """

    name = "gill_n1"
    resolution = 32
    tol = 1e-8

    def setup(self, seed, out):
        from crflab.elliptic import EllipticProblem
        from crflab.geometry import TorusChart
        from crflab.models import Perturbation, ScalarRecipe, TorusMetricRecipe

        chart = TorusChart(1, self.resolution, active_axes=(0,))
        shift = _shifts(seed, 1)
        omega = TorusMetricRecipe(
            np.eye(1), _translated([Perturbation(0, 0, 0.1, (1, 0))], shift)
        ).build(chart)
        F = ScalarRecipe(_translated([
            Perturbation(0, 0, 0.3, (1, 0), 0.7),
            Perturbation(0, 0, 0.2, (2, 0), 1.9),
        ], shift)).build(chart)
        return {
            "problem": EllipticProblem(omega, F),
            "snapshot": os.path.join(out, "phi.snap"),
        }

    def solve(self, inp):
        from crflab.elliptic import solve_elliptic
        from crflab.io import write_snapshot

        solution = solve_elliptic(inp["problem"], "gill-flow", tol=self.tol)
        write_snapshot(inp["snapshot"], solution.phi)
        return solution

    def check(self, inp, solution):
        from crflab.elliptic import solve_elliptic

        problem = inp["problem"]
        out = _elliptic_gate(problem, solution, self.tol, "gill-flow")
        reference = solve_elliptic(problem, "newton-continuation")
        return out + gates.agreement_failures(
            solution.phi.values, reference.phi.values, 1e-6, "gill-flow vs newton"
        )

    def outputs(self, inp):
        return [inp["snapshot"]]


class NewtonN2:
    """Damped Newton on a seeded non-Kahler n = 2 problem, then certification.

    ``certify_estimates`` re-solves on the Fourier-doubled grid, as
    ``crflab solve-ma --a-grid`` does.
    """

    name = "newton_n2"
    a_grid = (0.0, 0.5, 1.0, 2.0, 4.0)
    tol = 1e-10

    def __init__(self, resolution=128):
        self.resolution = resolution

    def setup(self, seed, out):
        from crflab.elliptic import EllipticProblem
        from crflab.geometry import TorusChart
        from crflab.models import Perturbation, ScalarRecipe, TorusMetricRecipe

        chart = TorusChart(2, self.resolution, active_axes=(0, 2))
        shift = _shifts(seed, 2)
        omega = TorusMetricRecipe(np.eye(2), _translated([
            Perturbation(0, 0, 0.12, (0, 0, 1, 0), 0.3),
            Perturbation(1, 1, 0.12, (1, 0, 0, 0), 2.2),
            Perturbation(0, 1, 0.048, (1, 0, 1, 0), 4.1),
            Perturbation(0, 0, 0.06, (2, 0, 0, 0), 5.0),
        ], shift)).build(chart)
        # strong enough that the first Newton step backtracks
        F = ScalarRecipe(_translated([
            Perturbation(0, 0, 1.0, (1, 0, 0, 0), 1.3),
            Perturbation(0, 0, 0.8, (0, 0, 1, 0), 3.6),
            Perturbation(0, 0, 0.5, (1, 0, 2, 0), 0.9),
        ], shift)).build(chart)
        return {
            "problem": EllipticProblem(omega, F),
            "snapshot": os.path.join(out, "phi.snap"),
        }

    def solve(self, inp):
        from crflab.elliptic import certify_estimates, solve_elliptic
        from crflab.io import write_snapshot

        solution = solve_elliptic(inp["problem"], "newton-continuation", tol=self.tol)
        write_snapshot(inp["snapshot"], solution.phi)
        report = certify_estimates(solution, self.a_grid)
        return solution, report

    def check(self, inp, result):
        solution, report = result
        out = _elliptic_gate(inp["problem"], solution, self.tol, "newton")
        if report.stable_A is None:
            out.append("certify_estimates found no stable A")
        return out

    def outputs(self, inp):
        return [inp["snapshot"]]


class CertifyN2:
    """Identity certification of one seeded triple on 64^2 and 128^2 grids,
    written as ``crflab verify-identities`` writes its report."""

    name = "certify_n2"
    resolution = 64
    t = 0.1

    def setup(self, seed, out):
        from crflab.geometry import TorusChart, refine_chart
        from crflab.models import random_verification_triple

        coarse = TorusChart(2, self.resolution, active_axes=(0, 2))
        recipes = random_verification_triple(
            np.random.default_rng(seed), 2, axes=coarse.active_axes
        )
        grids = []
        for chart in (coarse, refine_chart(coarse)):
            fields = tuple(r.build(chart) for r in recipes)
            path = os.path.join(out, f"identities_{chart.resolution[0]}.txt")
            grids.append((fields, path))
        return {"grids": grids}

    def solve(self, inp):
        from crflab.io import write_reports
        from crflab.tensors import (
            IdentityReport,
            verify_bianchi_vanishing,
            verify_schwarz_identity,
            verify_trace_evolution,
        )

        for (g0, ghat, phi), path in inp["grids"]:
            rep = verify_trace_evolution(g0, ghat, phi, t=self.t)
            reports = rep.as_identity_reports(1e-6, 1e-8)
            grid = reports[0].grid
            reports.append(IdentityReport(
                "bianchi_vanishing", verify_bianchi_vanishing(ghat), grid, 1e-7))
            reports.append(IdentityReport(
                "schwarz_volume_ratio", verify_schwarz_identity(g0, ghat), grid, 1e-7))
            write_reports(path, reports)

    def check(self, inp, _result):
        (_, coarse), (_, fine) = inp["grids"]
        return gates.identity_failures(
            gates.read_reports(coarse), gates.read_reports(fine)
        )

    def outputs(self, inp):
        return [path for _, path in inp["grids"]]


WORKLOADS = {w.name: w for w in (RelaxN2, GillN1, NewtonN2, CertifyN2)}
