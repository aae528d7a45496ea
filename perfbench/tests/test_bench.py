"""Fast checks of the benchmark's own gates and tracer, on tiny sizes.

    python -m pytest perfbench/tests -q
"""

import csv
import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gates  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, GillN1, NewtonN2, RelaxN2  # noqa: E402


def _rewrite_csv(path, column, row, value):
    """Set one cell; ``value`` maps the column's floats to the new value."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(value([float(r[col]) for r in rows[1:]]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def relax(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("relax"))
    wl = RelaxN2(resolution=16, s_end=0.3, checkpoint_every=2)
    inp = wl.setup(3, out)
    wl.solve(inp)
    return wl, inp


def test_relax_gate_passes_and_rejects_a_q1_increase(relax):
    wl, inp = relax
    assert wl.check(inp, None) == []
    _rewrite_csv(inp["plain_csv"], "q1_max", 2, lambda q1: q1[1] + 1e-6)
    failures = wl.check(inp, None)
    assert any("q1_max increased" in f for f in failures)


def test_equivalence_gate_rejects_a_volume_mismatch(tmp_path, relax):
    wl, inp = relax
    doctored = str(tmp_path / "normalized.csv")
    shutil.copyfile(inp["norm_csv"], doctored)
    plain = gates.read_trajectory(inp["plain_csv"])
    ok = gates.read_trajectory(inp["norm_csv"])
    assert gates.equivalence_failures(plain, ok, wl.s_end, 2) == []
    rows = len(ok["t"])
    _rewrite_csv(doctored, "volume", rows - 1, lambda v: v[-1] + 1e-4)
    bad = gates.read_trajectory(doctored)
    assert gates.equivalence_failures(plain, bad, wl.s_end, 2) != []


def test_gill_gate_rejects_a_perturbed_phi(tmp_path):
    from crflab.geometry import ScalarField

    wl = GillN1()
    inp = wl.setup(5, str(tmp_path))
    solution = wl.solve(inp)
    assert wl.check(inp, solution) == []
    chart = solution.phi.chart
    bump = 1e-6 * np.cos(chart.axis_coordinates(0)) * np.ones(chart.shape)
    doctored = dataclasses.replace(
        solution, phi=ScalarField(chart, solution.phi.values + bump)
    )
    failures = wl.check(inp, doctored)
    assert any("recomputed residual" in f for f in failures)


def test_independent_residual_matches_the_package_on_n2():
    from crflab.elliptic import _residual_field

    wl = NewtonN2(resolution=16)
    problem = wl.setup(2, "unused")["problem"]
    chart = problem.chart
    rng = np.random.default_rng(0)
    phi = np.zeros(chart.shape)
    x0, x2 = chart.axis_coordinates(0), chart.axis_coordinates(2)
    for k0, k2 in ((1, 0), (0, 1), (1, 1), (2, -1)):
        phi = phi + 0.05 * rng.random() * np.cos(k0 * x0 + k2 * x2 + rng.random())
    package, _ = _residual_field(problem, phi, 0.3)
    ours = gates.ma_residual(
        problem.omega.values.reshape(16, 16, 2, 2),
        phi.reshape(16, 16),
        problem.F.values.reshape(16, 16),
        0.3,
        (2 * np.pi, 2 * np.pi),
    )
    assert ours == pytest.approx(float(np.max(np.abs(package))), abs=1e-12)


def test_certify_gate_rejects_a_failing_report():
    coarse = {"trace_evolution": (1e-7, 1e-6), "bianchi_vanishing": (1e-15, 1e-7)}
    fine = {"trace_evolution": (1e-10, 1e-6), "bianchi_vanishing": (1e-15, 1e-7)}
    assert gates.identity_failures(coarse, fine) == []
    fine["trace_evolution"] = (1e-8, 1e-6)
    assert any("ratio" in f for f in gates.identity_failures(coarse, fine))
    coarse["bianchi_vanishing"] = (2e-7, 1e-7)
    assert any("bianchi" in f for f in gates.identity_failures(coarse, fine))


def test_output_mismatch_is_reported():
    ref = {"trajectory.csv": "aa", "phi.snap": "bb"}
    assert run.output_mismatches(ref, dict(ref)) == []
    assert run.output_mismatches(ref, {"trajectory.csv": "aa", "phi.snap": "cc"}) == [
        "output bytes differ from the first run: phi.snap"
    ]


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    a = tr.open("a")       # 0 .. 10
    b = tr.open("b")       # 1 .. 4
    c = tr.open("c")       # 2 .. 3
    tr.close(c)
    tr.close(b)
    d = tr.open("b")       # 5 .. 6
    tr.close(d)
    tr.close(a)
    st = tr.self_times()
    assert st["a"] == pytest.approx(6.0)
    assert st["b"] == pytest.approx(3.0)
    assert st["c"] == pytest.approx(1.0)
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0]


def test_removed_names_are_reported_absent():
    tr = Tracer()
    try:
        tr.patch("crflab.flow", "no_such_function", name="x")
        tr.patch("crflab.flow", "NoSuchClass.rhs", name="x")
        tr.patch("crflab.flow", "FlowScenario.no_such_method", name="x")
        tr.patch("no_such_module_here", "f", name="x")
    finally:
        tr.uninstall()
    assert len(tr.absent) == 4


def test_functions_are_patched_where_looked_up():
    import scipy.fft

    import crflab.elliptic
    import crflab.flow
    import crflab.geometry

    step, bounds = crflab.flow.step, crflab.geometry.herm_eig_bounds
    tr = Tracer()
    tr.install()
    try:
        assert crflab.elliptic.step is crflab.flow.step
        assert crflab.elliptic.step.__wrapped__ is step
        assert crflab.flow.herm_eig_bounds.__wrapped__ is bounds
        scipy.fft.rfftn(np.ones((4, 4)))
        np.fft.fft(np.ones(8))
    finally:
        tr.uninstall()
    assert crflab.elliptic.step is step and crflab.flow.herm_eig_bounds is bounds
    assert tr.counts["geometry.fft.calls"] == 2
    assert tr.counts["geometry.fft.points"] == 24
    assert tr.absent == []


def _traced(workload, seed, out):
    tr = Tracer()
    tr.install()
    try:
        inp = workload.setup(seed, out)
        workload.solve(inp)
    finally:
        tr.uninstall()
    return tr.layer_metrics()


COUNTS = ("flow.steps", "flow.rhs.calls", "geometry.fft.calls",
          "elliptic.krylov.op_applies", "elliptic.newton.iterations")


@pytest.mark.parametrize("make", [
    lambda: RelaxN2(resolution=16, s_end=0.3, checkpoint_every=2),
    lambda: GillN1(),
    lambda: NewtonN2(resolution=64),
])
def test_count_metrics_repeat_across_traced_runs(tmp_path, make):
    first = _traced(make(), 4, str(tmp_path))
    second = _traced(make(), 4, str(tmp_path))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    if first["flow.steps"]:
        assert first["flow.rhs_per_step"] == 5.0
    else:
        assert first["elliptic.krylov.op_applies"] > 0


def test_tracer_covers_the_per_layer_metrics():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)
    layers = set(Tracer().layer_metrics()) | {"trace.overhead_s"}
    assert layers == set(run.PER_LAYER_UNITS)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gill_n1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
