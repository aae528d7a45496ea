"""crflab benchmark: time to a checked solution on four seeded workloads.

    python3 perfbench/run.py --workload relax_n2 --seed 1 --seconds 25 --trace 0

Runs the workload again and again, each time in a fresh child process, for
about ``--seconds`` seconds (at least three runs; four with tracing), checks
every run's output for correctness and for byte-identical files across the
runs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Timings are medians over the runs
that passed.

With ``--trace 0`` the metrics are the end-to-end ones: ``solve_s`` (the
solve plus its result files), ``setup_s`` (process start until the solve
begins) and ``peak_rss_mb``. With ``--trace 1`` runs alternate between
untraced and traced, and the metrics are the per-layer ones from the traced
runs plus ``trace.overhead_s`` (traced minus untraced ``solve_s``).

Set-up and run records go to ``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 60.0
MAX_RUNS = 200
# single-threaded pools: a plain one-core baseline, steadier on a shared host
THREADS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy

    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": THREADS,
    }


def run_child(env, workload, seed, out, traced):
    os.makedirs(out)
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
         "--out", out, "--launched", repr(launched), "--trace", str(int(traced))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"traced": traced, "failures": [f"timed out after {CHILD_TIMEOUT_S:g} s"]}
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-3:]
        return {"traced": traced,
                "failures": [f"exit code {proc.returncode}: " + " | ".join(tail)]}
    record = json.loads(stdout.strip().splitlines()[-1])
    record["traced"] = traced
    return record


def output_mismatches(reference, hashes):
    """Determinism gate: one seed must give byte-identical output files."""
    differ = sorted(k for k in set(reference) | set(hashes)
                    if hashes.get(k) != reference.get(k))
    return ["output bytes differ from the first run: " + ", ".join(differ)] if differ else []


def measure(workload, seed, seconds, trace, work):
    env = dict(os.environ, OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    min_runs = 4 if trace else 3
    deadline = time.monotonic() + seconds
    runs, longest, reference = [], 0.0, None
    while len(runs) < MAX_RUNS and (
        len(runs) < min_runs or time.monotonic() + longest <= deadline
    ):
        traced = bool(trace) and len(runs) % 2 == 1
        started = time.monotonic()
        rec = run_child(env, workload, seed, os.path.join(work, f"run{len(runs)}"), traced)
        longest = max(longest, time.monotonic() - started)
        hashes = rec.get("hashes")
        if hashes is not None:
            reference = reference or hashes
            rec["failures"] += output_mismatches(reference, hashes)
        rec["ok"] = not rec["failures"]
        runs.append(rec)
    return runs


def summarize(runs, trace):
    plain = [r for r in runs if r["ok"] and not r["traced"]]
    traced = [r for r in runs if r["ok"] and r["traced"]]
    if not plain or (trace and not traced):
        return None
    if not trace:
        return {k: {"value": statistics.median(r[k] for r in plain), "unit": u}
                for k, u in END_TO_END_UNITS.items()}
    metrics = {}
    for k, u in PER_LAYER_UNITS.items():
        if k == "trace.overhead_s":
            value = (statistics.median(r["solve_s"] for r in traced)
                     - statistics.median(r["solve_s"] for r in plain))
        elif u == "s":
            value = statistics.median(r["layers"][k] for r in traced)
        else:  # counts repeat exactly; keep them whole
            value = statistics.median_low(r["layers"][k] for r in traced)
        metrics[k] = {"value": value, "unit": u}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "crflab", "__init__.py")):
        print(f"crflab sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    env_info = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(records, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        runs = measure(args.workload, args.seed, args.seconds, args.trace, work)
        spans = [os.path.join(work, f"run{i}", "spans.jsonl")
                 for i, r in enumerate(runs) if r["ok"] and r["traced"]]
        if spans:
            shutil.copyfile(spans[-1], os.path.join(records, f"{tag}-spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in runs if not r["ok"]]
    for i, r in enumerate(runs):
        for msg in r["failures"]:
            print(f"run {i}: {msg}", file=sys.stderr)
    metrics = summarize(runs, args.trace)
    absent = sorted({name for r in runs for name in r.get("absent", ())})
    if absent:
        print("traced names absent: " + ", ".join(absent), file=sys.stderr)
    with open(os.path.join(records, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env_info, "runs": runs, "metrics": metrics,
                   "absent": absent}, fh, indent=1)
    print(json.dumps({"environment": env_info}))
    if metrics is None:
        print("no run passed its checks", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failed, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
