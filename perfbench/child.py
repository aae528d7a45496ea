"""One workload run in a fresh process; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        --launched MONOTONIC --trace 0|1

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports, input
generation and problem construction. The timed region is ``solve`` alone;
the correctness check runs afterwards, untraced.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import crflab

    source = os.path.join(ROOT, "src", "crflab")
    if os.path.dirname(os.path.abspath(crflab.__file__)) != source:
        raise SystemExit(f"imported crflab from {crflab.__file__}, not {source}")

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracer import Tracer

        run_id = os.path.join(*os.path.normpath(args.out).split(os.sep)[-2:])
        tracer = Tracer(run_id=run_id)
        tracer.install()
        setup_span = tracer.open("bench.setup")
    inputs = workload.setup(args.seed, args.out)
    if tracer:
        tracer.close(setup_span)
        solve_span = tracer.open("bench.solve")

    solve_start = time.monotonic()
    start = time.perf_counter()
    result = workload.solve(inputs)
    solve_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": solve_start - args.launched,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.close(solve_span)
        tracer.uninstall()
        tracer.write(os.path.join(args.out, "spans.jsonl"))
        record["layers"] = tracer.layer_metrics()
        record["absent"] = tracer.absent

    record["failures"] = workload.check(inputs, result)
    record["hashes"] = {}
    for path in workload.outputs(inputs):
        with open(path, "rb") as fh:
            record["hashes"][os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
