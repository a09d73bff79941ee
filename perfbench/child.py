"""One benchmark sample: a fresh process that runs a workload once.

    python3 perfbench/child.py --workload W --seed N --outdir DIR [--trace]

Set-up time runs from just before ``import thermaneg`` (numpy included)
to the first ``cli.main`` call and covers generating the inputs.  Wall
time covers the workload's ``cli.main`` calls.  The result is one JSON
line on standard output: the timings, peak resident memory, CPU time,
each call's exit code and CSV text and, with ``--trace``, the spans and
counters of the traced layers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import thermaneg.cli

    calls = workloads.generate(args.workload, args.seed)
    argvs = [call.argv(args.outdir) for call in calls]
    tracer = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()
    cpu0 = os.times()
    t1 = time.perf_counter()
    codes = []
    # Anything the program prints goes to stderr; stdout carries the result.
    with contextlib.redirect_stdout(sys.stderr):
        for argv in argvs:
            try:
                codes.append(thermaneg.cli.main(argv))
            except Exception:  # counted as a failed call, the run goes on
                traceback.print_exc()
                codes.append(-1)
    t2 = time.perf_counter()
    cpu1 = os.times()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = []
    for call, code in zip(calls, codes):
        path = os.path.join(args.outdir, call.out)
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        outputs.append({"code": code, "csv": text})
    result = {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "cpu_s": (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
        "peak_rss_mb": peak_kib / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, absent=tracer.absent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
