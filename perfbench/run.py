"""thermaneg benchmark: seeded CLI workloads, checked against a reference.

    python3 perfbench/run.py --workload ring-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each sample is a fresh
``python3 perfbench/child.py`` process that imports ``thermaneg`` from
``src/``, generates the workload's inputs from the seed and passes them
to ``thermaneg.cli.main``.  Samples are taken back to back for
``--seconds`` seconds (at least three), and every sample's CSV output is
checked against the numpy reference in ``reference.py``, which is
computed once per run outside the timed region.

``--trace 0`` reports the end-to-end metrics, each the median over the
samples.  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of the traced ones; ``trace.overhead_frac``
compares the two.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list the inputs, the environment, each metric's quartiles
and sample count, and the reference check.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from reference import Reference, evaluations  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_SAMPLES = 3
# Every run must end within 180 s; stop starting samples well before.
HARD_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "results_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_STATS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms"}
COUNT_UNITS = {
    "analysis.threshold.evals": "count",
    "gaussian.partition_reuse": "ratio",
    "spin.temperature_reuse": "ratio",
    "spin.dim_max": "count",
    "cli.rows": "count",
    "process.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        commit = top[1] if len(top) == 2 and os.path.samefile(top[0], ROOT) else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }


def run_child(workload: str, seed: int, trace: bool, outdir: str):
    """One sample; None when the process failed or printed no result."""
    os.makedirs(outdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", outdir]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"sample exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "p25": q1, "p75": q3, "n": len(values)}


def per_layer(traced: list, untraced: list) -> tuple:
    """Per-layer metrics (medians over traced samples) and the report extras."""
    summaries = [spans.summarize(s["spans"]) for s in traced]
    metrics = {}
    seen = set()
    for name in spans.SPAN_NAMES:
        for stat, unit in SPAN_STATS.items():
            values = [summary.get(name, {}).get(stat, 0) for summary in summaries]
            metrics[f"{name}.{stat}"] = (statistics.median(values), unit)
        if any(name in summary for summary in summaries):
            seen.add(name)
    counts = traced[0]["counts"]
    thresholds = counts["thresholds"]
    gauss, rho = counts["gaussian_calls"], counts["thermal_rho_calls"]
    wall_traced = statistics.median(s["wall_s"] for s in traced)
    wall_plain = statistics.median(s["wall_s"] for s in untraced)
    values = {
        "analysis.threshold.evals": counts["threshold_evals"] / thresholds if thresholds else 0,
        "gaussian.partition_reuse": counts["gaussian_partition_seen"] / gauss if gauss else 0,
        "spin.temperature_reuse": counts["thermal_rho_same_t"] / rho if rho else 0,
        "spin.dim_max": counts["dim_max"],
        "cli.rows": traced[0]["rows"],
        "process.cpu_s": statistics.median(s["cpu_s"] for s in traced),
        "trace.overhead_frac": (wall_traced - wall_plain) / wall_plain,
    }
    for name, value in values.items():
        metrics[name] = (value, COUNT_UNITS[name])
    extras = {
        "spans_without_calls": [n for n in spans.SPAN_NAMES if n not in seen],
        "targets_absent": traced[0]["absent"],
        "thresholds": thresholds,
        "threshold_evals_traced": counts["threshold_evals"],
        "threshold_evals_csv": traced[0]["csv_evals"],
        "gaussian.partition_reuse": {"reused": counts["gaussian_partition_seen"], "base": gauss},
        "spin.temperature_reuse": {"reused": counts["thermal_rho_same_t"], "base": rho},
        "wall_s_traced": wall_traced,
        "wall_s_untraced": wall_plain,
    }
    return metrics, extras


@dataclass
class Tally:
    """Results attempted and failed over all samples of a run."""

    attempted: int = 0
    failed: int = 0
    near_cutoff: int = 0
    crashed: int = 0
    problems: list = field(default_factory=list)


def measure(args, calls, references, ref_s: float, tally: Tally) -> tuple:
    """Untraced (and, with --trace 1, traced) samples for --seconds seconds."""
    samples, traced = [], []
    outdir = os.path.join(WORK, str(os.getpid()))
    expected = sum(call.expected_rows() for call in calls)
    budget = min(args.seconds, HARD_LIMIT_S - ref_s)
    min_rounds = 1 if args.trace else MIN_SAMPLES
    start = time.perf_counter()
    rounds = 0
    while True:
        for trace in (False, True) if args.trace else (False,):
            result = run_child(args.workload, args.seed, trace, outdir)
            tally.attempted += expected
            if result is None:
                tally.crashed += 1
                tally.failed += expected
                continue
            result["rows"] = sum(max(0, out["csv"].count("\n") - 1) for out in result["outputs"])
            result["csv_evals"] = sum(
                evaluations(out["csv"])
                for call, out in zip(calls, result["outputs"])
                if call.command == "threshold"
            )
            for ref, out in zip(references, result["outputs"]):
                verdict = ref.check(out["code"], out["csv"])
                tally.failed += verdict.failed
                tally.near_cutoff += verdict.near_cutoff
                tally.problems.extend(verdict.problems[: 5 - len(tally.problems)])
            (traced if trace else samples).append(result)
        rounds += 1
        projected = (time.perf_counter() - start) * (rounds + 1) / rounds
        if projected > HARD_LIMIT_S - ref_s or (projected > budget and rounds >= min_rounds):
            return samples, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "thermaneg", "cli.py")):
        print(f"no thermaneg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    calls = generate(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for call in calls:
        print("input: thermaneg " + " ".join(call.argv("OUT")))
    print("environment: " + json.dumps(environment(args.seed)))
    t_ref = time.perf_counter()
    references = [Reference(call) for call in calls]
    ref_s = time.perf_counter() - t_ref

    tally = Tally()
    samples, traced = measure(args, calls, references, ref_s, tally)
    if not samples or (args.trace and not traced):
        print("no sample completed; see the errors above", file=sys.stderr)
        return 1

    print(f"reference: computed in {ref_s:.3f} s; {tally.near_cutoff} results rest on a "
          f"reference E_N within tolerance of EPS_PPT (near_cutoff; PPT verdict not judged)")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print(f"error_rate: {tally.failed / tally.attempted:.6g} ({tally.failed} failed of "
          f"{tally.attempted} attempted, {tally.crashed} samples crashed)")

    if args.trace:
        layer, extras = per_layer(traced, samples)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        print("trace: " + json.dumps(extras))
        for key, (value, unit) in layer.items():
            print(f"{key:48s} {value:.6g} {unit}")
    else:
        series = {
            "wall_s": [s["wall_s"] for s in samples],
            "results_per_s": [s["rows"] / s["wall_s"] for s in samples],
            "setup_s": [s["setup_s"] for s in samples],
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        }
        stats = {k: quartiles(v) for k, v in series.items()}
        for key, q in stats.items():
            print(f"{key:14s} median {q['median']:.6g} {END_TO_END_UNITS[key]}  "
                  f"p25 {q['p25']:.6g}  p75 {q['p75']:.6g}  n={q['n']}")
        print(f"process.cpu_s  median {statistics.median(s['cpu_s'] for s in samples):.6g} s")
        metrics = {
            k: {"value": q["median"], "unit": END_TO_END_UNITS[k]} for k, q in stats.items()
        }
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
