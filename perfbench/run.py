#!/usr/bin/env python3
"""Builds and runs the memaging benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload serve_1c --seed 1 --seconds 25 --trace 0

The benchmark package is built in release mode first (into
$CARGO_TARGET_DIR, default .bench_build); build output goes to stderr, so
the last line of stdout is the run's JSON result.

Steadiness self-check: run one workload REPEAT times with consecutive
seeds and print, for each end-to-end metric, the median, quartiles,
min/max and spread (interquartile range over median), flagging a spread
above a third of the metric's bound or above a tenth of its median:

    python3 perfbench/run.py --workload fleet_2c --repeat 10 [--first-seed 1] [--seconds 25]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BINARY = "memaging-perfbench"
# A run is expected to end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the binary path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Run from the checkout root so its .cargo/config.toml build flags apply,
    # exactly as for the repository's own build.
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: benchmark build failed", file=sys.stderr)
        return None
    return (target if target.is_absolute() else ROOT / target) / "release" / BINARY


def run_once(binary, workload, seed, seconds, trace, capture):
    """Runs the binary once; returns (exit code, stdout text or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    return done.returncode, done.stdout


def summarize(runs, metrics):
    """Per-metric steadiness rows over `runs` (parsed JSON results).

    `metrics` maps each end-to-end metric name to its bound. A row is
    flagged when its spread — the interquartile range as Python's
    statistics.quantiles(values, n=4) gives it, over the median — exceeds
    a tenth of the median or, for every metric but setup_s, a third of
    the bound.
    """
    rows = []
    for name, bound in metrics.items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if not values:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        limit = 0.1 if name == "setup_s" else min(0.1, bound / 3)
        rows.append({
            "metric": name,
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": spread, "bound": bound,
            "flagged": spread > limit,
        })
    return rows


def format_rows(rows, n):
    lines = [f"{'metric':<18} {'unit':<14} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}  (n={n})"]
    for r in rows:
        lines.append(f"{r['metric']:<18} {r['unit']:<14} {r['median']:>12.6g} {r['q1']:>12.6g} "
                     f"{r['q3']:>12.6g} {r['min']:>12.6g} {r['max']:>12.6g} {r['spread']:>8.4f} "
                     f"{r['bound']:>6.3f}{'  FLAG' if r['flagged'] else ''}")
    return "\n".join(lines)


def steadiness(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.repeat):
        code, out = run_once(binary, args.workload, seed, seconds, 0, capture=True)
        if code != 0 or not out:
            print(f"run.py: seed {seed} exited {code}", file=sys.stderr)
            return 1
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"run.py: seed {seed} failed its output checks", file=sys.stderr)
            return 1
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = summarize(runs, bounds)
    print(f"workload {args.workload}, {args.repeat} runs of {seconds} s")
    print(format_rows(rows, len(runs)))
    return 1 if any(r["flagged"] for r in rows) else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, help="steadiness self-check: number of runs")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.repeat is None and (args.seed is None or args.seconds is None):
        p.error("--seed and --seconds are required for a single run")
    binary = build()
    if binary is None:
        return 1
    if args.repeat is not None:
        return steadiness(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
