#!/usr/bin/env python3
"""Steadiness helper: runs one workload repeatedly, one seed per run, and
prints each metric's median, quartiles and spread across the runs.

    python3 perfbench/steadiness.py --workload roi_query [--runs 10]
        [--seconds 20] [--first-seed 1]

spread = (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  A metric's bound in BENCHMARK.json is
taken from this output: at least three times the spread seen here, capped
at 0.25 (the suggestion column).  Run from the root of a source checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


CONTROLS = ("memcpy_gbps", "compute_probe_ms", "cpu_steal_frac")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed: seed {seed} exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run: seed {seed}: {lines[-1]}")
    context = {}
    for line in lines[:-1]:
        if line.startswith('{"context"'):
            context = json.loads(line)["context"]
    return result, {k: context.get(k) for k in CONTROLS}, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    values, units, walls = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, ctl, wall = run_once(args.workload, seed, args.seconds)
        walls.append(wall)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        # Each run's metrics beside its machine controls: a shift that
        # tracks the controls is the host, not the code.
        ctl_s = " ".join(f"{k}={v:.4g}" for k, v in ctl.items()
                         if v is not None)
        met_s = " ".join(f"{k}={m['value']:.4g}"
                         for k, m in sorted(result["metrics"].items()))
        print(f"run {i + 1}/{args.runs} seed {seed}: {wall:.1f} s, "
              f"{result['attempted']} ops, {ctl_s} | {met_s}",
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs x {args.seconds:g} s, "
          f"wall per run {statistics.median(walls):.1f} s (median)")
    print(f"{'metric':34} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound>=':>7}")
    for name in sorted(values):
        med, q1, q3, spread = summarize(values[name])
        suggest = min(0.25, 3 * spread)
        print(f"{name:34} {units[name]:9} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {suggest:7.3f}")


if __name__ == "__main__":
    main()
