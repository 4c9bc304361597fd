#!/usr/bin/env python3
"""Smoke test of the repo benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

For each workload run.py knows, untraced and traced, checks that the last
stdout line is the result object with exactly the keys correct,
attempted, failed and metrics, that the metric names and units are
exactly those BENCHMARK.json lists for that mode, and that the
correctness gate passed with no failed op.  Then checks that the
benchmark refuses to run, without printing a result, from a directory
that holds only BENCHMARK.json and perfbench/.  Run from the root of a
source checkout; exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every workload run.py knows; roi_query runs but is not gated (README.md).
WORKLOADS = ("dump_large", "roi_query", "serve_mixed")


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in WORKLOADS:
        for trace in (0, 1):
            out = run(ROOT, w, trace)
            where = f"{w} --trace {trace}"
            check(out.returncode == 0, f"{where}: exit {out.returncode}\n"
                  f"{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{where}: correctness gate")
            check(result["failed"] == 0, f"{where}: {result['failed']} failed")
            check(result["attempted"] >= 1, f"{where}: no ops attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{where}: metrics differ from BENCHMARK.json: missing "
                  f"{sorted(set(expected[trace]) - set(got))}, extra "
                  f"{sorted(set(got) - set(expected[trace]))}, or units")
            for k, v in result["metrics"].items():
                check(isinstance(v["value"], (int, float)) and
                      math.isfinite(v["value"]), f"{where}: {k} not a number")
            print(f"ok  {where}: {result['attempted']} ops, "
                  f"{len(got)} metrics")

    # Outside a source checkout the benchmark must fail without a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bare, WORKLOADS[0], 0)
    check(out.returncode != 0, "bare directory: exit 0")
    check("\"metrics\"" not in out.stdout, "bare directory printed a result")
    shutil.rmtree(bare)
    print("ok  bare directory: refused with exit", out.returncode)


if __name__ == "__main__":
    main()
