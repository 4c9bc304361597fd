#!/usr/bin/env python3
"""Merges several runs of one bench grid into a per-row median record.

    scripts/bench_median.py OUT.json RUN1.json RUN2.json RUN3.json [...]

Every run must come from the same grid binary on the same machine (same
schema, hardware_threads, reps and rows in the same order).  For each
array of row objects in the document (`results` and the derived ratio
series), row i of OUT is row i of the run whose key figure for that row is
the median of the runs: `gbps` for result rows, `cost` or `speedup` for
ratio rows.  A row is copied whole from one run, so its timings stay
consistent with one another.  The other fields come from the first run,
and OUT gains `"runs": N`.  An odd N picks a true median; an even N the
lower middle one.
"""

import json
import sys

KEY_FIGURES = ("gbps", "cost", "speedup")
IDENTITY = ("bench", "kernel", "dtype", "threads", "roi_fraction", "rel_eb")


def key_figure(row):
    for k in KEY_FIGURES:
        if k in row:
            return k
    return None


def identity(row):
    return tuple(row.get(k) for k in IDENTITY)


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_path, run_paths = argv[1], argv[2:]
    runs = []
    for p in run_paths:
        with open(p) as f:
            runs.append(json.load(f))
    first = runs[0]
    for p, r in zip(run_paths[1:], runs[1:]):
        for k in ("schema", "hardware_threads", "reps", "smoke"):
            if r.get(k) != first.get(k):
                print(f"bench_median: {p}: {k} differs from {run_paths[0]}",
                      file=sys.stderr)
                return 1
    merged = dict(first)
    for key, value in first.items():
        if not (isinstance(value, list) and value and
                all(isinstance(v, dict) and key_figure(v) for v in value)):
            continue
        rows = []
        for i, row in enumerate(value):
            fig = key_figure(row)
            candidates = []
            for p, r in zip(run_paths, runs):
                other = r[key][i] if i < len(r.get(key, [])) else None
                if other is None or identity(other) != identity(row):
                    print(f"bench_median: {p}: {key}[{i}] does not match "
                          f"{run_paths[0]}", file=sys.stderr)
                    return 1
                candidates.append(other)
            candidates.sort(key=lambda c: c[fig])
            rows.append(candidates[(len(candidates) - 1) // 2])
        merged[key] = rows
    merged["runs"] = len(runs)
    with open(out_path, "w") as f:
        json.dump(merged, f, separators=(",", ":"))
        f.write("\n")
    print(f"bench_median: wrote {out_path} (per-row median of {len(runs)} "
          f"runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
