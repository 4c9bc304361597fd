#!/usr/bin/env bash
# Regenerates the machine-readable perf-regression records
# (docs/performance.md), one grid binary each.  Every grid takes
# `--out=PATH [--smoke] [--force]` and refuses to overwrite a record whose
# hardware_threads exceeds the CPUs this process may run on (its affinity
# mask) unless --force is passed through.
#   grid_codec -> BENCH_codec.json
#                     GB/s for each kernel implementation x dtype x error
#                     bound on a CESM-like field, plus the byte-wise
#                     pre-vectorization encode loop as the fixed reference
#                     the speedup figures compare against; the
#                     baseline-codec axis (szref/sz2/zfpref
#                     compress+decompress per kernel tier, parallel
#                     chunked-Huffman decode at 1/2/4/8 threads); the fused
#                     Lorenzo predict+quantize row whose speedup-vs-scalar
#                     series records the vectorization acceptance bar; and
#                     one row per stage no other grid times (pointwise-REL
#                     compress, range slab, LZ, Huffman encode, ZFP
#                     transform and fixed-rate compress).
#   grid_threads -> BENCH_omp.json
#                     thread-scaling grid (paper Fig. 13 axes): parallel
#                     compress and decompress on the executor pool at
#                     1/2/4/8 threads x kernel x dtype, with the serial
#                     decoder as reference.
#   grid_container -> BENCH_container.json
#                     format-v3 container grid: full-timestep decode vs
#                     centered ROI decodes at 1/5/10/25% of the field x
#                     1/2/4/8 threads, cold (uncached) and warm (decoded-
#                     chunk LRU cache), with roi_cost_vs_full and
#                     warm_speedup_vs_cold series -- the seekability and
#                     cache acceptance bars.
#   grid_serve -> BENCH_serve.json
#                     szx-serve service grid: in-process Server over
#                     MemoryTransport pairs (real frame codec and admission
#                     path, no kernel sockets), 1/2/4 concurrent client
#                     connections x compress/decompress jobs x 1/2/4
#                     workers, with requests/s, payload GB/s, and the
#                     conn_scaling series.
#
# Usage:
#   scripts/bench.sh            full grids -> BENCH_*.json at the repo root
#   scripts/bench.sh --smoke    tiny field, JSON contract only (what CI runs)
#   scripts/bench.sh --force    overwrite records from a bigger machine
#
# Knobs: SZX_BENCH_SCALE (field size), SZX_BENCH_REPS (timed repetitions;
# the harness floors this at 7 for the codec grid and 5 for the others, and
# trims the fastest/slowest quintile), and SZX_KERNEL=scalar|avx2|neon
# to force the full-path rows onto one implementation (the thread-scaling
# grid and the baseline-codec axis switch kernels themselves and ignore the
# override).
set -euo pipefail
cd "$(dirname "$0")/.."

suffix=""
if [[ "${1:-}" == "--smoke" ]]; then
  suffix="_smoke"
fi

cmake --preset release
cmake --build --preset release -j "$(nproc)" \
  --target grid_codec grid_threads grid_container grid_serve
./build/bench/grid_codec --out="BENCH_codec${suffix}.json" "$@"
./build/bench/grid_threads --out="BENCH_omp${suffix}.json" "$@"
./build/bench/grid_container --out="BENCH_container${suffix}.json" "$@"
./build/bench/grid_serve --out="BENCH_serve${suffix}.json" "$@"
echo "bench.sh: wrote BENCH_{codec,omp,container,serve}${suffix}.json"
