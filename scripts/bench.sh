#!/usr/bin/env bash
# Regenerates the machine-readable perf-regression records
# (docs/performance.md):
#   BENCH_codec.json  GB/s for each kernel implementation x dtype x error
#                     bound on a CESM-like field, plus the byte-wise
#                     pre-vectorization encode loop as the fixed reference
#                     the speedup figures compare against.  Since schema v2
#                     the grid also carries the baseline-codec axis
#                     (szref/sz2/zfpref compress+decompress per kernel tier,
#                     parallel chunked-Huffman decode at 1/2/4/8 threads)
#                     and the fused Lorenzo predict+quantize row whose
#                     speedup-vs-scalar series records the vectorization
#                     acceptance bar.  Shares the omp grid's stale-bench
#                     trap: a grid recorded on a bigger machine is not
#                     overwritten unless --force is passed through.
#   BENCH_omp.json    thread-scaling grid (paper Fig. 13 axes): parallel
#                     compress and decompress on the work-stealing pool at
#                     1/2/4/8 threads x kernel x dtype, with the
#                     serial decoder as reference and the detected hardware
#                     thread count recorded alongside the numbers.  A grid
#                     recorded on a bigger machine is not overwritten unless
#                     --force is passed through.
#   BENCH_container.json
#                     format-v3 container grid: full-timestep decode vs
#                     centered ROI decodes at 1/5/10/25% of the field x
#                     1/2/4/8 threads, cold (uncached) and warm (decoded-
#                     chunk LRU cache), with roi_cost_vs_full and
#                     warm_speedup_vs_cold series -- the seekability and
#                     cache acceptance bars.  Same stale-bench trap.
#   BENCH_serve.json  szx-serve service grid: in-process Server over
#                     MemoryTransport pairs (real frame codec and admission
#                     path, no kernel sockets), 1/2/4 concurrent client
#                     connections x compress/decompress jobs x 1/2/4
#                     workers, with requests/s, payload GB/s, and the
#                     conn_scaling series.  Same stale-bench trap.
#
# Usage:
#   scripts/bench.sh            full grids -> BENCH_*.json at the repo root
#   scripts/bench.sh --smoke    tiny field, JSON contract only (what CI runs)
#
# Knobs: SZX_BENCH_SCALE (field size), SZX_BENCH_REPS (timed repetitions;
# the harness floors this at 7 and trims the fastest/slowest quintile), and
# SZX_KERNEL=scalar|avx2|avx512|neon to force the full-path rows onto one
# implementation (the omp grid and the baseline-codec axis switch kernels
# themselves and ignore the override).
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_codec.json"
omp_out="BENCH_omp.json"
container_out="BENCH_container.json"
serve_out="BENCH_serve.json"
if [[ "${1:-}" == "--smoke" ]]; then
  out="BENCH_codec_smoke.json"
  omp_out="BENCH_omp_smoke.json"
  container_out="BENCH_container_smoke.json"
  serve_out="BENCH_serve_smoke.json"
fi

cmake --preset release
cmake --build --preset release -j "$(nproc)" --target micro_codec
./build/bench/micro_codec --bench_json="${out}" "$@"
./build/bench/micro_codec --bench_omp_json="${omp_out}" "$@"
./build/bench/micro_codec --bench_container_json="${container_out}" "$@"
./build/bench/micro_codec --bench_serve_json="${serve_out}" "$@"
echo "bench.sh: wrote ${out}, ${omp_out}, ${container_out} and ${serve_out}"
