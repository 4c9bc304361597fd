#!/usr/bin/env bash
# Full local verification battery (docs/static-analysis.md):
#   1. release build with warnings-as-errors, then tier1 + conformance +
#      executor (FIFO pool battery + golden determinism matrix
#      across SZX_KERNEL x threads, docs/performance.md) +
#      container (format-v3 seekable container + decoded-chunk cache +
#      container salvage + golden containers across threads,
#      docs/FORMAT.md "Format v3") +
#      fuzz-smoke (stream corruption campaign + salvage-fuzz stacked-fault
#      smoke, docs/resilience.md) + bench-smoke (codec, thread-scaling,
#      container ROI/cache and serve grid JSON contracts, stale-bench trap)
#      + lint + analysis (szx-lint tree
#      gate twice -- human and --json paths -- lint self-tests, the
#      curated clang-tidy profile when the tool is installed, and the
#      objdump checks that the AVX2 kernels hold no gather and that VEX
#      code lives only in the two -mavx2 kernel TUs), all in one build:
#      runtime dispatch is the only ISA selector, so every other TU is
#      baseline-ISA code, and the tier1/conformance tiers include the
#      `kernel-scalar.*` reruns (SZX_KERNEL=scalar) of the kernel, stats,
#      codec, salvage, hardening, frame-reader, format and damaged-golden
#      suites -- the code a CPU without AVX2 runs,
#      then an ordering sweep: the serve, executor, cancel and chunked-codec
#      suites rerun `ctest --repeat until-fail:N` pinned to one core and
#      unpinned, to flush out tests that lean on scheduling order instead
#      of gates
#   2. clang thread-safety analysis: rebuild under the clang-tsa preset
#      (-Wthread-safety -Werror) so every annotated lock contract in
#      src/core/sync.hpp + executor/salvage/serve is checked;
#      skipped loudly when clang++ is not installed (GCC compiles the
#      annotations as no-ops)
#   3. asan-ubsan build, then every tier under ASan/UBSan
#   4. tsan build, then the pool-executor/cusim suites plus the
#      baseline codecs (parallel chunked-Huffman decode at SZX_THREADS=4)
#      and the container tier's concurrent pieces (decoded-chunk LRU cache
#      property battery, container salvage) under ThreadSanitizer, with
#      no suppressions file
# Each stage stops the script on failure.  Expect the sanitizer stages to
# dominate the runtime; pass --fast to run only stage 1 (ordering sweep
# included).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "=== release build (Werror) + tier1/conformance/serve/fuzz-smoke/bench-smoke/lint/analysis ==="
cmake --preset release
cmake --build --preset release -j "$(nproc)"
ctest --preset tier1
ctest --preset conformance
ctest --preset executor
ctest --preset container
ctest --preset serve
ctest --preset fuzz-smoke
ctest --preset bench-smoke
ctest --preset lint
ctest --preset analysis

echo "=== ordering sweep: serve/executor/cancel/omp-codec suites, pinned and unpinned ==="
# Whole-suite entries, each rerun until its first failure.  Pinned to one
# core, a spin or sleep standing in for a gate starves its peers; unpinned,
# the suites run side by side and race on every core.  The chunked-codec
# suite is in because one of its tests wedges every pool worker.
sweep_repeats=10
sweep_tests='^(serve\.test_serve_server(\.threads-4)?|executor\.test_executor|serve\.test_cancel|tsan-omp\.test_omp_codec)$'
taskset -c 0 ctest --test-dir build -R "$sweep_tests" \
  --repeat "until-fail:$sweep_repeats" --output-on-failure
ctest --test-dir build -R "$sweep_tests" -j "$(nproc)" \
  --repeat "until-fail:$sweep_repeats" --output-on-failure

if [[ "$fast" == "1" ]]; then
  echo "check.sh: --fast requested, skipping clang-tsa and sanitizer tiers"
  exit 0
fi

echo "=== clang thread-safety analysis (-Wthread-safety -Werror) ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset clang-tsa
  cmake --build --preset clang-tsa -j "$(nproc)"
else
  echo "check.sh: SKIPPING clang-tsa stage -- clang++ is not installed."
  echo "          The SZX_GUARDED_BY/SZX_REQUIRES annotations compile as"
  echo "          no-ops under GCC; run this stage on a machine with clang"
  echo "          to statically verify the lock contracts."
fi

echo "=== asan-ubsan build + all tiers under ASan/UBSan ==="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"
ctest --preset asan-all

echo "=== tsan build + pool-executor/cusim suites under ThreadSanitizer ==="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" \
  --target test_omp_codec test_cusim test_kernels \
           test_salvage test_salvage_property test_executor \
           test_huffman test_szref test_sz2 \
           test_chunk_cache test_container_salvage \
           test_serve_server test_serve_chaos test_serve_fd_transport \
           test_cancel test_container_cancel_race
# SZX_THREADS=4 forces the chunked-Huffman parallel decode (szref/sz2) onto
# multiple pool workers even on small boxes, so tsan actually sees the
# concurrent decode path rather than a single-threaded fallback.
SZX_THREADS=4 ctest --preset tsan-omp

echo "check.sh: all stages passed"
