// The three workloads and the layer suite of the traced run.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {

Result RunDumpLarge(const Options& opts);
Result RunRoiQuery(const Options& opts);
Result RunServeMixed(const Options& opts);

/// Which loop-derived layer metrics the calling workload's own loop
/// already measured; the suite runs a short burst for the others.
struct LayerSuiteSpec {
  std::vector<std::span<const float>> core_fields;  ///< serial core probes
  /// Width of the workload's own CompressOmp calls, which
  /// core.parallel_efficiency is measured at; <= 0 means nproc.
  int threads = 0;
  bool own_roi_loop = false;
  bool own_serve_loop = false;
};

/// Per-layer metrics of the traced run: serial core calls on the
/// workload's fields, executor dispatch, and -- for the layers the
/// workload's own loop does not exercise -- a short roi / serve burst.
void RunLayerSuite(const Options& opts, const LayerSuiteSpec& spec,
                   Result& out);

/// Bursts used by the layer suite (defined with their workloads).
void RoiLayerBurst(const Options& opts, double seconds, Result& out);
void ServeLayerBurst(const Options& opts, double seconds, Result& out);

/// Records the tracing overhead: the relative change of the op p50 between
/// the traced and untraced quarters of a traced run.
void NoteTraceOverhead(double untraced_p50_ms, double traced_p50_ms,
                       Result& out);

/// Writes the collected spans and notes per-span self time.
void FinishTrace(const Options& opts, Result& out);

}  // namespace pb
