// Differential backend runner: one input, every codec schedule.
//
// The paper's central claim is that the serial, multicore, and GPU (cusim)
// schedules are the same algorithm with dependencies broken differently.
// RunDifferential turns that claim into a checkable contract for a single
// (input, Params) pair:
//   - CompressOmp output is byte-identical to serial Compress output;
//   - cusim::CompressCuda output is byte-identical too (Solution C only);
//   - every decompressor that accepts the stream reconstructs bit-identical
//     values (Decompress, DecompressOmp, DecompressCuda, DecompressInto);
//   - the reconstruction satisfies the mode's error-bound oracle;
//   - ValidateStream(deep) accepts the stream and the header is coherent;
//   - the hybrid wrapper round-trips to the same reconstruction.
#pragma once

#include <span>
#include <string>

#include "core/bitops.hpp"
#include "core/common.hpp"

namespace szx::testkit {

struct DifferentialOptions {
  int omp_threads = 3;        ///< deliberately odd: uneven block ranges
  bool check_hybrid = true;   ///< also round-trip the hybrid wrapper
};

struct DifferentialReport {
  bool ok = true;
  std::string detail;   ///< first failure, empty when ok
  ByteBuffer stream;    ///< the serial stream (reusable as a fuzz base)
};

template <SupportedFloat T>
DifferentialReport RunDifferential(std::span<const T> data,
                                   const Params& params,
                                   const DifferentialOptions& options = {});

}  // namespace szx::testkit
