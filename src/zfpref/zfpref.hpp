// ZFP-style fixed-accuracy transform compressor (the paper's "ZFP"
// comparator): 4^d blocks, block-floating-point alignment to a common
// exponent, reversible integer lifting transform, sequency reorder,
// negabinary mapping and embedded group-testing bit-plane coding down to
// an error-bound-derived cut-off plane.
//
// Float32 only (every dataset in the paper's Table 2 is single precision).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/common.hpp"

namespace szx::zfpref {

struct ZfpParams {
  ErrorBoundMode mode = ErrorBoundMode::kValueRangeRelative;
  double error_bound = 1e-3;
};

struct ZfpStats {
  std::uint64_t num_elements = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t num_empty_blocks = 0;  ///< blocks entirely below the bound
  std::uint64_t compressed_bytes = 0;
  double absolute_bound = 0.0;
};

/// Compresses a 1-D/2-D/3-D float field (dims slowest-first).
ByteBuffer ZfpCompress(std::span<const float> data,
                       std::span<const std::size_t> dims,
                       const ZfpParams& params, ZfpStats* stats = nullptr);

std::vector<float> ZfpDecompress(ByteSpan stream);

/// Fixed-rate mode: exactly `bits_per_value` bits per value (cuZFP's only
/// mode, paper Sec. 2).  No error bound is enforced -- the paper's point
/// is precisely that fixed-rate "suffers from very low compression ratios"
/// when quality must be preserved.  The stream size is exactly
/// header + ceil(num_blocks * block_bits / 8) bytes.
ByteBuffer ZfpCompressFixedRate(std::span<const float> data,
                                std::span<const std::size_t> dims,
                                double bits_per_value,
                                ZfpStats* stats = nullptr);

std::vector<float> ZfpDecompressFixedRate(ByteSpan stream);

/// Chunk-parallel compression over chunks of block rows, on
/// exec::ParallelFor.  NOTE: like the paper's
/// omp-ZFP, there is intentionally no parallel decompressor (Table 7 lists
/// ZFP decompression as n/a); ZfpDecompress handles these streams serially.
ByteBuffer ZfpCompressOmp(std::span<const float> data,
                          std::span<const std::size_t> dims,
                          const ZfpParams& params, ZfpStats* stats = nullptr,
                          int num_threads = 0);

}  // namespace szx::zfpref
