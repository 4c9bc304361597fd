// SZ-style error-bounded lossy compressor (the paper's "SZ" comparator):
// multidimensional Lorenzo prediction + error-controlled linear-scale
// quantization with decompression feedback + canonical Huffman coding of
// the quantization codes, with an escape path for unpredictable values.
// This is the "classic" SZ 1.4/2.1 pipeline re-implemented from the
// published algorithm descriptions (Di & Cappello IPDPS'16, Tao et al.
// IPDPS'17, Liang et al. BigData'18).
//
// Deliberately float32-only: every dataset in the paper's Table 2 is
// single precision.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/common.hpp"

namespace szx::szref {

struct SzParams {
  ErrorBoundMode mode = ErrorBoundMode::kValueRangeRelative;
  double error_bound = 1e-3;
  /// Quantization interval count is 2^quant_bits (SZ default 65536).
  int quant_bits = 16;
};

struct SzStats {
  std::uint64_t num_elements = 0;
  std::uint64_t num_unpredictable = 0;
  std::uint64_t huffman_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  double absolute_bound = 0.0;
};

/// Compresses a 1-D/2-D/3-D float field (dims slowest-first; pass {n} for
/// 1-D).  The Lorenzo predictor order follows dims.size().
ByteBuffer SzCompress(std::span<const float> data,
                      std::span<const std::size_t> dims,
                      const SzParams& params, SzStats* stats = nullptr);

/// `num_threads` caps the parallel chunked-Huffman decode (0 = executor
/// default, honouring SZX_THREADS); every count yields identical output.
std::vector<float> SzDecompress(ByteSpan stream, int num_threads = 0);

/// Element count recorded in a compressed stream header.
std::uint64_t SzElementCount(ByteSpan stream);

/// Chunk-parallel variant on exec::ParallelFor: compresses dims-aligned
/// chunks independently (the paper's omp-SZ splits the dataset; note it
/// "does not support 2D data" -- we mirror that restriction for fidelity in
/// the Table 6 bench, but the implementation itself accepts any
/// dimensionality).  num_threads <= 0 resolves via exec::ResolveThreads and
/// sets the chunk count, so the stream depends on it; an armed CancelToken
/// on the calling thread stops either direction with szx::Cancelled.
ByteBuffer SzCompressOmp(std::span<const float> data,
                         std::span<const std::size_t> dims,
                         const SzParams& params, SzStats* stats = nullptr,
                         int num_threads = 0);

std::vector<float> SzDecompressOmp(ByteSpan stream, int num_threads = 0);

}  // namespace szx::szref
