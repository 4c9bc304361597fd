// Chunk-parallel SZx codec (paper Sec. 6.1).
//
// Compression assigns contiguous ranges of blocks to threads; each thread
// runs the shared block-range worker into private section fragments, and
// the shared frame assembler stitches them (core/frame_encoder.hpp; ranges
// are multiples of 8 blocks so the type bit array concatenates bytewise).
// The serial Compress is the same worker run over one range.
// Decompression builds a chunk directory (core/frame_index.hpp: type-bit
// popcounts and zsize sums per chunk, then prefix sums), then decodes the
// chunks in parallel.
//
// Parallelism runs on the exec::ParallelFor facade over the persistent
// executor pool (see core/executor.hpp).  The *Omp names are
// historical; no OpenMP is involved.
//
// Streams produced by CompressOmp are byte-identical to serial Compress
// output for every thread count, and either decompressor accepts either
// stream.
#pragma once

#include <span>
#include <vector>

#include "core/compressor.hpp"

namespace szx {

/// `num_threads == 0` uses the executor default width (SZX_THREADS, then
/// the CPU affinity mask, then hardware concurrency).
template <SupportedFloat T>
[[nodiscard]] ByteBuffer CompressOmp(std::span<const T> data, const Params& params,
                       CompressionStats* stats = nullptr,
                       int num_threads = 0);

template <SupportedFloat T>
void DecompressOmpInto(ByteSpan stream, std::span<T> out,
                       int num_threads = 0);

template <SupportedFloat T>
[[nodiscard]] std::vector<T> DecompressOmp(ByteSpan stream, int num_threads = 0);

}  // namespace szx
