// Chunk-parallel SZx codec (paper Sec. 6.1), the one codec body: the
// serial entry points of core/compressor.hpp are its width-1 calls.
//
// Compression assigns contiguous ranges of blocks to chunks, one per
// thread; EncodeFrame (core/frame_encoder.hpp) runs the stats pass and the
// decide + encode pass over them on exec::ParallelFor and assembles the
// fragments (ranges are multiples of 8 blocks so the type bit array
// concatenates bytewise).  Decompression builds the chunk directory
// serially (BuildChunkRefs in core/frame_index.hpp: type-bit popcounts and
// zsize sums per chunk, then prefix sums), then decodes the chunks in
// parallel.
//
// Parallelism runs on the exec::ParallelFor facade over the persistent
// executor pool (see core/executor.hpp), which checks an installed
// exec::CancelToken at every chunk task, at width 1 too.  The *Omp names
// are historical; no OpenMP is involved.
//
// Streams produced by CompressOmp are byte-identical for every thread
// count, so serial Compress output is the width-1 case, and every
// decompressor accepts every stream.
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
