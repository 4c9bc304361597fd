// The SZx entry points: every one runs the chunked frame codec, the serial
// ones at width 1 (docs/performance.md).
#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>

#include "core/block_stats.hpp"
#include "core/executor.hpp"
#include "core/frame_encoder.hpp"
#include "core/frame_index.hpp"
#include "core/omp_codec.hpp"

namespace szx {

void Params::Validate() const {
  if (!(error_bound > 0.0) || !std::isfinite(error_bound)) {
    throw Error("szx: error bound must be finite and > 0");
  }
  if (block_size < kMinBlockSize || block_size > kMaxBlockSize) {
    throw Error("szx: block size must be in [" +
                std::to_string(kMinBlockSize) + ", " +
                std::to_string(kMaxBlockSize) + "]");
  }
}

template <SupportedFloat T>
double ResolveAbsoluteBound(std::span<const T> data, const Params& params) {
  params.Validate();
  // Only the value-range-relative mode reads the data.
  const GlobalRange<T> range =
      params.mode == ErrorBoundMode::kValueRangeRelative
          ? ComputeGlobalRange(data)
          : GlobalRange<T>{};
  return AbsoluteBoundOf(params, range);
}

namespace {

// Resolved width clamped so every chunk spans at least 8 blocks (chunk
// bounds sit on type-bit byte boundaries); it is both the chunk count and
// the thread cap of the encoder and decoder regions.
int ChunkWidth(int num_threads, std::uint64_t num_blocks) {
  return static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(exec::ResolveThreads(num_threads)),
      MaxUsefulChunks(num_blocks)));
}

// The first n elements of the calling thread's vector of U, which keeps its
// capacity so warm calls stay off the heap.  No codec task calls a codec
// entry point, and a thread waiting in a parallel region runs only its own
// region's tasks, so one call at a time uses the vector.  Hand the span,
// not the thread_local, to a parallel region: inside it the name would
// resolve to each worker's own instance.
template <typename U>
std::span<U> ThreadScratch(std::size_t n) {
  static thread_local std::vector<U> v;
  if (v.size() < n) v.resize(n);
  return std::span(v).first(n);
}

}  // namespace

template <SupportedFloat T>
ByteSpan CompressInto(std::span<const T> data, const Params& params,
                      ScratchArena& arena, CompressionStats* stats) {
  // The width-1 frame encoder: one chunk, the frame carved from `arena`.
  return EncodeFrame(
      data, params, std::span<ScratchArena>(&arena, 1),
      [&arena](std::size_t n) { return arena.AllocateSpan<std::byte>(n); },
      stats);
}

template <SupportedFloat T>
ByteBuffer CompressOmp(std::span<const T> data, const Params& params,
                       CompressionStats* stats, int num_threads) {
  const std::size_t chunks = static_cast<std::size_t>(
      ChunkWidth(num_threads, FrameBlockCount(data.size(), params)));
  // One arena per chunk, owned by the calling thread so the fragment memory
  // outlives the parallel regions whichever pool workers ran them.
  ByteBuffer out;
  (void)EncodeFrame(data, params, ThreadScratch<ScratchArena>(chunks),
                    [&out](std::size_t n) {
                      // szx-overwrite: AssembleFrame's stitch writes all n
                      out.resize(n);
                      return std::span<std::byte>(out);
                    },
                    stats);
  return out;
}

template <SupportedFloat T>
ByteBuffer Compress(std::span<const T> data, const Params& params,
                    CompressionStats* stats) {
  return CompressOmp(data, params, stats, 1);
}

Header PeekHeader(ByteSpan stream) { return ParseHeader(stream); }

template <SupportedFloat T>
void DecompressOmpInto(ByteSpan stream, std::span<T> out, int num_threads) {
  const Sections<T> s = ParseSections<T>(stream);
  if (DecodePrologue(s, out)) return;
  const std::size_t chunks = static_cast<std::size_t>(
      ChunkWidth(num_threads, s.header.num_blocks));
  // One bounds-checked directory pass on the calling thread validates the
  // type-bit and zsize sections against the header before any block is
  // decoded.
  const std::span<ChunkRef> dir = ThreadScratch<ChunkRef>(chunks);
  BuildChunkRefs(s, dir);
  // Every chunk writes its blocks at offsets the directory fixed: no
  // serialization and no shared mutable state.
  const auto solution = static_cast<CommitSolution>(s.header.solution);
  exec::ParallelFor(chunks, static_cast<int>(chunks), [&](std::uint64_t c) {
    DecodeChunkInto(s, solution, dir[c], out);
  });
}

template <SupportedFloat T>
void DecompressInto(ByteSpan stream, std::span<T> out) {
  DecompressOmpInto(stream, out, 1);
}

template <SupportedFloat T>
std::size_t DecodedElementCount(ByteSpan stream) {
  // Parse the full section extents before sizing the output: a corrupt
  // header whose num_elements/num_blocks are inflated in concert passes
  // ParseHeader alone and would demand an arbitrarily large allocation.
  // Section slicing bounds num_blocks (hence num_elements) by the actual
  // stream size, so the failure is a clean szx::Error instead of bad_alloc.
  return CheckedOutputCount<T>(stream, ParseSections<T>(stream).header);
}

template <SupportedFloat T>
std::vector<T> DecompressOmp(ByteSpan stream, int num_threads) {
  std::vector<T> out(DecodedElementCount<T>(stream));
  DecompressOmpInto<T>(stream, std::span<T>(out), num_threads);
  return out;
}

template <SupportedFloat T>
std::vector<T> Decompress(ByteSpan stream) {
  return DecompressOmp<T>(stream, 1);
}

template ByteBuffer CompressOmp<float>(std::span<const float>, const Params&,
                                       CompressionStats*, int);
template ByteBuffer CompressOmp<double>(std::span<const double>,
                                        const Params&, CompressionStats*,
                                        int);
template void DecompressOmpInto<float>(ByteSpan, std::span<float>, int);
template void DecompressOmpInto<double>(ByteSpan, std::span<double>, int);
template std::vector<float> DecompressOmp<float>(ByteSpan, int);
template std::vector<double> DecompressOmp<double>(ByteSpan, int);
template ByteBuffer Compress<float>(std::span<const float>, const Params&,
                                    CompressionStats*);
template ByteBuffer Compress<double>(std::span<const double>, const Params&,
                                     CompressionStats*);
template ByteSpan CompressInto<float>(std::span<const float>, const Params&,
                                      ScratchArena&, CompressionStats*);
template ByteSpan CompressInto<double>(std::span<const double>, const Params&,
                                       ScratchArena&, CompressionStats*);
template std::vector<float> Decompress<float>(ByteSpan);
template std::vector<double> Decompress<double>(ByteSpan);
template void DecompressInto<float>(ByteSpan, std::span<float>);
template void DecompressInto<double>(ByteSpan, std::span<double>);
template std::size_t DecodedElementCount<float>(ByteSpan);
template std::size_t DecodedElementCount<double>(ByteSpan);
template double ResolveAbsoluteBound<float>(std::span<const float>,
                                            const Params&);
template double ResolveAbsoluteBound<double>(std::span<const double>,
                                             const Params&);

}  // namespace szx
