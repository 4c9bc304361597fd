#include "core/compressor.hpp"

#include <cmath>

#include "core/block_stats.hpp"
#include "core/frame_encoder.hpp"
#include "core/frame_index.hpp"

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

template <SupportedFloat T>
ByteSpan CompressInto(std::span<const T> data, const Params& params,
                      ScratchArena& arena, CompressionStats* stats) {
  // The serial codec is the one-chunk case of the chunk encoder: both
  // phases cover every block, and the block stats and the one fragment are
  // carved from the caller's arena, on the calling thread.
  const std::uint64_t num_blocks = FrameBlockCount(data.size(), params);
  arena.Reset();  // invalidates anything the caller kept from the last call
  const RangeStats<T> scan =
      ScanBlockRange(data, params.block_size, 0, num_blocks, arena);
  const FramePlan<T> plan = PlanFrame(data, params, scan.range);
  const SectionFragment<T> frag =
      CompressBlockRange(plan, 0, num_blocks, scan.blocks, arena);
  const std::span<const SectionFragment<T>> frags(&frag, 1);
  const FrameLayout layout = LayoutFrame(plan, frags);
  const std::span<std::byte> out =
      arena.AllocateSpan<std::byte>(layout.total_bytes());
  AssembleFrame(plan, frags, layout, out, arena, /*threads=*/1, stats);
  return out;
}

template <SupportedFloat T>
ByteBuffer Compress(std::span<const T> data, const Params& params,
                    CompressionStats* stats) {
  // Per-thread scratch private to this entry point, so callers that manage
  // their own arenas can never be invalidated by a convenience-API call.
  thread_local ScratchArena arena;
  const ByteSpan frame = CompressInto(data, params, arena, stats);
  return ByteBuffer(frame.begin(), frame.end());
}

Header PeekHeader(ByteSpan stream) { return ParseHeader(stream); }

template <SupportedFloat T>
void DecompressInto(ByteSpan stream, std::span<T> out) {
  const Sections<T> s = ParseSections<T>(stream);
  if (DecodePrologue(s, out)) return;
  // One bounds-checked directory pass (shared with the parallel decoder)
  // validates the type-bit and zsize sections against the header before any
  // block is decoded, then the chunk decode core walks the whole frame.
  ChunkRef whole;
  BuildChunkRefs(s, std::span<ChunkRef>(&whole, 1));
  DecodeChunkInto(s, static_cast<CommitSolution>(s.header.solution), whole,
                  out);
}

template <SupportedFloat T>
std::size_t DecodedElementCount(ByteSpan stream) {
  // Parse the full section extents before sizing the output: a corrupt
  // header whose num_elements/num_blocks are inflated in concert passes
  // ParseHeader alone and would demand an arbitrarily large allocation.
  // Section slicing bounds num_blocks (hence num_elements) by the actual
  // stream size, so the failure is a clean szx::Error instead of bad_alloc.
  const Sections<T> s = ParseSections<T>(stream);
  return ByteCursor(stream).CheckedAlloc(s.header.num_elements, sizeof(T),
                                         kMaxBlockSize);
}

template <SupportedFloat T>
std::vector<T> Decompress(ByteSpan stream) {
  std::vector<T> out(DecodedElementCount<T>(stream));
  DecompressInto<T>(stream, std::span<T>(out));
  return out;
}

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
