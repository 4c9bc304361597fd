// The one SZx frame encoder (paper Sec. 6.1), in two phases over
// contiguous block ranges, and an assembler that stitches the per-range
// section fragments into a finished frame.
//
//   1. Stats pass.  ScanBlockRange computes every block's stats exactly
//      once, with the active kernel table's multi-block entry, into the
//      range's arena, and returns the range's finite min/max.
//   2. Reduce.  The O(ranges) partial ranges merge into the frame's range;
//      PlanFrame turns it into the absolute bound (AbsoluteBoundOf) without
//      reading the data again.
//   3. Decide + encode.  CompressBlockRange reads the stored stats, decides
//      each block and encodes it into the range's fragment.
//
// EncodeFrame runs these pieces over one chunk per arena, each phase on one
// exec::ParallelFor, and is the only CPU encoder: CompressInto is its
// width-1 call on the caller's arena, CompressOmp (and Compress, at width
// 1) its width-N call into a ByteBuffer.  cusim::CompressCuda reuses
// PlanFrame, CarveFragment and the assembler around its lane-simulated
// stats reduction and block encoder (the GPU algorithm being modelled).
// Min/max are order-independent, so the chunking never changes the bound.
// The assembler owns everything frame-wide: the header, the section stitch
// at prefix-sum offsets, the raw-passthrough decision and raw frame, the
// optional v2 integrity footer, and CompressionStats.  Fragment boundaries
// never change the output bytes: type bits concatenate bytewise because
// every range but the last starts on a multiple of 8 blocks.
#pragma once

#include <span>

#include "core/arena.hpp"
#include "core/block_plan.hpp"
#include "core/block_stats.hpp"
#include "core/executor.hpp"
#include "core/format.hpp"
#include "core/frame_index.hpp"

namespace szx {

/// Frame-wide inputs every fragment shares.
template <SupportedFloat T>
struct FramePlan {
  std::span<const T> data;
  Params params;
  double abs_bound = 0.0;  ///< resolved bound (0 for pointwise-relative)
  int eb_expo = 0;         ///< BoundExponent(abs_bound), or lossless sentinel
  std::uint64_t num_blocks = 0;
};

/// Validates `params` and returns the number of blocks a frame of
/// `num_elements` values has.
[[nodiscard]] std::uint64_t FrameBlockCount(std::size_t num_elements,
                                            const Params& params);

/// Phase-1 result for one block range.
template <SupportedFloat T>
struct RangeStats {
  std::span<const BlockStats<T>> blocks;  ///< one entry per block, in order
  GlobalRange<T> range;  ///< finite min/max of the range's elements
};

/// Phase 1: the stats of blocks [first, last) of `data` (block size `bs`),
/// computed once through kernels::ActiveOps into `arena`.  Steady-state
/// calls on a warmed arena never touch the heap.
template <SupportedFloat T>
[[nodiscard]] RangeStats<T> ScanBlockRange(std::span<const T> data,
                                           std::uint32_t bs,
                                           std::uint64_t first,
                                           std::uint64_t last,
                                           ScratchArena& arena);

/// The frame-wide absolute bound `params` enforces on data whose finite
/// range is `range`: error_bound in the absolute mode, error_bound *
/// (max - min) in the value-range-relative mode (+0.0 when no value is
/// finite or the width is zero, whatever the signs of zero endpoints), and
/// 0 in the pointwise-relative mode.  The one home of that formula.
template <SupportedFloat T>
[[nodiscard]] double AbsoluteBoundOf(const Params& params,
                                     const GlobalRange<T>& range);

/// Validates `params` and resolves the frame-wide bound from `range`, the
/// merged phase-1 ranges of the whole frame.  Reads no data.
template <SupportedFloat T>
[[nodiscard]] FramePlan<T> PlanFrame(std::span<const T> data,
                                     const Params& params,
                                     const GlobalRange<T>& range);

/// Section fragment of one block range, viewing arena memory.  The spans
/// are capacities sized to the range's worst case (every block
/// non-constant, every payload at its cap); the *_n cursors track the live
/// prefixes.
template <SupportedFloat T>
struct SectionFragment {
  std::span<std::byte> type_bits;
  std::span<std::byte> const_mu;
  std::span<std::byte> ncb_req;
  std::span<std::byte> ncb_mu;
  std::span<std::byte> ncb_zsize;
  std::span<std::byte> payload;
  std::size_t const_mu_n = 0;
  std::size_t ncb_n = 0;
  std::size_t payload_n = 0;
  std::uint64_t num_constant = 0;
  std::uint64_t num_lossless = 0;

  /// Room left for the next non-constant block's payload.
  [[nodiscard]] std::span<std::byte> PayloadTail() const {
    return payload.subspan(payload_n);
  }

  /// Records a constant block represented by `mu`.
  void AddConstant(T mu);

  /// Records range-local block `k` as non-constant; its `zsize` payload
  /// bytes were just written at PayloadTail().
  void AddNonConstant(std::uint64_t k, const BlockDecision<T>& d,
                      std::size_t zsize);
};

/// Carves an empty fragment for blocks [first, last) of `plan` from
/// `arena`.  Steady-state calls on a warmed arena never touch the heap.
template <SupportedFloat T>
[[nodiscard]] SectionFragment<T> CarveFragment(const FramePlan<T>& plan,
                                               std::uint64_t first,
                                               std::uint64_t last,
                                               ScratchArena& arena);

/// Phase 2, the SZx block loop: decide -> encode for blocks [first, last)
/// into a fragment carved from `arena`, reading each block's phase-1 stats
/// from `stats` (one entry per block of the range).  `first` must be a
/// multiple of 8 so the fragment's type bits start on a byte boundary.  One
/// arena per concurrent call.
template <SupportedFloat T>
[[nodiscard]] SectionFragment<T> CompressBlockRange(
    const FramePlan<T>& plan, std::uint64_t first, std::uint64_t last,
    std::span<const BlockStats<T>> stats, ScratchArena& arena);

/// Size and shape of a frame assembled from a set of fragments.
struct FrameLayout {
  Header header;  ///< v1 header with the totals summed over the fragments
  std::uint64_t num_lossless = 0;
  bool raw_passthrough = false;  ///< encoded sections would not beat raw
  std::size_t body_bytes = 0;    ///< v1 frame: header + sections, or raw
  std::uint32_t footer_chunks = 0;  ///< integrity chunks; 0 without footer
  std::size_t footer_bytes = 0;

  [[nodiscard]] std::size_t total_bytes() const {
    return body_bytes + footer_bytes;
  }
};

/// Sums the fragments (contiguous block ranges, in order, covering the
/// whole frame) into the frame layout and makes the raw-passthrough
/// decision from format.hpp's section extents.  The decision compares the
/// v1 body sizes only, so an integrity-enabled stream is always its v1 twin
/// with a v2 header (version and flag) and the appended footer.
template <SupportedFloat T>
[[nodiscard]] FrameLayout LayoutFrame(
    const FramePlan<T>& plan, std::span<const SectionFragment<T>> frags);

/// Writes the frame `layout` describes into `dst` (exactly
/// layout.total_bytes()): the header as written (v2 when the layout has a
/// footer), then each fragment's six sections at prefix-sum offsets within
/// the FrameExtentsOf sections (one exec::ParallelFor task per fragment, so the
/// stitch is a parallel scatter), or the raw frame; then the integrity
/// footer.  `scratch` supplies the stitch offsets and footer directory, so
/// a warmed arena keeps the call heap-free.  Fills `stats` when non-null.
template <SupportedFloat T>
void AssembleFrame(const FramePlan<T>& plan,
                   std::span<const SectionFragment<T>> frags,
                   const FrameLayout& layout, std::span<std::byte> dst,
                   ScratchArena& scratch, CompressionStats* stats);

/// The CPU frame encoder: encodes `data` as one frame in arenas.size()
/// chunks (1 to MaxUsefulChunks of its block count), chunk c working in
/// arenas[c].  Each phase is one exec::ParallelFor of one task per chunk,
/// so an installed exec::CancelToken is checked at every width.
/// `dst(bytes)` must return a span of exactly `bytes` for the finished
/// frame, which is returned.  The arenas are reset at entry and hold
/// everything else (chunk bounds, stats, fragments), so a warm call
/// allocates only what `dst` does.
template <SupportedFloat T, typename Dst>
std::span<std::byte> EncodeFrame(std::span<const T> data, const Params& params,
                                 std::span<ScratchArena> arenas, Dst&& dst,
                                 CompressionStats* stats) {
  const std::uint64_t num_blocks = FrameBlockCount(data.size(), params);
  const std::size_t chunks = arenas.size();
  const int width = static_cast<int>(chunks);
  for (ScratchArena& a : arenas) a.Reset();
  ScratchArena& shared = arenas[0];
  const std::span<ChunkRef> bounds = shared.AllocateSpan<ChunkRef>(chunks);
  const std::span<RangeStats<T>> scans =
      shared.AllocateSpan<RangeStats<T>>(chunks);
  const std::span<SectionFragment<T>> frags =
      shared.AllocateSpan<SectionFragment<T>>(chunks);
  SetChunkBounds(num_blocks, bounds);

  // Phase 1: every block's stats, once, into its chunk's arena.
  exec::ParallelFor(chunks, width, [&](std::uint64_t c) {
    scans[c] = ScanBlockRange(data, params.block_size, bounds[c].first_block,
                              bounds[c].last_block, arenas[c]);
  });
  // Reduce the O(chunks) partial ranges into the frame bound.
  GlobalRange<T> range;
  for (const RangeStats<T>& s : scans) range.Merge(s.range);
  const FramePlan<T> plan = PlanFrame(data, params, range);

  // Phase 2: decide + encode from the stored stats.
  exec::ParallelFor(chunks, width, [&](std::uint64_t c) {
    frags[c] = CompressBlockRange(plan, bounds[c].first_block,
                                  bounds[c].last_block, scans[c].blocks,
                                  arenas[c]);
  });

  const std::span<const SectionFragment<T>> fr(frags);
  const FrameLayout layout = LayoutFrame(plan, fr);
  const std::span<std::byte> out = dst(layout.total_bytes());
  AssembleFrame(plan, fr, layout, out, shared, stats);
  return out;
}

}  // namespace szx
