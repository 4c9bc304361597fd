// The one SZx frame encoder (paper Sec. 6.1): a worker that compresses a
// contiguous range of blocks into private section fragments, and an
// assembler that stitches N fragments into a finished frame.
//
// Every SZx encoder is these two pieces:
//   - CompressInto (serial) runs the worker once over [0, num_blocks) on the
//     calling thread and assembles one fragment;
//   - CompressOmp runs it over 8-block-aligned chunks on exec::ParallelFor
//     and assembles the fragments in parallel;
//   - cusim::CompressCuda fills one fragment with its lane-simulated block
//     encoder (the GPU algorithm being modelled) and assembles that.
// The assembler owns everything frame-wide: the header, the section stitch
// at prefix-sum offsets, the raw-passthrough decision and raw frame, the
// optional v2 integrity footer, and CompressionStats.  Fragment boundaries
// never change the output bytes: type bits concatenate bytewise because
// every range but the last starts on a multiple of 8 blocks.
#pragma once

#include <span>

#include "core/arena.hpp"
#include "core/block_plan.hpp"
#include "core/format.hpp"

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

/// Validates `params` and resolves the frame-wide bound (one global-range
/// pass in the value-range-relative mode).
template <SupportedFloat T>
[[nodiscard]] FramePlan<T> PlanFrame(std::span<const T> data,
                                     const Params& params);

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

/// The SZx block loop: stats -> decide -> encode for blocks [first, last)
/// into a fragment carved from `arena`.  `first` must be a multiple of 8 so
/// the fragment's type bits start on a byte boundary.  One arena per
/// concurrent call.
template <SupportedFloat T>
[[nodiscard]] SectionFragment<T> CompressBlockRange(const FramePlan<T>& plan,
                                                    std::uint64_t first,
                                                    std::uint64_t last,
                                                    ScratchArena& arena);

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
/// decision.  The decision compares the v1 body sizes only, so an
/// integrity-enabled stream is always its v1 twin plus two patched header
/// bytes and the appended footer.
template <SupportedFloat T>
[[nodiscard]] FrameLayout LayoutFrame(
    const FramePlan<T>& plan, std::span<const SectionFragment<T>> frags);

/// Writes the frame `layout` describes into `dst` (exactly
/// layout.total_bytes()): header, then each fragment's six sections at
/// prefix-sum offsets (one exec::ParallelFor task per fragment when there
/// are several, so the stitch is a parallel scatter), or the raw frame;
/// then the integrity footer.  `scratch` supplies the stitch offsets and
/// footer directory, so a warmed arena keeps the call heap-free.  Fills
/// `stats` when non-null.
template <SupportedFloat T>
void AssembleFrame(const FramePlan<T>& plan,
                   std::span<const SectionFragment<T>> frags,
                   const FrameLayout& layout, std::span<std::byte> dst,
                   ScratchArena& scratch, int threads,
                   CompressionStats* stats);

}  // namespace szx
