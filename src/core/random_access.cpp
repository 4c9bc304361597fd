#include "core/random_access.hpp"

#include <utility>

#include "core/frame_index.hpp"

namespace szx {

template <SupportedFloat T>
void DecompressRangeInto(ByteSpan stream, std::uint64_t first,
                         std::span<T> out) {
  const Sections<T> s = ParseSections<T>(stream);
  const Header& h = s.header;
  const std::uint64_t count = out.size();
  // CheckedAdd refuses a (first, count) pair whose sum wraps around u64, so
  // a forged range can neither pass this comparison by wrapping nor reach
  // the block arithmetic below with an inconsistent end position.
  if (CheckedAdd(first, count) > h.num_elements) {
    throw Error("szx: range exceeds stream element count");
  }
  if (count == 0) return;
  if (h.flags & kFlagRawPassthrough) {
    ByteCursor cur(s.payload);
    cur.SkipArray(first, sizeof(T));
    cur.ReadSpan(out);
    return;
  }
  const auto solution = static_cast<CommitSolution>(h.solution);
  const std::uint32_t bs = h.block_size;
  const std::uint64_t last = first + count;

  // Validate the whole directory against the header first (type-bit
  // popcount and zsize sum, as the full decoders do), so a forged type bit
  // or zsize anywhere in the frame is refused rather than silently shifting
  // the blocks of the range.  Then the same two primitives give the section
  // bases at the range's first block; no payload is decoded before it.
  ChunkRef whole;
  BuildChunkRefs(s, std::span<ChunkRef>(&whole, 1));
  ChunkRef range;
  range.first_block = first / bs;
  range.last_block = (last - 1) / bs + 1;
  range.ncb_base = CountNonConstant(s.type_bits, 0, range.first_block);
  range.const_base = range.first_block - range.ncb_base;
  range.payload_base = SumZsizes(s.ncb_zsize, 0, range.ncb_base);

  // Only the ragged first and last blocks go through this scratch; every
  // whole block decodes straight into `out`.
  std::vector<T> scratch(bs);
  const kernels::BlockOps<T>& ops = kernels::ActiveOps<T>();
  // The requested part [lo, hi) of block [begin, begin + n).
  const auto clip = [&](std::uint64_t begin, std::uint64_t n) {
    return std::pair{std::max(first, begin), std::min(last, begin + n)};
  };
  WalkBlocks(
      s, range,
      [&](std::uint64_t begin, std::uint64_t n, T mu) {
        const auto [lo, hi] = clip(begin, n);
        for (std::uint64_t i = lo; i < hi; ++i) out[i - first] = mu;
      },
      [&](std::uint64_t begin, std::uint64_t n, T mu, const ReqPlan& plan,
          ByteSpan rest, std::size_t zsize) {
        const auto [lo, hi] = clip(begin, n);
        if (lo == begin && hi == begin + n) {
          detail::DecodeBlockBySolution(ops, solution, rest, zsize, mu, plan,
                                        out.subspan(lo - first, n));
          return;
        }
        const std::span<T> block(scratch.data(), n);
        detail::DecodeBlockBySolution(ops, solution, rest, zsize, mu, plan,
                                      block);
        for (std::uint64_t i = lo; i < hi; ++i) {
          out[i - first] = block[i - begin];
        }
      });
}

template <SupportedFloat T>
std::vector<T> DecompressRange(ByteSpan stream, std::uint64_t first,
                               std::uint64_t count) {
  // Validate the range against the header before sizing the allocation, so
  // a forged (first, count) pair cannot drive a huge resize and the sum is
  // overflow-checked before any memory is committed.
  const Header h = ParseHeaderAs<T>(stream);
  if (CheckedAdd(first, count) > h.num_elements) {
    throw Error("szx: range exceeds stream element count");
  }
  std::vector<T> out(CheckedNarrow<std::size_t>(count));
  DecompressRangeInto<T>(stream, first, std::span<T>(out));
  return out;
}

template void DecompressRangeInto<float>(ByteSpan, std::uint64_t,
                                         std::span<float>);
template void DecompressRangeInto<double>(ByteSpan, std::uint64_t,
                                          std::span<double>);
template std::vector<float> DecompressRange<float>(ByteSpan, std::uint64_t,
                                                   std::uint64_t);
template std::vector<double> DecompressRange<double>(ByteSpan, std::uint64_t,
                                                     std::uint64_t);

}  // namespace szx
