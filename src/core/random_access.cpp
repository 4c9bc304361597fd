#include "core/random_access.hpp"

#include "core/frame_index.hpp"

namespace szx {

template <SupportedFloat T>
void DecompressRangeInto(ByteSpan stream, std::uint64_t first,
                         std::span<T> out) {
  const Sections<T> s = ParseSections<T>(stream);
  const Header& h = s.header;
  if (h.dtype != static_cast<std::uint8_t>(FloatTraits<T>::kTag)) {
    throw Error("szx: stream element type mismatch");
  }
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
  const std::uint64_t first_block = first / bs;
  const std::uint64_t last_block = (first + count - 1) / bs;

  // Validate the whole directory against the header first (type-bit
  // popcount and zsize sum, as the full decoders do), so a forged type bit
  // or zsize anywhere in the frame is refused rather than silently shifting
  // the blocks of the range.  Then the same two primitives give the section
  // bases at first_block; no payload is decoded before the range.
  ChunkRef whole;
  BuildChunkRefs(s, std::span<ChunkRef>(&whole, 1));
  std::uint64_t ncb_idx = CountNonConstant(s.type_bits, 0, first_block);
  std::uint64_t const_idx = first_block - ncb_idx;
  std::uint64_t offset = SumZsizes(s.ncb_zsize, 0, ncb_idx);

  std::vector<T> scratch(bs);
  const kernels::BlockOps<T>& ops = kernels::ActiveOps<T>();
  for (std::uint64_t k = first_block; k <= last_block; ++k) {
    const std::uint64_t block_begin = k * bs;
    const std::uint64_t block_count =
        std::min<std::uint64_t>(bs, h.num_elements - block_begin);
    // Intersection of the block with the requested range.
    const std::uint64_t lo = std::max(first, block_begin);
    const std::uint64_t hi =
        std::min(first + count, block_begin + block_count);
    if (!IsNonConstant(s.type_bits, k)) {
      if (const_idx >= h.num_constant) {
        throw Error("szx: corrupt stream (constant block overflow)");
      }
      const T mu = s.ConstMu(const_idx++);
      for (std::uint64_t i = lo; i < hi; ++i) out[i - first] = mu;
      continue;
    }
    if (ncb_idx >= h.num_blocks - h.num_constant) {
      throw Error("szx: corrupt stream (non-constant block overflow)");
    }
    const ReqPlan plan = PlanFromReqLength<T>(s.Req(ncb_idx));
    const T mu = s.NcbMu(ncb_idx);
    const std::uint16_t zsize = s.Zsize(ncb_idx);
    ++ncb_idx;
    if (offset + zsize > s.payload.size()) {
      throw Error("szx: corrupt stream (payload overrun)");
    }
    const ByteSpan rest = s.payload.subspan(offset);
    offset += zsize;
    if (lo == block_begin && hi == block_begin + block_count) {
      // Whole block requested: decode straight into the output.
      detail::DecodeBlockBySolution(ops, solution, rest, zsize, mu, plan,
                                    out.subspan(lo - first, block_count));
      continue;
    }
    const std::span<T> block(scratch.data(), block_count);
    detail::DecodeBlockBySolution(ops, solution, rest, zsize, mu, plan,
                                  block);
    for (std::uint64_t i = lo; i < hi; ++i) {
      out[i - first] = block[i - block_begin];
    }
  }
}

template <SupportedFloat T>
std::vector<T> DecompressRange(ByteSpan stream, std::uint64_t first,
                               std::uint64_t count) {
  // Validate the range against the header before sizing the allocation, so
  // a forged (first, count) pair cannot drive a huge resize and the sum is
  // overflow-checked before any memory is committed.
  const Header h = ParseHeader(stream);
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
