#include "core/frame_encoder.hpp"

#include <algorithm>

#include "core/compressor.hpp"
#include "core/encode.hpp"
#include "core/executor.hpp"
#include "core/integrity.hpp"
#include "core/kernels/kernels.hpp"

namespace szx {
namespace {

// Copies `src` to dst[at, at + src.size()).
void PutAt(std::span<std::byte> dst, std::size_t at, ByteSpan src) {
  std::copy(src.begin(), src.end(), dst.subspan(at, src.size()).begin());
}

// A fragment's landing offsets within each section: running sums of the
// fragments before it.
struct FragmentOffsets {
  std::size_t type_bits = 0;
  std::size_t const_mu = 0;
  std::size_t ncb = 0;  // non-constant blocks (req, mu and zsize entries)
  std::size_t payload = 0;
};

}  // namespace

std::uint64_t FrameBlockCount(std::size_t num_elements, const Params& params) {
  params.Validate();
  const std::uint64_t n = num_elements;
  return (n + params.block_size - 1) / params.block_size;
}

template <SupportedFloat T>
RangeStats<T> ScanBlockRange(std::span<const T> data, std::uint32_t bs,
                             std::uint64_t first, std::uint64_t last,
                             ScratchArena& arena) {
  const std::span<BlockStats<T>> blocks =
      arena.AllocateSpan<BlockStats<T>>(static_cast<std::size_t>(last - first));
  const std::uint64_t n = data.size();
  const std::uint64_t begin = std::min<std::uint64_t>(n, first * bs);
  const std::span<const T> elems = data.subspan(
      static_cast<std::size_t>(begin),
      static_cast<std::size_t>(std::min<std::uint64_t>(n, last * bs) - begin));
  RangeStats<T> r;
  r.blocks = blocks;
  r.range = kernels::ActiveOps<T>().block_stats(elems.data(), elems.size(),
                                                bs, blocks.data());
  return r;
}

template <SupportedFloat T>
double AbsoluteBoundOf(const Params& params, const GlobalRange<T>& range) {
  switch (params.mode) {
    case ErrorBoundMode::kAbsolute:
      return params.error_bound;
    case ErrorBoundMode::kPointwiseRelative:
      // No single absolute bound exists: it is eb * |d| per point.
      return 0.0;
    case ErrorBoundMode::kValueRangeRelative:
      break;
  }
  if (!range.any_finite) return 0.0;
  const double width =
      static_cast<double>(range.max) - static_cast<double>(range.min);
  // Zero endpoints of either sign may meet here (+0 - -0, -0 - +0); every
  // zero width yields +0.0, so the header never depends on which came first.
  return width > 0.0 ? params.error_bound * width : 0.0;
}

template <SupportedFloat T>
FramePlan<T> PlanFrame(std::span<const T> data, const Params& params,
                       const GlobalRange<T>& range) {
  FramePlan<T> plan;
  plan.data = data;
  plan.params = params;
  plan.num_blocks = FrameBlockCount(data.size(), params);  // validates
  plan.abs_bound = AbsoluteBoundOf(params, range);
  plan.eb_expo = params.mode == ErrorBoundMode::kPointwiseRelative
                     ? kLosslessEbExpo
                     : BoundExponent(plan.abs_bound);
  return plan;
}

template <SupportedFloat T>
void SectionFragment<T>::AddConstant(T mu) {
  using Bits = typename FloatTraits<T>::Bits;
  ++num_constant;
  StoreWord<Bits>(const_mu.subspan(const_mu_n, sizeof(T)).data(),
                  std::bit_cast<Bits>(mu));
  const_mu_n += sizeof(T);
}

template <SupportedFloat T>
void SectionFragment<T>::AddNonConstant(std::uint64_t k,
                                        const BlockDecision<T>& d,
                                        std::size_t zsize) {
  using Bits = typename FloatTraits<T>::Bits;
  SetNonConstant(type_bits.data(), k);
  if (d.is_lossless) ++num_lossless;
  ncb_req[ncb_n] = std::byte{d.plan.req_length};
  StoreWord<Bits>(ncb_mu.subspan(ncb_n * sizeof(T), sizeof(T)).data(),
                  std::bit_cast<Bits>(d.mu));
  StoreWord<std::uint16_t>(ncb_zsize.subspan(ncb_n * 2, 2).data(),
                           CheckedNarrow<std::uint16_t>(zsize));
  payload_n += zsize;
  ++ncb_n;
}

template <SupportedFloat T>
SectionFragment<T> CarveFragment(const FramePlan<T>& plan, std::uint64_t first,
                                 std::uint64_t last, ScratchArena& arena) {
  const std::uint32_t bs = plan.params.block_size;
  const std::uint64_t n = plan.data.size();
  const std::size_t nb = static_cast<std::size_t>(last - first);
  const std::uint64_t elems =
      std::min<std::uint64_t>(n, last * bs) - std::min<std::uint64_t>(n, first * bs);
  SectionFragment<T> f;
  f.type_bits = arena.AllocateSpan<std::byte>((nb + 7) / 8);
  std::fill(f.type_bits.begin(), f.type_bits.end(), std::byte{0});
  f.const_mu = arena.AllocateSpan<std::byte>(nb * sizeof(T));
  f.ncb_req = arena.AllocateSpan<std::byte>(nb);
  f.ncb_mu = arena.AllocateSpan<std::byte>(nb * sizeof(T));
  f.ncb_zsize = arena.AllocateSpan<std::byte>(nb * 2);
  f.payload = arena.AllocateSpan<std::byte>(kernels::FramePayloadCapacity(
      nb, bs, static_cast<std::size_t>(elems) * sizeof(T)));
  return f;
}

template <SupportedFloat T>
SectionFragment<T> CompressBlockRange(const FramePlan<T>& plan,
                                      std::uint64_t first, std::uint64_t last,
                                      std::span<const BlockStats<T>> stats,
                                      ScratchArena& arena) {
  if (stats.size() != last - first) {
    throw Error("szx: block stats do not cover the block range");
  }
  SectionFragment<T> f = CarveFragment(plan, first, last, arena);
  const Params& p = plan.params;
  const std::uint32_t bs = p.block_size;
  const std::uint64_t n = plan.data.size();
  for (std::uint64_t k = first; k < last; ++k) {
    const std::uint64_t begin = k * bs;
    const std::span<const T> block =
        plan.data.subspan(begin, std::min<std::uint64_t>(bs, n - begin));
    const BlockDecision<T> d =
        DecideBlock(block, stats[k - first], p.mode, p.error_bound,
                    plan.abs_bound, plan.eb_expo);
    if (d.is_constant) {
      // Constant block: mu represents every value within the bound.
      f.AddConstant(d.mu);
      continue;
    }
    const std::size_t zsize = EncodeBlockInto(p.solution, block, d.mu, d.plan,
                                              f.PayloadTail().data());
    f.AddNonConstant(k - first, d, zsize);
  }
  return f;
}

template <SupportedFloat T>
FrameLayout LayoutFrame(const FramePlan<T>& plan,
                        std::span<const SectionFragment<T>> frags) {
  FrameLayout l;
  Header& h = l.header;
  h.dtype = static_cast<std::uint8_t>(FloatTraits<T>::kTag);
  h.eb_mode = static_cast<std::uint8_t>(plan.params.mode);
  h.solution = static_cast<std::uint8_t>(plan.params.solution);
  h.block_size = plan.params.block_size;
  h.error_bound_user = plan.params.error_bound;
  h.error_bound_abs = plan.abs_bound;
  h.num_elements = plan.data.size();
  h.num_blocks = plan.num_blocks;
  for (const SectionFragment<T>& f : frags) {
    h.num_constant += f.num_constant;
    h.payload_bytes += f.payload_n;
    l.num_lossless += f.num_lossless;
  }
  Header raw = h;
  raw.flags = kFlagRawPassthrough;
  const std::uint64_t encoded = FrameExtentsOf(h, sizeof(T)).end;
  const std::uint64_t raw_end = FrameExtentsOf(raw, sizeof(T)).end;
  l.raw_passthrough = encoded >= raw_end && !plan.data.empty();
  l.body_bytes = CheckedNarrow<std::size_t>(l.raw_passthrough ? raw_end
                                                              : encoded);
  if (plan.params.integrity) {
    l.footer_chunks = IntegrityChunkCount(l.raw_passthrough ? raw : h);
    l.footer_bytes = IntegrityFooterBytes(l.footer_chunks);
  }
  return l;
}

template <SupportedFloat T>
void AssembleFrame(const FramePlan<T>& plan,
                   std::span<const SectionFragment<T>> frags,
                   const FrameLayout& layout, std::span<std::byte> dst,
                   ScratchArena& scratch, CompressionStats* stats) {
  if (dst.size() != layout.total_bytes()) {
    throw Error("szx: frame destination size mismatch");
  }
  const Header& h = layout.header;
  const std::span<std::byte> body = dst.first(layout.body_bytes);
  // The header as written: a raw-passthrough frame drops the encoded
  // totals, and an integrity frame is v2 (the footer follows the body).
  Header out = h;
  if (layout.raw_passthrough) {
    out.flags = kFlagRawPassthrough;
    out.num_constant = 0;
    out.payload_bytes = 0;
  }
  if (layout.footer_chunks != 0) {
    out.version = kFormatVersionIntegrity;
    out.flags |= kFlagIntegrity;
  }
  StoreWord<Header>(body.data(), out);
  const FrameExtents x = FrameExtentsOf(out, sizeof(T));
  if (x.end != body.size()) {
    throw Error("szx: fragments disagree with the frame layout");
  }
  if (layout.raw_passthrough) {
    // Raw passthrough: the encoded frame would not beat the input.
    PutAt(body, x.payload.offset, std::as_bytes(plan.data));
  } else {
    // Exclusive prefix sums over the fragment sizes fix every fragment's
    // landing offset in each of the six sections before a byte moves.
    const std::span<FragmentOffsets> at =
        scratch.AllocateSpan<FragmentOffsets>(frags.size());
    FragmentOffsets acc;
    for (std::size_t c = 0; c < frags.size(); ++c) {
      at[c] = acc;
      acc.type_bits += frags[c].type_bits.size();
      acc.const_mu += frags[c].const_mu_n;
      acc.ncb += frags[c].ncb_n;
      acc.payload += frags[c].payload_n;
    }
    if (acc.type_bits != x.type_bits.length ||
        acc.const_mu != x.const_mu.length || acc.ncb != x.ncb_req.length ||
        acc.payload != x.payload.length) {
      throw Error("szx: fragments disagree with the frame layout");
    }
    // Destination ranges are disjoint by construction, so fragments stitch
    // concurrently with no synchronization.
    const int width = static_cast<int>(frags.size());
    exec::ParallelFor(frags.size(), width, [&](std::uint64_t c) {
      const SectionFragment<T>& f = frags[c];
      const FragmentOffsets& o = at[c];
      PutAt(body, x.type_bits.offset + o.type_bits, f.type_bits);
      PutAt(body, x.const_mu.offset + o.const_mu,
            f.const_mu.first(f.const_mu_n));
      PutAt(body, x.ncb_req.offset + o.ncb, f.ncb_req.first(f.ncb_n));
      PutAt(body, x.ncb_mu.offset + o.ncb * sizeof(T),
            f.ncb_mu.first(f.ncb_n * sizeof(T)));
      PutAt(body, x.ncb_zsize.offset + o.ncb * 2,
            f.ncb_zsize.first(f.ncb_n * 2));
      PutAt(body, x.payload.offset + o.payload, f.payload.first(f.payload_n));
    });
  }
  if (layout.footer_chunks != 0) {
    WriteIntegrityFooter<T>(ByteSpan(body),
                            scratch.AllocateSpan<ChunkRef>(layout.footer_chunks),
                            dst.subspan(layout.body_bytes));
  }
  if (stats != nullptr) {
    stats->num_elements = h.num_elements;
    stats->num_blocks = h.num_blocks;
    stats->num_constant_blocks = h.num_constant;
    stats->num_lossless_blocks = layout.num_lossless;
    stats->payload_bytes = h.payload_bytes;
    stats->compressed_bytes = dst.size();
    stats->absolute_bound = plan.abs_bound;
  }
}

#define SZX_INSTANTIATE_FRAME_ENCODER(T)                                    \
  template RangeStats<T> ScanBlockRange<T>(                                 \
      std::span<const T>, std::uint32_t, std::uint64_t, std::uint64_t,      \
      ScratchArena&);                                                       \
  template double AbsoluteBoundOf<T>(const Params&, const GlobalRange<T>&); \
  template FramePlan<T> PlanFrame<T>(std::span<const T>, const Params&,    \
                                     const GlobalRange<T>&);                \
  template struct SectionFragment<T>;                                       \
  template SectionFragment<T> CarveFragment<T>(                             \
      const FramePlan<T>&, std::uint64_t, std::uint64_t, ScratchArena&);    \
  template SectionFragment<T> CompressBlockRange<T>(                        \
      const FramePlan<T>&, std::uint64_t, std::uint64_t,                    \
      std::span<const BlockStats<T>>, ScratchArena&);                       \
  template FrameLayout LayoutFrame<T>(const FramePlan<T>&,                  \
                                      std::span<const SectionFragment<T>>); \
  template void AssembleFrame<T>(                                           \
      const FramePlan<T>&, std::span<const SectionFragment<T>>,             \
      const FrameLayout&, std::span<std::byte>, ScratchArena&,              \
      CompressionStats*);
SZX_INSTANTIATE_FRAME_ENCODER(float)
SZX_INSTANTIATE_FRAME_ENCODER(double)
#undef SZX_INSTANTIATE_FRAME_ENCODER

}  // namespace szx
