#include "core/encode.hpp"

#include <algorithm>
#include <bit>

#include "core/kernels/kernels.hpp"
#include "core/stream.hpp"

namespace szx {
namespace {

// Packs a 2-bit lead code into a lead array (4 codes per byte, MSB first).
inline void PutLeadCode(std::byte* lead, std::size_t i, unsigned code) {
  const int shift = 6 - 2 * static_cast<int>(i & 3);
  lead[i >> 2] |= std::byte{static_cast<std::uint8_t>(code << shift)};
}

inline unsigned GetLeadCode(const std::byte* lead, std::size_t i) {
  const int shift = 6 - 2 * static_cast<int>(i & 3);
  return (std::to_integer<unsigned>(lead[i >> 2]) >> shift) & 3u;
}

// Normalization that is an exact identity when mu == 0, so that lossless
// blocks (containing NaN/Inf) round-trip bit-for-bit.
template <SupportedFloat T>
inline typename FloatTraits<T>::Bits NormalizedBits(T v, T mu) {
  if (mu == T(0)) {
    return std::bit_cast<typename FloatTraits<T>::Bits>(v);
  }
  return std::bit_cast<typename FloatTraits<T>::Bits>(static_cast<T>(v - mu));
}

template <SupportedFloat T>
inline T Denormalized(typename FloatTraits<T>::Bits bits, T mu) {
  const T v = std::bit_cast<T>(bits);
  return mu == T(0) ? v : static_cast<T>(v + mu);
}

}  // namespace

// ---------------------------------------------------------------------------
// Solution C: right shift to byte alignment, word-wide byte commits.  These
// wrappers keep the historical append-to-ByteBuffer signature; the hot loops
// now live in src/core/kernels/ (runtime-dispatched scalar/AVX2).
// ---------------------------------------------------------------------------

template <SupportedFloat T>
std::size_t EncodeBlockC(std::span<const T> block, T mu, const ReqPlan& plan,
                         ByteBuffer& out) {
  const std::size_t n = block.size();
  const std::size_t start = out.size();
  // Size to the kernel's capacity contract (worst case + word-store slack)
  // once, then trim to the live payload.
  out.resize(start + kernels::EncodeCapacity<T>(n), std::byte{0});
  // szx-lint: allow(ptr-arith) -- encoder-owned output buffer sized to EncodeCapacity above; the kernel writes through raw pointers by design
  std::byte* const dst = out.data() + start;
  const std::size_t total =
      kernels::ActiveOps<T>().encode_c(block.data(), n, mu, plan, dst);
  // szx-overwrite: a shrink; total <= EncodeCapacity
  out.resize(start + total);
  return total;
}

template <SupportedFloat T>
void DecodeBlockC(ByteSpan payload, T mu, const ReqPlan& plan,
                  std::span<T> out) {
  kernels::ActiveOps<T>().decode_c(payload.data(), payload.size(),
                                   payload.size(), mu, plan, out.data(),
                                   out.size());
}

template <SupportedFloat T>
std::size_t EncodeBlockInto(CommitSolution sol, std::span<const T> block,
                            T mu, const ReqPlan& plan, std::byte* dst) {
  if (sol == CommitSolution::kC) {
    return kernels::ActiveOps<T>().encode_c(block.data(), block.size(), mu,
                                            plan, dst);
  }
  // Solutions A/B keep their ByteBuffer encoders and copy out of a reused
  // per-thread scratch, so the frame encoders above them stay allocation-free
  // on the default (Solution C) path.
  thread_local ByteBuffer scratch;
  scratch.clear();
  std::size_t zsize;
  switch (sol) {
    case CommitSolution::kA:
      zsize = EncodeBlockA(block, mu, plan, scratch);
      break;
    case CommitSolution::kB:
      zsize = EncodeBlockB(block, mu, plan, scratch);
      break;
    default:
      throw Error("szx: unknown commit solution");
  }
  std::copy(scratch.begin(), scratch.end(), dst);
  return zsize;
}

// ---------------------------------------------------------------------------
// Solution A: arbitrary-width bit packing of the R-bit prefix.
// ---------------------------------------------------------------------------

template <SupportedFloat T>
std::size_t EncodeBlockA(std::span<const T> block, T mu, const ReqPlan& plan,
                         ByteBuffer& out) {
  using Bits = typename FloatTraits<T>::Bits;
  constexpr int kTotal = FloatTraits<T>::kTotalBits;
  const std::size_t n = block.size();
  const int req = plan.req_length;
  const int whole_bytes = req / 8;  // bytes fully contained in the prefix

  const std::size_t start = out.size();
  const std::size_t lead_bytes = LeadArrayBytes(n);
  out.resize(start + lead_bytes, std::byte{0});
  // szx-lint: allow(ptr-arith) -- encoder-owned output buffer sized above; the hot commit loop writes through raw pointers by design
  std::byte* lead_dst = out.data() + start;

  ByteBuffer bits_buf;
  BitWriter bw(bits_buf);
  const Bits prefix_mask =
      req == kTotal ? ~Bits{0} : static_cast<Bits>(~Bits{0} << (kTotal - req));

  Bits prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Bits t =
        static_cast<Bits>(NormalizedBits(block[i], mu) & prefix_mask);
    const int lead = LeadingIdenticalBytes<T>(t, prev);
    const int copy = lead < whole_bytes ? lead : whole_bytes;
    PutLeadCode(lead_dst, i, static_cast<unsigned>(lead));
    const int remaining = req - 8 * copy;
    if (remaining > 0) {
      const std::uint64_t ti = static_cast<std::uint64_t>(t >> (kTotal - req));
      bw.WriteBits(ti, remaining);
    }
    prev = t;
  }
  bw.Flush();
  out.insert(out.end(), bits_buf.begin(), bits_buf.end());
  return out.size() - start;
}

template <SupportedFloat T>
void DecodeBlockA(ByteSpan payload, T mu, const ReqPlan& plan,
                  std::span<T> out) {
  using Bits = typename FloatTraits<T>::Bits;
  constexpr int kTotal = FloatTraits<T>::kTotalBits;
  const std::size_t n = out.size();
  const int req = plan.req_length;
  const int whole_bytes = req / 8;
  const std::size_t lead_bytes = LeadArrayBytes(n);
  if (payload.size() < lead_bytes) {
    throw Error("szx: truncated block payload (lead array)");
  }
  const std::byte* lead = payload.data();
  BitReader br(payload.subspan(lead_bytes));

  Bits prev_ti = 0;  // R-bit prefixes as right-aligned integers
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned code = GetLeadCode(lead, i);
    const int copy =
        static_cast<int>(code) < whole_bytes ? static_cast<int>(code)
                                             : whole_bytes;
    const int remaining = req - 8 * copy;
    std::uint64_t ti;
    if (remaining > 0) {
      const std::uint64_t low = br.ReadBits(remaining);
      const std::uint64_t keep_high =
          remaining >= 64 ? 0
                          : (static_cast<std::uint64_t>(prev_ti) >> remaining)
                                << remaining;
      ti = keep_high | low;
    } else {
      ti = prev_ti;
    }
    const Bits t = static_cast<Bits>(static_cast<Bits>(ti) << (kTotal - req));
    out[i] = Denormalized<T>(t, mu);
    prev_ti = static_cast<Bits>(ti);
  }
}

// ---------------------------------------------------------------------------
// Solution B: alpha whole bytes to a byte array + beta residual bits to a
// separate bit array.
// ---------------------------------------------------------------------------

template <SupportedFloat T>
std::size_t EncodeBlockB(std::span<const T> block, T mu, const ReqPlan& plan,
                         ByteBuffer& out) {
  using Bits = typename FloatTraits<T>::Bits;
  constexpr int kTotal = FloatTraits<T>::kTotalBits;
  const std::size_t n = block.size();
  const int req = plan.req_length;
  const int alpha = req / 8;
  const int beta = req % 8;

  const std::size_t start = out.size();
  const std::size_t lead_bytes = LeadArrayBytes(n);
  out.resize(start + lead_bytes, std::byte{0});
  // szx-lint: allow(ptr-arith) -- encoder-owned output buffer sized above; the hot commit loop writes through raw pointers by design
  std::byte* lead_dst = out.data() + start;

  ByteBuffer byte_section;
  ByteBuffer bit_section;
  BitWriter bw(bit_section);
  const Bits prefix_mask =
      req == kTotal ? ~Bits{0} : static_cast<Bits>(~Bits{0} << (kTotal - req));

  Bits prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Bits t =
        static_cast<Bits>(NormalizedBits(block[i], mu) & prefix_mask);
    const int lead = LeadingIdenticalBytes<T>(t, prev);
    const int copy = lead < alpha ? lead : alpha;
    PutLeadCode(lead_dst, i, static_cast<unsigned>(lead));
    for (int j = copy; j < alpha; ++j) {
      byte_section.push_back(std::byte{TopByte<T>(t, j)});
    }
    if (beta > 0) {
      const std::uint64_t ti = static_cast<std::uint64_t>(t >> (kTotal - req));
      bw.WriteBits(ti, beta);
    }
    prev = t;
  }
  bw.Flush();
  const std::uint32_t byte_count =
      CheckedNarrow<std::uint32_t>(byte_section.size());
  ByteWriter w(out);
  w.Write(byte_count);
  out.insert(out.end(), byte_section.begin(), byte_section.end());
  out.insert(out.end(), bit_section.begin(), bit_section.end());
  return out.size() - start;
}

template <SupportedFloat T>
void DecodeBlockB(ByteSpan payload, T mu, const ReqPlan& plan,
                  std::span<T> out) {
  using Bits = typename FloatTraits<T>::Bits;
  constexpr int kTotal = FloatTraits<T>::kTotalBits;
  const std::size_t n = out.size();
  const int req = plan.req_length;
  const int alpha = req / 8;
  const int beta = req % 8;
  const std::size_t lead_bytes = LeadArrayBytes(n);

  ByteCursor cur(payload);
  ByteSpan lead = cur.Slice(lead_bytes);
  const std::uint32_t byte_count = cur.Read<std::uint32_t>();
  ByteSpan bytes = cur.Slice(byte_count);
  BitReader br(cur.Rest());

  std::size_t byte_pos = 0;
  Bits prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned code = GetLeadCode(lead.data(), i);
    const int copy =
        static_cast<int>(code) < alpha ? static_cast<int>(code) : alpha;
    Bits t = static_cast<Bits>(prev & KeepMask<T>(copy));
    for (int j = copy; j < alpha; ++j) {
      if (byte_pos >= bytes.size()) {
        throw Error("szx: truncated block payload (solution B bytes)");
      }
      t |= PlaceTopByte<T>(std::to_integer<std::uint8_t>(bytes[byte_pos++]), j);
    }
    if (beta > 0) {
      const Bits low = static_cast<Bits>(br.ReadBits(beta));
      t |= static_cast<Bits>(low << (kTotal - req));
      // Residual bits live below the alpha bytes; clear then set.
    }
    out[i] = Denormalized<T>(t, mu);
    prev = t;
  }
}

// ---------------------------------------------------------------------------
// Fig. 6 characterization.
// ---------------------------------------------------------------------------

template <SupportedFloat T>
ShiftOverheadBits CharacterizeShiftOverhead(std::span<const T> block, T mu,
                                            const ReqPlan& plan) {
  using Bits = typename FloatTraits<T>::Bits;
  constexpr int kTotal = FloatTraits<T>::kTotalBits;
  const int req = plan.req_length;
  const int s = plan.shift;
  const int nb = plan.num_bytes;
  const int whole_bytes = req / 8;
  const Bits keep_c = KeepMask<T>(nb);
  const Bits prefix_mask =
      req == kTotal ? ~Bits{0} : static_cast<Bits>(~Bits{0} << (kTotal - req));

  ShiftOverheadBits bits;
  Bits prev_c = 0;
  Bits prev_ab = 0;
  for (const T v : block) {
    const Bits raw = NormalizedBits(v, mu);
    const Bits tc = static_cast<Bits>((raw >> s) & keep_c);
    const Bits tab = static_cast<Bits>(raw & prefix_mask);
    const int lead_c = LeadingIdenticalBytes<T>(tc, prev_c);
    const int lead_ab = LeadingIdenticalBytes<T>(tab, prev_ab);
    const int copy_c = lead_c < nb ? lead_c : nb;
    const int copy_ab = lead_ab < whole_bytes ? lead_ab : whole_bytes;
    bits.solution_c_bits += static_cast<std::uint64_t>(req + s - 8 * copy_c);
    bits.solution_ab_bits += static_cast<std::uint64_t>(req - 8 * copy_ab);
    prev_c = tc;
    prev_ab = tab;
  }
  return bits;
}

// Explicit instantiations.
#define SZX_INSTANTIATE(T)                                                 \
  template std::size_t EncodeBlockC<T>(std::span<const T>, T,             \
                                       const ReqPlan&, ByteBuffer&);      \
  template void DecodeBlockC<T>(ByteSpan, T, const ReqPlan&,              \
                                std::span<T>);                            \
  template std::size_t EncodeBlockInto<T>(CommitSolution,                 \
                                          std::span<const T>, T,          \
                                          const ReqPlan&, std::byte*);    \
  template std::size_t EncodeBlockA<T>(std::span<const T>, T,             \
                                       const ReqPlan&, ByteBuffer&);      \
  template void DecodeBlockA<T>(ByteSpan, T, const ReqPlan&,              \
                                std::span<T>);                            \
  template std::size_t EncodeBlockB<T>(std::span<const T>, T,             \
                                       const ReqPlan&, ByteBuffer&);      \
  template void DecodeBlockB<T>(ByteSpan, T, const ReqPlan&,              \
                                std::span<T>);                            \
  template ShiftOverheadBits CharacterizeShiftOverhead<T>(                \
      std::span<const T>, T, const ReqPlan&)

SZX_INSTANTIATE(float);
SZX_INSTANTIATE(double);
#undef SZX_INSTANTIATE

}  // namespace szx
