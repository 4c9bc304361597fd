// szx-hot: steady-state stats/encode/decode kernels; no allocation allowed.
// Shared scalar building blocks for the block-stats and Solution-C block
// kernels.
//
// Internal to src/core/kernels/: the scalar table uses these loops whole,
// and the AVX2 kernels reuse them for tail elements, short blocks and
// non-finite blocks, so both implementations share one definition of the
// per-element arithmetic (a precondition for the byte-identical-streams
// guarantee).
//
// Everything here has internal linkage (the unnamed namespace), so each
// tier's TU owns its copy: an unoptimized build emits these as out-of-line
// functions, and an -mavx2 copy exported from the AVX2 TU could otherwise
// be the one the linker hands to the baseline-ISA scalar TU.
//
// Unlike the historical encode.cpp loops, commits are word-wide: one
// unaligned store/load of ByteSwapBits(t) per element instead of a byte
// loop (see bitops.hpp).  Lead codes cap `copy` at 3, so the `8 * copy`
// shifts stay well below the word width for float and double alike.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/kernels/kernels.hpp"

namespace szx::kernels::detail {
namespace {

// Finalizes a block's min/max into mu/radius.  mu = min + (max-min)/2
// matches the paper; the fallback avoids overflow to infinity when the
// range itself overflows (e.g. min = -FLT_MAX, max = FLT_MAX).
template <SupportedFloat T>
inline BlockStats<T> FinalizeStats(T vmin, T vmax, bool all_finite) {
  BlockStats<T> s;
  s.min = vmin;
  s.max = vmax;
  s.all_finite = all_finite;
  if (!all_finite) {
    // Lossless path: normalization is disabled (mu = 0).
    s.mu = T(0);
    s.radius = std::numeric_limits<double>::infinity();
    return s;
  }
  const T range = vmax - vmin;
  if (std::isfinite(range)) {
    s.mu = static_cast<T>(vmin + range / 2);
  } else {
    s.mu = static_cast<T>(vmin / 2 + vmax / 2);
  }
  // Variation radius of the normalized values, in double.  For float inputs
  // the double subtraction is exact; for double inputs round up one ulp so
  // the radius stays an upper bound despite subtraction rounding.
  const double hi = static_cast<double>(vmax) - static_cast<double>(s.mu);
  const double lo = static_cast<double>(s.mu) - static_cast<double>(vmin);
  double radius = hi > lo ? hi : lo;
  if constexpr (std::is_same_v<T, double>) {
    const double dmu = static_cast<double>(s.mu);
    const bool exact = (hi + dmu == static_cast<double>(vmax)) &&
                       (dmu - lo == static_cast<double>(vmin));
    if (!exact) {
      radius = std::nextafter(radius, std::numeric_limits<double>::infinity());
    }
  }
  s.radius = radius;
  return s;
}

// Stats of one block p[0, n), n >= 1, with its range folded into `range`.
// The strict comparisons keep the first element that attains the min (max),
// which fixes the sign of a zero extreme; NaN fails both, so finiteness is
// tracked on its own.  A block holding NaN/Inf folds its finite values only.
template <SupportedFloat T>
inline BlockStats<T> BlockStatsScalar(const T* p, std::size_t n,
                                      GlobalRange<T>& range) {
  T vmin = p[0];
  T vmax = p[0];
  bool all_finite = std::isfinite(p[0]);
  for (std::size_t i = 1; i < n; ++i) {
    const T v = p[i];
    if (v < vmin) vmin = v;
    if (v > vmax) vmax = v;
    all_finite &= std::isfinite(v) != 0;
  }
  if (all_finite) {
    range.Merge(vmin, vmax);
  } else {
    range.Merge(ScanFiniteRange(p, n));
  }
  return FinalizeStats(vmin, vmax, all_finite);
}

// The multi-block stats entry every tier shares: `one_block(p, len, range)`
// computes one block's stats and folds its range.
template <SupportedFloat T, typename OneBlock>
inline GlobalRange<T> BlockStatsPass(const T* data, std::size_t n,
                                     std::size_t bs, BlockStats<T>* out,
                                     OneBlock one_block) {
  GlobalRange<T> range;
  std::size_t k = 0;
  for (std::size_t begin = 0; begin < n; begin += bs, ++k) {
    out[k] = one_block(data + begin, std::min(bs, n - begin), range);
  }
  return range;
}

// Packs a 2-bit lead code into a lead array (4 codes per byte, MSB first).
inline void PutLead(std::byte* lead, std::size_t i, unsigned code) {
  const int shift = 6 - 2 * static_cast<int>(i & 3);
  lead[i >> 2] |= std::byte{static_cast<std::uint8_t>(code << shift)};
}

inline unsigned GetLead(const std::byte* lead, std::size_t i) {
  const int shift = 6 - 2 * static_cast<int>(i & 3);
  return (std::to_integer<unsigned>(lead[i >> 2]) >> shift) & 3u;
}

// Encodes elements [begin, end), continuing from a running previous word and
// mid cursor.  kNormalize selects the mu != 0 path at compile time; mu == 0
// must stay a bit-exact identity so lossless blocks (NaN/Inf) round-trip.
template <SupportedFloat T, bool kNormalize>
inline void EncodeCRange(const T* block, std::size_t begin, std::size_t end,
                         T mu, int nb, int s, std::byte* lead,
                         typename FloatTraits<T>::Bits& prev,
                         std::byte*& mid) {
  using Bits = typename FloatTraits<T>::Bits;
  const Bits keep = KeepMask<T>(nb);
  Bits p = prev;
  std::byte* m = mid;
  for (std::size_t i = begin; i < end; ++i) {
    Bits raw;
    if constexpr (kNormalize) {
      raw = std::bit_cast<Bits>(static_cast<T>(block[i] - mu));
    } else {
      raw = std::bit_cast<Bits>(block[i]);
    }
    const Bits t = static_cast<Bits>((raw >> s) & keep);
    const Bits x = t ^ p;
    int lead_cnt;
    if (x == 0) {
      lead_cnt = 3;
    } else {
      lead_cnt = std::countl_zero(x) >> 3;
      if (lead_cnt > 3) lead_cnt = 3;
    }
    PutLead(lead, i, static_cast<unsigned>(lead_cnt));
    const int copy = lead_cnt < nb ? lead_cnt : nb;
    StoreWord<Bits>(m, static_cast<Bits>(ByteSwapBits(t) >> (8 * copy)));
    m += nb - copy;  // szx-lint note: raw cursor, bounded by EncodeCapacity
    p = t;
  }
  prev = p;
  mid = m;
}

// Full scalar encode of one block.  Zeroes the lead array first: PutLead
// accumulates with |=, and callers may hand the kernel recycled arena
// memory, so a clean slate is required.
template <SupportedFloat T>
inline std::size_t EncodeCScalar(const T* block, std::size_t n, T mu,
                                 const ReqPlan& plan, std::byte* dst) {
  using Bits = typename FloatTraits<T>::Bits;
  const std::size_t lead_bytes = LeadArrayBytes(n);
  for (std::size_t i = 0; i < lead_bytes; ++i) dst[i] = std::byte{0};
  std::byte* mid = dst + lead_bytes;
  Bits prev = 0;
  if (mu == T(0)) {
    EncodeCRange<T, false>(block, 0, n, mu, plan.num_bytes, plan.shift, dst,
                           prev, mid);
  } else {
    EncodeCRange<T, true>(block, 0, n, mu, plan.num_bytes, plan.shift, dst,
                          prev, mid);
  }
  return static_cast<std::size_t>(mid - dst);
}

// Decodes elements [begin, end) of one block, continuing from a running
// previous word and mid-byte cursor (the decode mirror of EncodeCRange).
// The AVX2 kernel resumes through here for group tails and for payloads too
// short for its vector bounds guard, so both implementations share one
// definition of the per-element reconstruction and, crucially, one
// truncation-throw behaviour.
//
// kRawBits stores the shifted word bits without de-normalizing;
// kNormalize is ignored when kRawBits is set.
//
// The fast path reads one unaligned word per element; it is taken only when
// a whole word fits before the payload end, so it can never read past the
// buffer, and `take <= nb <= sizeof(Bits)` means the cursor advance is in
// bounds too.  The byte-loop fallback covers the last few elements and
// throws on truncation exactly like the historical DecodeBlockC.
template <SupportedFloat T, bool kNormalize, bool kRawBits>
inline void DecodeCRange(const std::byte* lead, const std::byte* mid,
                         std::size_t mid_size, T mu, int nb, int s, T* out,
                         std::size_t begin, std::size_t end,
                         typename FloatTraits<T>::Bits& prev_io,
                         std::size_t& pos_io) {
  using Bits = typename FloatTraits<T>::Bits;
  const Bits nb_mask = KeepMask<T>(nb);
  Bits prev = prev_io;
  std::size_t pos = pos_io;
  for (std::size_t i = begin; i < end; ++i) {
    const unsigned code = GetLead(lead, i);
    const int copy = static_cast<int>(code) < nb ? static_cast<int>(code) : nb;
    const std::size_t take = static_cast<std::size_t>(nb - copy);
    Bits t;
    if (pos + sizeof(Bits) <= mid_size) {
      const Bits w = ByteSwapBits(LoadWord<Bits>(mid + pos));
      t = static_cast<Bits>((prev & KeepMask<T>(copy)) |
                            ((w >> (8 * copy)) & nb_mask));
    } else {
      if (take > mid_size - pos) {
        ThrowError("szx: truncated block payload (mid bytes)");
      }
      t = static_cast<Bits>(prev & KeepMask<T>(copy));
      for (int j = copy; j < nb; ++j) {
        t |= PlaceTopByte<T>(
            std::to_integer<std::uint8_t>(
                mid[pos + static_cast<std::size_t>(j - copy)]),
            j);
      }
    }
    pos += take;
    const Bits shifted = static_cast<Bits>(t << s);
    if constexpr (kRawBits) {
      out[i] = std::bit_cast<T>(shifted);
    } else if constexpr (kNormalize) {
      out[i] = static_cast<T>(std::bit_cast<T>(shifted) + mu);
    } else {
      out[i] = std::bit_cast<T>(shifted);
    }
    prev = t;
  }
  prev_io = prev;
  pos_io = pos;
}

// Decodes a whole block payload [lead array | mid bytes] into out[0, n).
template <SupportedFloat T, bool kNormalize, bool kRawBits>
inline void DecodeCScalar(const std::byte* payload, std::size_t payload_size,
                          T mu, int nb, int s, T* out, std::size_t n) {
  using Bits = typename FloatTraits<T>::Bits;
  const std::size_t lead_bytes = LeadArrayBytes(n);
  if (payload_size < lead_bytes) {
    ThrowError("szx: truncated block payload (lead array)");
  }
  Bits prev = 0;
  std::size_t pos = 0;
  DecodeCRange<T, kNormalize, kRawBits>(payload, payload + lead_bytes,
                                        payload_size - lead_bytes, mu, nb, s,
                                        out, 0, n, prev, pos);
}

template <SupportedFloat T>
inline void DecodeCScalarDispatch(const std::byte* payload,
                                  std::size_t payload_size, T mu,
                                  const ReqPlan& plan, T* out, std::size_t n) {
  if (mu == T(0)) {
    DecodeCScalar<T, false, false>(payload, payload_size, mu, plan.num_bytes,
                                   plan.shift, out, n);
  } else {
    DecodeCScalar<T, true, false>(payload, payload_size, mu, plan.num_bytes,
                                  plan.shift, out, n);
  }
}

}  // namespace
}  // namespace szx::kernels::detail
