#include "zfpref/zfp_block.hpp"

#include <algorithm>
#include <vector>

#include "core/kernels/baseline_impl.hpp"
#include "core/kernels/kernels.hpp"

namespace szx::zfpref {

// The lifting arithmetic lives in core/kernels/baseline_impl.hpp (scalar
// reference) with vectorized equivalents in the BaselineOps tables; these
// exported wrappers keep the historical zfpref API for tests and callers.
void FwdLift(Int* p, std::size_t s) { kernels::detail::ZfpFwdLift(p, s); }

void InvLift(Int* p, std::size_t s) { kernels::detail::ZfpInvLift(p, s); }

void FwdXform(Int* block, int dims) {
  if (dims < 1 || dims > 3) {
    throw Error("zfpref: dims must be 1..3");
  }
  // Dispatches to the active kernel tier (scalar/AVX2/...); every tier is
  // bit-identical by contract, so streams do not depend on the CPU.
  kernels::ActiveBaselineOps().zfp_fwd_xform(block, dims);
}

void InvXform(Int* block, int dims) {
  if (dims < 1 || dims > 3) {
    throw Error("zfpref: dims must be 1..3");
  }
  kernels::ActiveBaselineOps().zfp_inv_xform(block, dims);
}

namespace {

// Deterministic sequency order: ascending total degree i+j+k, ties broken
// by max coordinate then lexicographic (z, y, x).  Any fixed order works as
// long as encoder and decoder agree; low-sequency-first maximizes the
// benefit of the embedded coding.
std::vector<std::uint16_t> BuildPerm(int dims) {
  const std::size_t n = BlockSize(dims);
  std::vector<std::uint16_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint16_t>(i);
  auto coords = [dims](std::uint16_t idx) {
    std::array<int, 3> c = {0, 0, 0};
    c[0] = idx & 3;                        // x
    if (dims > 1) c[1] = (idx >> 2) & 3;   // y
    if (dims > 2) c[2] = (idx >> 4) & 3;   // z
    return c;
  };
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint16_t a, std::uint16_t b) {
                     const auto ca = coords(a);
                     const auto cb = coords(b);
                     const int sa = ca[0] + ca[1] + ca[2];
                     const int sb = cb[0] + cb[1] + cb[2];
                     if (sa != sb) return sa < sb;
                     const int ma = std::max({ca[0], ca[1], ca[2]});
                     const int mb = std::max({cb[0], cb[1], cb[2]});
                     if (ma != mb) return ma < mb;
                     return a < b;
                   });
  return perm;
}

}  // namespace

std::span<const std::uint16_t> SequencyPerm(int dims) {
  static const std::vector<std::uint16_t> p1 = BuildPerm(1);
  static const std::vector<std::uint16_t> p2 = BuildPerm(2);
  static const std::vector<std::uint16_t> p3 = BuildPerm(3);
  switch (dims) {
    case 1: return p1;
    case 2: return p2;
    case 3: return p3;
    default: throw Error("zfpref: dims must be 1..3");
  }
}

void EncodePlanes(std::span<const UInt> coeffs, int kmin, BitWriter& bw) {
  const std::size_t size = coeffs.size();
  if (size > 64) throw Error("zfpref: block too large");
  // The bit-plane loops run on the active kernel tier, like the transform.
  const kernels::BaselineOps& ops = kernels::ActiveBaselineOps();
  std::size_t n = 0;  // values known significant so far
  for (int k = 32; k-- > kmin;) {
    std::uint64_t x = ops.zfp_extract_plane(coeffs.data(), size, k);
    // Verbatim bits for already-significant values.
    bw.WriteBits(x & ((n < 64 ? (std::uint64_t{1} << n) : 0) - 1), int(n));
    x >>= (n < 64 ? n : 63);
    if (n == 64) x = 0;
    // Group-testing run-length coding of the sparse remainder
    // (transcribed from zfp's encode_ints).
    for (; n < size; x >>= 1, ++n) {
      bw.WriteBit(x != 0 ? 1u : 0u);
      if (x == 0) break;
      for (; n < size - 1; x >>= 1, ++n) {
        bw.WriteBit(static_cast<unsigned>(x & 1u));
        if (x & 1u) break;
      }
    }
  }
}

void DecodePlanes(std::span<UInt> coeffs, int kmin, BitReader& br) {
  const std::size_t size = coeffs.size();
  if (size > 64) throw Error("zfpref: block too large");
  std::fill(coeffs.begin(), coeffs.end(), 0u);
  const kernels::BaselineOps& ops = kernels::ActiveBaselineOps();
  std::size_t n = 0;
  for (int k = 32; k-- > kmin;) {
    std::uint64_t x = br.ReadBits(int(n));
    // Mirror of the encoder's run-length loop.
    for (std::size_t m = n; m < size;) {
      if (br.ReadBit() == 0) break;
      for (;;) {
        if (m == size - 1) {
          x += std::uint64_t{1} << m;
          ++m;
          break;
        }
        if (br.ReadBit() != 0) {
          x += std::uint64_t{1} << m;
          ++m;
          break;
        }
        ++m;
      }
      n = m;
    }
    if (n < size) {
      // n can only grow; loop above updated it via m.
    }
    ops.zfp_deposit_plane(coeffs.data(), size, x, k);
  }
}

void EncodePlanesBudget(std::span<const UInt> coeffs, int kmin,
                        std::uint64_t max_bits, BitWriter& bw) {
  const std::size_t size = coeffs.size();
  if (size > 64) throw Error("zfpref: block too large");
  std::uint64_t bits = max_bits;
  auto put = [&](unsigned bit) -> bool {
    if (bits == 0) return false;
    bw.WriteBit(bit);
    --bits;
    return true;
  };
  const kernels::BaselineOps& ops = kernels::ActiveBaselineOps();
  std::size_t n = 0;
  for (int k = 32; bits > 0 && k-- > kmin;) {
    std::uint64_t x = ops.zfp_extract_plane(coeffs.data(), size, k);
    // Verbatim bits, clipped to the budget.
    const std::size_t m =
        std::min<std::uint64_t>(n, bits);
    bw.WriteBits(x & ((m < 64 ? (std::uint64_t{1} << m) : 0) - 1),
                 static_cast<int>(m));
    bits -= m;
    x >>= (n < 64 ? n : 63);
    if (n == 64) x = 0;
    for (; n < size; x >>= 1, ++n) {
      if (!put(x != 0 ? 1u : 0u)) break;
      if (x == 0) break;
      bool found = false;
      for (; n < size - 1; x >>= 1, ++n) {
        if (!put(static_cast<unsigned>(x & 1u))) { found = true; break; }
        if (x & 1u) break;
      }
      if (found && bits == 0) break;
    }
  }
  // Pad to the exact budget.
  while (bits > 0) {
    bw.WriteBit(0);
    --bits;
  }
}

void DecodePlanesBudget(std::span<UInt> coeffs, int kmin,
                        std::uint64_t max_bits, BitReader& br) {
  const std::size_t size = coeffs.size();
  if (size > 64) throw Error("zfpref: block too large");
  std::fill(coeffs.begin(), coeffs.end(), 0u);
  const kernels::BaselineOps& ops = kernels::ActiveBaselineOps();
  std::uint64_t bits = max_bits;
  auto get = [&](unsigned& bit) -> bool {
    if (bits == 0) return false;
    bit = br.ReadBit();
    --bits;
    return true;
  };
  std::size_t n = 0;
  for (int k = 32; bits > 0 && k-- > kmin;) {
    const std::size_t m = std::min<std::uint64_t>(n, bits);
    std::uint64_t x = br.ReadBits(static_cast<int>(m));
    bits -= m;
    for (std::size_t mm = n; mm < size;) {
      unsigned group = 0;
      if (!get(group)) break;
      if (group == 0) break;
      for (;;) {
        if (mm == size - 1) {
          x += std::uint64_t{1} << mm;
          ++mm;
          break;
        }
        unsigned bit = 0;
        if (!get(bit)) { mm = size; break; }
        if (bit != 0) {
          x += std::uint64_t{1} << mm;
          ++mm;
          break;
        }
        ++mm;
      }
      if (mm <= size) n = std::min(mm, size);
      if (bits == 0) break;
    }
    ops.zfp_deposit_plane(coeffs.data(), size, x, k);
  }
  // Consume any padding so the caller's stream stays aligned.
  br.Skip(bits);
}

}  // namespace szx::zfpref
