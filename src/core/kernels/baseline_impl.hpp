// szx-hot: baseline-codec kernel bodies; steady state must not allocate.
// Shared scalar building blocks for the baseline kernels: the ZFP lifting
// arithmetic (reference semantics every SIMD tier must reproduce exactly)
// and the scalar range loops the SIMD tiers use as edge tails.  Internal
// linkage (the unnamed namespace) gives each tier's TU its own copy, so an
// -mavx2 build of one can never stand in for the baseline-ISA callers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/kernels/kernels.hpp"

namespace szx::kernels::detail {
namespace {

using ZInt = std::int32_t;
using ZUInt = std::uint32_t;

// Lifting arithmetic on two's-complement wrap-around semantics.
// Coefficients decoded from hostile streams can sit near the int32
// extremes, where plain signed +/-/<< would be undefined; routing through
// unsigned keeps the bit patterns identical while staying defined for every
// input.  SIMD epi32 add/sub/shift wrap the same way, so the tiers agree
// bit-for-bit even on hostile inputs.
inline ZInt WrapAdd(ZInt a, ZInt b) {
  return static_cast<ZInt>(static_cast<ZUInt>(a) + static_cast<ZUInt>(b));
}
inline ZInt WrapSub(ZInt a, ZInt b) {
  return static_cast<ZInt>(static_cast<ZUInt>(a) - static_cast<ZUInt>(b));
}
inline ZInt WrapShl1(ZInt a) {
  return static_cast<ZInt>(static_cast<ZUInt>(a) << 1);
}

/// Forward lifting transform of one 4-vector with stride s (in place).
/// Non-orthogonal transform with lifting steps chosen so the inverse is
/// exact in integer arithmetic (Lindstrom 2014, Sec. 4).
inline void ZfpFwdLift(ZInt* p, std::size_t s) {
  ZInt x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x = WrapAdd(x, w); x >>= 1; w = WrapSub(w, x);
  z = WrapAdd(z, y); z >>= 1; y = WrapSub(y, z);
  x = WrapAdd(x, z); x >>= 1; z = WrapSub(z, x);
  w = WrapAdd(w, y); w >>= 1; y = WrapSub(y, w);
  w = WrapAdd(w, y >> 1); y = WrapSub(y, w >> 1);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Exact inverse of ZfpFwdLift.
inline void ZfpInvLift(ZInt* p, std::size_t s) {
  ZInt x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = WrapAdd(y, w >> 1); w = WrapSub(w, y >> 1);
  y = WrapAdd(y, w); w = WrapShl1(w); w = WrapSub(w, y);
  z = WrapAdd(z, x); x = WrapShl1(x); x = WrapSub(x, z);
  y = WrapAdd(y, z); z = WrapShl1(z); z = WrapSub(z, y);
  w = WrapAdd(w, x); x = WrapShl1(x); x = WrapSub(x, w);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Full separable forward transform of a 4^dims block (x fastest).  `dims`
/// is validated by the caller (zfpref rejects anything outside 1..3).
inline void ZfpFwdXformScalar(ZInt* block, int dims) {
  switch (dims) {
    case 1:
      ZfpFwdLift(block, 1);
      break;
    case 2:
      for (std::size_t y = 0; y < 4; ++y) ZfpFwdLift(block + 4 * y, 1);
      for (std::size_t x = 0; x < 4; ++x) ZfpFwdLift(block + x, 4);
      break;
    default:
      for (std::size_t z = 0; z < 4; ++z)
        for (std::size_t y = 0; y < 4; ++y)
          ZfpFwdLift(block + 16 * z + 4 * y, 1);
      for (std::size_t z = 0; z < 4; ++z)
        for (std::size_t x = 0; x < 4; ++x) ZfpFwdLift(block + 16 * z + x, 4);
      for (std::size_t y = 0; y < 4; ++y)
        for (std::size_t x = 0; x < 4; ++x) ZfpFwdLift(block + 4 * y + x, 16);
      break;
  }
}

/// Exact inverse of ZfpFwdXformScalar (axes unwound in reverse order).
inline void ZfpInvXformScalar(ZInt* block, int dims) {
  switch (dims) {
    case 1:
      ZfpInvLift(block, 1);
      break;
    case 2:
      for (std::size_t x = 0; x < 4; ++x) ZfpInvLift(block + x, 4);
      for (std::size_t y = 0; y < 4; ++y) ZfpInvLift(block + 4 * y, 1);
      break;
    default:
      for (std::size_t y = 0; y < 4; ++y)
        for (std::size_t x = 0; x < 4; ++x) ZfpInvLift(block + 4 * y + x, 16);
      for (std::size_t z = 0; z < 4; ++z)
        for (std::size_t x = 0; x < 4; ++x) ZfpInvLift(block + 16 * z + x, 4);
      for (std::size_t z = 0; z < 4; ++z)
        for (std::size_t y = 0; y < 4; ++y)
          ZfpInvLift(block + 16 * z + 4 * y, 1);
      break;
  }
}

/// ZFP bit-plane extract and deposit (BaselineOps::zfp_extract_plane and
/// zfp_deposit_plane).  Plain loops: every tier's table points at its own
/// TU's copy, so the AVX2 TU's -mavx2 build vectorizes them and the scalar
/// TU's stays at the baseline ISA.
inline std::uint64_t ZfpExtractPlane(const ZUInt* coeffs, std::size_t n,
                                     int k) {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < n; ++i) {
    x += static_cast<std::uint64_t>((coeffs[i] >> k) & 1u) << i;
  }
  return x;
}

inline void ZfpDepositPlane(ZUInt* coeffs, std::size_t n, std::uint64_t x,
                            int k) {
  for (std::size_t i = 0; i < n; ++i) {
    coeffs[i] |= static_cast<ZUInt>((x >> i) & 1u) << k;
  }
}

/// Scalar tails resumed by the SIMD kernels at index `i`.
inline void PrequantRange(const float* src, std::size_t i, std::size_t n,
                          double half_inv, std::int32_t* q) {
  for (; i < n; ++i) q[i] = PrequantOne(src[i], half_inv);
}

inline void LorenzoDeltaRange(const std::int32_t* q, const std::int32_t* qy,
                              const std::int32_t* qz, const std::int32_t* qyz,
                              bool has_left, std::size_t i, std::size_t n,
                              std::int32_t* d) {
  for (; i < n; ++i) d[i] = LorenzoDeltaOne(q, qy, qz, qyz, has_left, i);
}

inline void DequantRange(const std::int32_t* q, std::size_t i, std::size_t n,
                         double twice_eb, float* out) {
  for (; i < n; ++i) out[i] = DequantOne(q[i], twice_eb);
}

}  // namespace
}  // namespace szx::kernels::detail
