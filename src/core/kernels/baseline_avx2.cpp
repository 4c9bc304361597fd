// szx-hot: baseline-codec hot loops; steady state must not allocate.
// AVX2 BaselineOps table.  The prequant/dequant lanes do the same
// float->double->round->clamp arithmetic as kernels::PrequantOne /
// DequantOne (IEEE-exact operations only), and the Lorenzo delta / ZFP
// lifting lanes are pure int32 arithmetic, so every result is bit-identical
// to the scalar table (tests/core/test_baseline_kernels.cpp enforces it).
#include "core/kernels/baseline_impl.hpp"
#include "core/kernels/kernels.hpp"

#if defined(SZX_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace szx::kernels {

#if defined(SZX_HAVE_AVX2)

namespace {

inline __m128i Load4i(const std::int32_t* p) {
  // szx-lint: allow(reinterpret-cast) -- SSE lane load needs the __m128i pointer type
  // szx-lint: allow(simd-mem) -- reads 4 ints inside the caller's block; every call site bounds p+3 within it
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store4i(std::int32_t* p, __m128i v) {
  // szx-lint: allow(reinterpret-cast) -- SSE lane store needs the __m128i pointer type
  // szx-lint: allow(simd-mem) -- writes 4 ints inside the caller's block; every call site bounds p+3 within it
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

inline __m256i Load8i(const std::int32_t* p) {
  // szx-lint: allow(reinterpret-cast) -- AVX lane load needs the __m256i pointer type
  // szx-lint: allow(simd-mem) -- reads 8 ints at p; the vector loop bound i+8 <= n keeps the load in the caller's row
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void Store8i(std::int32_t* p, __m256i v) {
  // szx-lint: allow(reinterpret-cast) -- AVX lane store needs the __m256i pointer type
  // szx-lint: allow(simd-mem) -- writes 8 ints at p; the vector loop bound i+8 <= n keeps the store in the caller's row
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

void PrequantAvx2(const float* src, std::size_t n, double half_inv,
                  std::int32_t* q) {
  const __m256d hinv = _mm256_set1_pd(half_inv);
  const __m256d chi = _mm256_set1_pd(static_cast<double>(kPrequantClamp));
  const __m256d clo = _mm256_set1_pd(-static_cast<double>(kPrequantClamp));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // szx-lint: allow(simd-mem) -- reads 8 floats at src+i; the loop bound i+8 <= n keeps the load in the caller's row
    const __m256 v = _mm256_loadu_ps(src + i);
    __m256d lo =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), hinv);
    __m256d hi =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), hinv);
    lo = _mm256_round_pd(lo, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    hi = _mm256_round_pd(hi, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    // NaN lanes -> +0.0 (PrequantOne maps NaN to 0), then saturate like the
    // scalar clamp.  max/min see no NaN after the mask, so operand order
    // cannot change the result.
    lo = _mm256_and_pd(lo, _mm256_cmp_pd(lo, lo, _CMP_ORD_Q));
    hi = _mm256_and_pd(hi, _mm256_cmp_pd(hi, hi, _CMP_ORD_Q));
    lo = _mm256_min_pd(_mm256_max_pd(lo, clo), chi);
    hi = _mm256_min_pd(_mm256_max_pd(hi, clo), chi);
    const __m128i ilo = _mm256_cvtpd_epi32(lo);
    const __m128i ihi = _mm256_cvtpd_epi32(hi);
    Store8i(q + i, _mm256_set_m128i(ihi, ilo));
  }
  detail::PrequantRange(src, i, n, half_inv, q);
}

template <bool kHasY, bool kHasZ>
void LorenzoDeltaAvx2Impl(const std::int32_t* q, const std::int32_t* qy,
                          const std::int32_t* qz, const std::int32_t* qyz,
                          bool has_left, std::size_t n, std::int32_t* d) {
  std::size_t i = 0;
  if (!has_left && n > 0) {
    // Boundary column: no left neighbour, handled by the scalar form.
    d[0] = LorenzoDeltaOne(q, qy, qz, qyz, false, 0);
    i = 1;
  }
  for (; i + 8 <= n; i += 8) {
    __m256i pred = Load8i(q + i - 1);
    if constexpr (kHasY) {
      pred = _mm256_add_epi32(pred, Load8i(qy + i));
      pred = _mm256_sub_epi32(pred, Load8i(qy + i - 1));
    }
    if constexpr (kHasZ) {
      pred = _mm256_add_epi32(pred, Load8i(qz + i));
      pred = _mm256_sub_epi32(pred, Load8i(qz + i - 1));
    }
    if constexpr (kHasY && kHasZ) {
      pred = _mm256_sub_epi32(pred, Load8i(qyz + i));
      pred = _mm256_add_epi32(pred, Load8i(qyz + i - 1));
    }
    Store8i(d + i, _mm256_sub_epi32(Load8i(q + i), pred));
  }
  detail::LorenzoDeltaRange(q, qy, qz, qyz, has_left, i, n, d);
}

void LorenzoDeltaAvx2(const std::int32_t* q, const std::int32_t* qy,
                      const std::int32_t* qz, const std::int32_t* qyz,
                      bool has_left, std::size_t n, std::int32_t* d) {
  // qyz is non-null only when both qy and qz are (caller contract).
  if (qy != nullptr && qz != nullptr) {
    LorenzoDeltaAvx2Impl<true, true>(q, qy, qz, qyz, has_left, n, d);
  } else if (qy != nullptr) {
    LorenzoDeltaAvx2Impl<true, false>(q, qy, nullptr, nullptr, has_left, n, d);
  } else if (qz != nullptr) {
    LorenzoDeltaAvx2Impl<false, true>(q, nullptr, qz, nullptr, has_left, n, d);
  } else {
    LorenzoDeltaAvx2Impl<false, false>(q, nullptr, nullptr, nullptr, has_left,
                                       n, d);
  }
}

void DequantAvx2(const std::int32_t* q, std::size_t n, double twice_eb,
                 float* out) {
  const __m256d eb2 = _mm256_set1_pd(twice_eb);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i qv = Load8i(q + i);
    const __m256d lo = _mm256_mul_pd(
        _mm256_cvtepi32_pd(_mm256_castsi256_si128(qv)), eb2);
    const __m256d hi = _mm256_mul_pd(
        _mm256_cvtepi32_pd(_mm256_extracti128_si256(qv, 1)), eb2);
    // szx-lint: allow(simd-mem) -- writes 8 floats at out+i; the loop bound i+8 <= n keeps the store in the caller's row
    _mm256_storeu_ps(out + i,
                     _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo)));
  }
  detail::DequantRange(q, i, n, twice_eb, out);
}

// --- ZFP lifting: 4 independent 4-vectors per step, pure epi32 math -------

inline void FwdLiftVec(__m128i& x, __m128i& y, __m128i& z, __m128i& w) {
  x = _mm_add_epi32(x, w); x = _mm_srai_epi32(x, 1); w = _mm_sub_epi32(w, x);
  z = _mm_add_epi32(z, y); z = _mm_srai_epi32(z, 1); y = _mm_sub_epi32(y, z);
  x = _mm_add_epi32(x, z); x = _mm_srai_epi32(x, 1); z = _mm_sub_epi32(z, x);
  w = _mm_add_epi32(w, y); w = _mm_srai_epi32(w, 1); y = _mm_sub_epi32(y, w);
  w = _mm_add_epi32(w, _mm_srai_epi32(y, 1));
  y = _mm_sub_epi32(y, _mm_srai_epi32(w, 1));
}

inline void InvLiftVec(__m128i& x, __m128i& y, __m128i& z, __m128i& w) {
  y = _mm_add_epi32(y, _mm_srai_epi32(w, 1));
  w = _mm_sub_epi32(w, _mm_srai_epi32(y, 1));
  y = _mm_add_epi32(y, w); w = _mm_slli_epi32(w, 1); w = _mm_sub_epi32(w, y);
  z = _mm_add_epi32(z, x); x = _mm_slli_epi32(x, 1); x = _mm_sub_epi32(x, z);
  y = _mm_add_epi32(y, z); z = _mm_slli_epi32(z, 1); z = _mm_sub_epi32(z, y);
  w = _mm_add_epi32(w, x); x = _mm_slli_epi32(x, 1); x = _mm_sub_epi32(x, w);
}

inline void Transpose4(__m128i& a, __m128i& b, __m128i& c, __m128i& d) {
  const __m128i t0 = _mm_unpacklo_epi32(a, b);
  const __m128i t1 = _mm_unpackhi_epi32(a, b);
  const __m128i t2 = _mm_unpacklo_epi32(c, d);
  const __m128i t3 = _mm_unpackhi_epi32(c, d);
  a = _mm_unpacklo_epi64(t0, t2);
  b = _mm_unpackhi_epi64(t0, t2);
  c = _mm_unpacklo_epi64(t1, t3);
  d = _mm_unpackhi_epi64(t1, t3);
}

// Lifts along x for the 4 rows of one 4x4 slice at p: lanes must hold one
// row's (x,y,z,w) each, so transpose in and out around the lift.
template <void (*kLift)(__m128i&, __m128i&, __m128i&, __m128i&)>
inline void LiftRows4(std::int32_t* p) {
  __m128i r0 = Load4i(p), r1 = Load4i(p + 4), r2 = Load4i(p + 8),
          r3 = Load4i(p + 12);
  Transpose4(r0, r1, r2, r3);
  kLift(r0, r1, r2, r3);
  Transpose4(r0, r1, r2, r3);
  Store4i(p, r0);
  Store4i(p + 4, r1);
  Store4i(p + 8, r2);
  Store4i(p + 12, r3);
}

// Lifts 4 parallel stride-s 4-vectors at p (the rows p, p+s, ... are the
// x/y/z/w components of 4 adjacent columns -- no transpose needed).
template <void (*kLift)(__m128i&, __m128i&, __m128i&, __m128i&)>
inline void LiftCols4(std::int32_t* p, std::size_t s) {
  __m128i x = Load4i(p), y = Load4i(p + s), z = Load4i(p + 2 * s),
          w = Load4i(p + 3 * s);
  kLift(x, y, z, w);
  Store4i(p, x);
  Store4i(p + s, y);
  Store4i(p + 2 * s, z);
  Store4i(p + 3 * s, w);
}

void ZfpFwdXformAvx2(std::int32_t* block, int dims) {
  switch (dims) {
    case 1:
      // A single 4-vector has no parallel work; the scalar lift is exact.
      detail::ZfpFwdLift(block, 1);
      break;
    case 2:
      LiftRows4<&FwdLiftVec>(block);
      LiftCols4<&FwdLiftVec>(block, 4);
      break;
    default:
      for (std::size_t z = 0; z < 4; ++z) LiftRows4<&FwdLiftVec>(block + 16 * z);
      for (std::size_t z = 0; z < 4; ++z)
        LiftCols4<&FwdLiftVec>(block + 16 * z, 4);
      for (std::size_t i = 0; i < 16; i += 4)
        LiftCols4<&FwdLiftVec>(block + i, 16);
      break;
  }
}

void ZfpInvXformAvx2(std::int32_t* block, int dims) {
  switch (dims) {
    case 1:
      detail::ZfpInvLift(block, 1);
      break;
    case 2:
      LiftCols4<&InvLiftVec>(block, 4);
      LiftRows4<&InvLiftVec>(block);
      break;
    default:
      for (std::size_t i = 0; i < 16; i += 4)
        LiftCols4<&InvLiftVec>(block + i, 16);
      for (std::size_t z = 0; z < 4; ++z)
        LiftCols4<&InvLiftVec>(block + 16 * z, 4);
      for (std::size_t z = 0; z < 4; ++z) LiftRows4<&InvLiftVec>(block + 16 * z);
      break;
  }
}

}  // namespace

const BaselineOps& Avx2BaselineOps() {
  // The bit-plane entries are the shared plain loops, vectorized by this
  // TU's -mavx2 build.
  static const BaselineOps kOps = {&PrequantAvx2, &LorenzoDeltaAvx2,
                                   &DequantAvx2, &ZfpFwdXformAvx2,
                                   &ZfpInvXformAvx2, &detail::ZfpExtractPlane,
                                   &detail::ZfpDepositPlane};
  return kOps;
}

#else  // !SZX_HAVE_AVX2

const BaselineOps& Avx2BaselineOps() { return ScalarBaselineOps(); }

#endif  // SZX_HAVE_AVX2

}  // namespace szx::kernels
