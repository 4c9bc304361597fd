// szx-hot: steady-state stats/encode/decode kernels; no allocation allowed.
// AVX2 BlockOps tables: 8 (float) / 4 (double) lanes per iteration through
// the fused normalize -> shift/mask -> XOR-with-previous -> lead-code
// pipeline, then a table-driven commit of the surviving mid bytes.
//
// The block-stats kernel keeps four independent min and max accumulators,
// so the min/max latency chains overlap instead of serializing on one
// register, and detects NaN with unordered compares of lane pairs.  Any
// NaN/Inf sends the block to the shared scalar loop, which also yields its
// finite-only range; so does a block shorter than one vector.  The
// finite-range kernel blends non-finite lanes to the accumulators'
// identities instead.
//
// The previous-element vector comes from a one-lane rotation of the current
// truncated words, with lane 0 taken from the previous group's rotation, so
// lead codes for all lanes are computed branch-free: lead =
// popcount-by-compare of the zero-prefix masks, which reproduces
// `countl_zero(x) >> 3` capped at 3 exactly.
//
// Commit: the lead codes are packed into their lead-array bytes in
// registers, and each 128-bit half of truncated words (4 float / 2 double
// lanes) is compacted by one pshufb whose control comes from a constexpr
// table indexed by nb and the half's lead codes, then written with one
// 16-byte store; the cursor advances by the length the table row stores.
// The byte swap to MSB-first stream order is folded into the controls.  A
// half store never leaves MaxBlockPayload (see kCommitSlack in kernels.hpp
// and CommitHalf below).
//
// Decode is the commit run backwards: each half's mid bytes are expanded
// into its lanes by one 16-byte load and one pshufb whose control comes
// from an expand table built by the commit table's generator, and the
// lead-byte inheritance is resolved with an AND/OR scan (DecodeCAvx2F32
// below).  Its loads are bounded by the caller's `readable` bytes -- the
// rest of the payload section -- rather than by the block, so only the
// n % 8 (n % 4) tail and blocks at the very end of the section fall back to
// the scalar walk; the bits kept and the truncation throws still depend on
// the block's own payload size alone.
//
// This TU and baseline_avx2.cpp are the only ones built with -mavx2; the
// dispatcher reaches them only after cpuid reports AVX2.  Where the compiler
// has no -mavx2 (non-x86 targets) the TU is built without SZX_HAVE_AVX2 and
// Avx2Ops simply aliases ScalarOps so callers never see a null table.
#include "core/kernels/block_kernels_impl.hpp"
#include "core/kernels/kernels.hpp"

#if defined(SZX_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace szx::kernels {

#if defined(SZX_HAVE_AVX2)

namespace {

// Lane operations the block-stats kernel needs, per element type.
struct F32Lanes {
  using T = float;
  using V = __m256;
  static constexpr std::size_t kLanes = 8;
  static V Load(const float* p) {
    // szx-lint: allow(simd-mem) -- reads 8 floats at p; every caller keeps p+8 inside its block
    return _mm256_loadu_ps(p);
  }
  static V Min(V a, V b) { return _mm256_min_ps(a, b); }
  static V Max(V a, V b) { return _mm256_max_ps(a, b); }
  // All-ones lanes where a or b is NaN.
  static V Unordered(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_UNORD_Q); }
  static V Or(V a, V b) { return _mm256_or_ps(a, b); }
  static bool Any(V m) { return _mm256_movemask_ps(m) != 0; }
  static V Set1(float x) { return _mm256_set1_ps(x); }
  // All-ones lanes where v is finite (|v| < inf fails for NaN too).
  static V Finite(V v) {
    const V abs = _mm256_and_ps(
        v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
    return _mm256_cmp_ps(abs, Set1(std::numeric_limits<float>::infinity()),
                         _CMP_LT_OQ);
  }
  // Lanes of b where m is set, of a elsewhere.
  static V Select(V a, V b, V m) { return _mm256_blendv_ps(a, b, m); }
  static float HMin(V v) {
    __m128 m = _mm_min_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    m = _mm_min_ps(m, _mm_movehl_ps(m, m));
    return _mm_cvtss_f32(_mm_min_ss(m, _mm_shuffle_ps(m, m, 1)));
  }
  static float HMax(V v) {
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    return _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps(m, m, 1)));
  }
};

struct F64Lanes {
  using T = double;
  using V = __m256d;
  static constexpr std::size_t kLanes = 4;
  static V Load(const double* p) {
    // szx-lint: allow(simd-mem) -- reads 4 doubles at p; every caller keeps p+4 inside its block
    return _mm256_loadu_pd(p);
  }
  static V Min(V a, V b) { return _mm256_min_pd(a, b); }
  static V Max(V a, V b) { return _mm256_max_pd(a, b); }
  static V Unordered(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_UNORD_Q); }
  static V Or(V a, V b) { return _mm256_or_pd(a, b); }
  static bool Any(V m) { return _mm256_movemask_pd(m) != 0; }
  static V Set1(double x) { return _mm256_set1_pd(x); }
  static V Finite(V v) {
    const V abs = _mm256_and_pd(
        v, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
    return _mm256_cmp_pd(abs, Set1(std::numeric_limits<double>::infinity()),
                         _CMP_LT_OQ);
  }
  static V Select(V a, V b, V m) { return _mm256_blendv_pd(a, b, m); }
  static double HMin(V v) {
    const __m128d m = _mm_min_pd(_mm256_castpd256_pd128(v),
                                 _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
  }
  static double HMax(V v) {
    const __m128d m = _mm_max_pd(_mm256_castpd256_pd128(v),
                                 _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
  }
};

// The first element of p equal to zero.  Called only when the block's min
// (max) is a zero, so one exists; returning it reproduces the scalar loop's
// choice between +0 and -0 (the first element attaining the extreme).
template <typename T>
T FirstZero(const T* p) {
  std::size_t i = 0;
  while (p[i] != T(0)) ++i;
  return p[i];
}

// Stats of one block p[0, n), folded into `range`; bit-identical to
// detail::BlockStatsScalar.
template <typename L>
BlockStats<typename L::T> BlockStatsAvx2(const typename L::T* p,
                                         std::size_t n,
                                         GlobalRange<typename L::T>& range) {
  using T = typename L::T;
  using V = typename L::V;
  constexpr std::size_t kW = L::kLanes;
  if (n < kW) return detail::BlockStatsScalar<T>(p, n, range);
  V mn0, mn1, mn2, mn3, nan;
  std::size_t i;
  if (n >= 4 * kW) {
    mn0 = L::Load(p);
    mn1 = L::Load(p + kW);
    mn2 = L::Load(p + 2 * kW);
    mn3 = L::Load(p + 3 * kW);
    nan = L::Or(L::Unordered(mn0, mn1), L::Unordered(mn2, mn3));
    i = 4 * kW;
  } else {
    mn0 = mn1 = mn2 = mn3 = L::Load(p);
    nan = L::Unordered(mn0, mn0);
    i = kW;
  }
  V mx0 = mn0, mx1 = mn1, mx2 = mn2, mx3 = mn3;
  for (; i + 4 * kW <= n; i += 4 * kW) {
    const V a = L::Load(p + i);
    const V b = L::Load(p + i + kW);
    const V c = L::Load(p + i + 2 * kW);
    const V d = L::Load(p + i + 3 * kW);
    mn0 = L::Min(mn0, a);
    mx0 = L::Max(mx0, a);
    mn1 = L::Min(mn1, b);
    mx1 = L::Max(mx1, b);
    mn2 = L::Min(mn2, c);
    mx2 = L::Max(mx2, c);
    mn3 = L::Min(mn3, d);
    mx3 = L::Max(mx3, d);
    nan = L::Or(nan, L::Or(L::Unordered(a, b), L::Unordered(c, d)));
  }
  for (; i + kW <= n; i += kW) {
    const V a = L::Load(p + i);
    mn0 = L::Min(mn0, a);
    mx0 = L::Max(mx0, a);
    nan = L::Or(nan, L::Unordered(a, a));
  }
  // Without NaN, vector min/max are exact and an infinity surfaces as an
  // extreme, so these three checks cover every non-finite value.
  T vmin = L::HMin(L::Min(L::Min(mn0, mn1), L::Min(mn2, mn3)));
  T vmax = L::HMax(L::Max(L::Max(mx0, mx1), L::Max(mx2, mx3)));
  bool any_nan = L::Any(nan);
  for (; i < n; ++i) {
    const T v = p[i];
    if (v < vmin) vmin = v;
    if (v > vmax) vmax = v;
    any_nan |= std::isnan(v);
  }
  if (any_nan || !std::isfinite(vmin) || !std::isfinite(vmax)) {
    return detail::BlockStatsScalar<T>(p, n, range);
  }
  // Lane order decides which of +0 / -0 a zero extreme came from.
  if (vmin == T(0)) vmin = FirstZero(p);
  if (vmax == T(0)) vmax = FirstZero(p);
  range.Merge(vmin, vmax);
  return detail::FinalizeStats(vmin, vmax, true);
}

template <SupportedFloat T>
GlobalRange<T> BlockStatsAvx2Entry(const T* data, std::size_t n,
                                   std::size_t bs, BlockStats<T>* out) {
  using L = std::conditional_t<std::is_same_v<T, float>, F32Lanes, F64Lanes>;
  return detail::BlockStatsPass<T>(
      data, n, bs, out, [](const T* p, std::size_t len, GlobalRange<T>& r) {
        return BlockStatsAvx2<L>(p, len, r);
      });
}

// Finite range of p[0, n) with ScanFiniteRange's NaN/Inf skipping:
// non-finite lanes are blended to the accumulators' identities (+inf for
// min, -inf for max) so they never influence the result, and any_finite is
// the OR of the per-lane finite masks.
template <typename L>
GlobalRange<typename L::T> FiniteRangeAvx2(const typename L::T* p,
                                           std::size_t n) {
  using T = typename L::T;
  using V = typename L::V;
  constexpr T kInf = std::numeric_limits<T>::infinity();
  const V inf = L::Set1(kInf);
  const V ninf = L::Set1(-kInf);
  V vmin = inf;
  V vmax = ninf;
  V any = L::Set1(T(0));
  std::size_t i = 0;
  for (; i + L::kLanes <= n; i += L::kLanes) {
    const V v = L::Load(p + i);
    const V fin = L::Finite(v);
    any = L::Or(any, fin);
    vmin = L::Min(vmin, L::Select(inf, v, fin));
    vmax = L::Max(vmax, L::Select(ninf, v, fin));
  }
  bool any_finite = L::Any(any);
  T smin = L::HMin(vmin);
  T smax = L::HMax(vmax);
  for (; i < n; ++i) {
    const T v = p[i];
    if (!std::isfinite(v)) continue;
    any_finite = true;
    if (v < smin) smin = v;
    if (v > smax) smax = v;
  }
  GlobalRange<T> r;
  if (any_finite) r.Merge(smin, smax);
  return r;
}

template <SupportedFloat T>
GlobalRange<T> FiniteRangeAvx2Entry(const T* data, std::size_t n) {
  using L = std::conditional_t<std::is_same_v<T, float>, F32Lanes, F64Lanes>;
  return FiniteRangeAvx2<L>(data, n);
}

// Solution-C byte tables: the encode commit and the decode expand come from
// one generator, so both directions agree on every row's bytes and length.
//
// Row (nb, idx) covers one 128-bit half of truncated words -- kLanes lanes
// of kW bytes -- whose 2-bit lead codes, first lane in the top bits, form
// idx.  Lane q keeps its MSB-first bytes copy..nb-1 (copy = min(code, nb)),
// packed back to back in lane order, which is the scalar commit's byte
// sequence.  MSB-first byte k of lane q sits at byte kW*q + kW-1-k of the
// little-endian half, so naming it there folds the byte swap into the
// shuffle.  Control bytes 0x80 make pshufb write zero.
//   commit: packed byte p reads half byte ctrl[p]; 0x80 past the kept ones.
//   expand: the inverse.  Half byte b reads packed byte ctrl[b]; 0x80 where
//           the lane keeps nothing (its inherited bytes 0..copy-1 and the
//           bytes past nb), so one pshufb of the 16 stream bytes at the
//           cursor gives each lane the scalar (bswap(w) >> 8*copy) &
//           KeepMask(nb).
//   len:    the number of kept bytes, the cursor advance of both.
//
// Rows whose codes a masked word cannot produce (codes 1-2 at nb = 1, code
// 2 at nb = 2: a word masked to nb bytes either differs inside its top nb
// bytes or equals its predecessor, code 3) hold the code-3 row and are
// never read.
template <std::size_t kW, std::size_t kLanes>
struct ByteTables {
  static_assert(kW * kLanes == 16, "one row covers one 128-bit half");
  static constexpr std::size_t kRows = std::size_t{1} << (2 * kLanes);
  alignas(16) std::uint8_t commit[kW][kRows][16];  // [nb - 1][idx]
  alignas(16) std::uint8_t expand[kW][kRows][16];  // [nb - 1][idx]
  std::uint8_t len[kW][kRows];
};

template <std::size_t kW, std::size_t kLanes>
constexpr ByteTables<kW, kLanes> MakeByteTables() {
  ByteTables<kW, kLanes> t{};
  for (std::size_t nb = 1; nb <= kW; ++nb) {
    for (std::size_t idx = 0; idx < t.kRows; ++idx) {
      std::uint8_t* commit = t.commit[nb - 1][idx];
      std::uint8_t* expand = t.expand[nb - 1][idx];
      for (std::size_t b = 0; b < 16; ++b) commit[b] = expand[b] = 0x80;
      std::size_t p = 0;
      for (std::size_t q = 0; q < kLanes; ++q) {
        const std::size_t code = (idx >> (2 * (kLanes - 1 - q))) & 3;
        for (std::size_t k = std::min(code, nb); k < nb; ++k, ++p) {
          const std::size_t b = kW * q + kW - 1 - k;
          commit[p] = static_cast<std::uint8_t>(b);
          expand[b] = static_cast<std::uint8_t>(p);
        }
      }
      t.len[nb - 1][idx] = static_cast<std::uint8_t>(p);
    }
  }
  return t;
}

// Every expand row names packed bytes 0..len-1 once each, at the half bytes
// its commit row reads them from, and nothing else: the decode cursor
// advances by exactly the bytes the encode commit wrote.
template <std::size_t kW, std::size_t kLanes>
constexpr bool ExpandInvertsCommit(const ByteTables<kW, kLanes>& t) {
  for (std::size_t nb = 0; nb < kW; ++nb) {
    for (std::size_t idx = 0; idx < t.kRows; ++idx) {
      const std::uint8_t* commit = t.commit[nb][idx];
      const std::uint8_t* expand = t.expand[nb][idx];
      const std::size_t len = t.len[nb][idx];
      std::size_t named = 0;
      for (std::size_t b = 0; b < 16; ++b) {
        if (expand[b] == 0x80) continue;
        if (expand[b] >= len || commit[expand[b]] != b) return false;
        ++named;
      }
      if (named != len) return false;
      for (std::size_t p = len; p < 16; ++p) {
        if (commit[p] != 0x80) return false;
      }
    }
  }
  return true;
}

// Constant-initialized (.rodata): no static constructor in this hot file.
constexpr ByteTables<4, 4> kTablesF32 = MakeByteTables<4, 4>();
constexpr ByteTables<8, 2> kTablesF64 = MakeByteTables<8, 2>();
static_assert(ExpandInvertsCommit(kTablesF32));
static_assert(ExpandInvertsCommit(kTablesF64));

// Compacts one half of truncated words by a table row and stores it at the
// cursor; returns the advanced cursor.
//
// Bound: the store writes mid[0, 16).  Every value before this half took
// at most sizeof(T) mid bytes, so mid <= dst + LeadArrayBytes(n) +
// j * sizeof(T) for the half's first lane j, and the half's lanes (16 /
// sizeof(T) of them, all inside the block by the i + lanes <= n loop
// bound) end at j + 16 / sizeof(T) <= n.  The store thus ends inside
// MaxBlockPayload<T>(n), kCommitSlack before the end of the
// EncodeCapacity<T>(n) buffer.
inline std::byte* CommitHalf(__m128i words, const std::uint8_t* ctrl,
                             std::uint8_t len, std::byte* mid) {
  // szx-lint: allow(reinterpret-cast) -- one 16-byte row of the alignas(16) constexpr commit table
  const auto* row = reinterpret_cast<const __m128i*>(ctrl);
  // szx-lint: allow(simd-mem) -- aligned 16-byte read of exactly one table row
  const __m128i packed = _mm_shuffle_epi8(words, _mm_load_si128(row));
  // szx-lint: allow(reinterpret-cast) -- unaligned store target at the mid-byte cursor
  auto* out = reinterpret_cast<__m128i*>(mid);
  // szx-lint: allow(simd-mem) -- 16 bytes at mid end inside MaxBlockPayload(n) (bound above), so inside EncodeCapacity(n)
  _mm_storeu_si128(out, packed);
  return mid + len;
}

// Zeroes the lead bytes the vector loop did not write (elements [i, n),
// i a multiple of 4): the scalar tail ORs its codes into them.
inline void ClearTailLeads(std::byte* dst, std::size_t i, std::size_t n) {
  for (std::size_t k = i >> 2; k < LeadArrayBytes(n); ++k) {
    dst[k] = std::byte{0};
  }
}

template <bool kNormalize>
std::size_t EncodeCAvx2F32(const float* block, std::size_t n, float mu,
                           const ReqPlan& plan, std::byte* dst) {
  const int nb = plan.num_bytes;
  const int s = plan.shift;
  std::byte* mid = dst + LeadArrayBytes(n);

  [[maybe_unused]] const __m256 mu8 = _mm256_set1_ps(mu);
  const __m256i keep8 =
      _mm256_set1_epi32(static_cast<int>(KeepMask<float>(nb)));
  const __m128i scount = _mm_cvtsi32_si128(s);
  const __m256i rot = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  const __m256i top1 = _mm256_set1_epi32(static_cast<int>(0xFF000000u));
  const __m256i top2 = _mm256_set1_epi32(static_cast<int>(0xFFFF0000u));
  const __m256i top3 = _mm256_set1_epi32(static_cast<int>(0xFFFFFF00u));
  const __m256i zero = _mm256_setzero_si256();
  // Lane j's code goes to bits 6 - 2 * (j % 4) of its half's lead byte.
  const __m256i lead_pos = _mm256_setr_epi32(6, 4, 2, 0, 6, 4, 2, 0);
  const auto& ctrl = kTablesF32.commit[nb - 1];
  const auto& len = kTablesF32.len[nb - 1];
  // Lane 0 holds the previous group's last word (0 before the first).
  __m256i carry = zero;

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // szx-lint: allow(simd-mem) -- reads 8 floats at block+i; the loop bound i+8 <= n keeps the load in the caller's block
    __m256 v = _mm256_loadu_ps(block + i);
    if constexpr (kNormalize) v = _mm256_sub_ps(v, mu8);
    const __m256i t = _mm256_and_si256(
        _mm256_srl_epi32(_mm256_castps_si256(v), scount), keep8);
    const __m256i rt = _mm256_permutevar8x32_epi32(t, rot);
    const __m256i x = _mm256_xor_si256(t, _mm256_blend_epi32(rt, carry, 1));
    carry = rt;
    const __m256i sum = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_cmpeq_epi32(_mm256_and_si256(x, top1), zero),
                         _mm256_cmpeq_epi32(_mm256_and_si256(x, top2), zero)),
        _mm256_cmpeq_epi32(_mm256_and_si256(x, top3), zero));
    const __m256i lead = _mm256_sub_epi32(zero, sum);
    // OR each half's four shifted codes into its low lane.
    __m256i lb = _mm256_sllv_epi32(lead, lead_pos);
    lb = _mm256_or_si256(lb, _mm256_srli_epi64(lb, 32));
    lb = _mm256_or_si256(lb, _mm256_bsrli_epi128(lb, 8));
    const auto b0 = static_cast<unsigned>(
        _mm_cvtsi128_si32(_mm256_castsi256_si128(lb)));
    const auto b1 = static_cast<unsigned>(_mm256_extract_epi32(lb, 4));
    // i is a multiple of 8, so this group owns two whole lead-array bytes.
    dst[i >> 2] = std::byte{static_cast<std::uint8_t>(b0)};
    dst[(i >> 2) + 1] = std::byte{static_cast<std::uint8_t>(b1)};
    mid = CommitHalf(_mm256_castsi256_si128(t), ctrl[b0], len[b0], mid);
    mid = CommitHalf(_mm256_extracti128_si256(t, 1), ctrl[b1], len[b1], mid);
  }
  ClearTailLeads(dst, i, n);
  auto prev = static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm256_castsi256_si128(carry)));
  detail::EncodeCRange<float, kNormalize>(block, i, n, mu, nb, s, dst, prev,
                                          mid);
  return static_cast<std::size_t>(mid - dst);
}

template <bool kNormalize>
std::size_t EncodeCAvx2F64(const double* block, std::size_t n, double mu,
                           const ReqPlan& plan, std::byte* dst) {
  const int nb = plan.num_bytes;
  const int s = plan.shift;
  std::byte* mid = dst + LeadArrayBytes(n);

  [[maybe_unused]] const __m256d mu4 = _mm256_set1_pd(mu);
  const __m256i keep4 =
      _mm256_set1_epi64x(static_cast<long long>(KeepMask<double>(nb)));
  const __m128i scount = _mm_cvtsi32_si128(s);
  const __m256i top1 =
      _mm256_set1_epi64x(static_cast<long long>(0xFF00000000000000ull));
  const __m256i top2 =
      _mm256_set1_epi64x(static_cast<long long>(0xFFFF000000000000ull));
  const __m256i top3 =
      _mm256_set1_epi64x(static_cast<long long>(0xFFFFFF0000000000ull));
  const __m256i zero = _mm256_setzero_si256();
  // Lane j's code goes to bits 2 - 2 * (j % 2) of its half's table index,
  // the half's nibble of the lead byte.
  const __m256i lead_pos = _mm256_setr_epi64x(2, 0, 2, 0);
  const auto& ctrl = kTablesF64.commit[nb - 1];
  const auto& len = kTablesF64.len[nb - 1];
  __m256i carry = zero;

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // szx-lint: allow(simd-mem) -- reads 4 doubles at block+i; the loop bound i+4 <= n keeps the load in the caller's block
    __m256d v = _mm256_loadu_pd(block + i);
    if constexpr (kNormalize) v = _mm256_sub_pd(v, mu4);
    const __m256i t = _mm256_and_si256(
        _mm256_srl_epi64(_mm256_castpd_si256(v), scount), keep4);
    const __m256i rt = _mm256_permute4x64_epi64(t, _MM_SHUFFLE(2, 1, 0, 3));
    const __m256i x = _mm256_xor_si256(t, _mm256_blend_epi32(rt, carry, 0x3));
    carry = rt;
    const __m256i sum = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_cmpeq_epi64(_mm256_and_si256(x, top1), zero),
                         _mm256_cmpeq_epi64(_mm256_and_si256(x, top2), zero)),
        _mm256_cmpeq_epi64(_mm256_and_si256(x, top3), zero));
    const __m256i lead = _mm256_sub_epi64(zero, sum);
    __m256i lb = _mm256_sllv_epi64(lead, lead_pos);
    lb = _mm256_or_si256(lb, _mm256_bsrli_epi128(lb, 8));
    const auto n0 = static_cast<unsigned>(
        _mm_cvtsi128_si32(_mm256_castsi256_si128(lb)));
    const auto n1 = static_cast<unsigned>(_mm256_extract_epi32(lb, 4));
    // i is a multiple of 4, so this group owns one whole lead-array byte.
    dst[i >> 2] = std::byte{static_cast<std::uint8_t>((n0 << 4) | n1)};
    mid = CommitHalf(_mm256_castsi256_si128(t), ctrl[n0], len[n0], mid);
    mid = CommitHalf(_mm256_extracti128_si256(t, 1), ctrl[n1], len[n1], mid);
  }
  ClearTailLeads(dst, i, n);
  auto prev = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm256_castsi256_si128(carry)));
  detail::EncodeCRange<double, kNormalize>(block, i, n, mu, nb, s, dst, prev,
                                           mid);
  return static_cast<std::size_t>(mid - dst);
}

template <SupportedFloat T>
std::size_t EncodeCAvx2(const T* block, std::size_t n, T mu,
                        const ReqPlan& plan, std::byte* dst) {
  if constexpr (std::is_same_v<T, float>) {
    return mu == 0.0f ? EncodeCAvx2F32<false>(block, n, mu, plan, dst)
                      : EncodeCAvx2F32<true>(block, n, mu, plan, dst);
  } else {
    return mu == 0.0 ? EncodeCAvx2F64<false>(block, n, mu, plan, dst)
                     : EncodeCAvx2F64<true>(block, n, mu, plan, dst);
  }
}

// Table-driven AVX2 decode, the inverse of the commit.
//
// Per vector group (8 float / 4 double lanes), each 128-bit half of words
// is expanded from the mid stream by one pshufb: 16 bytes are loaded at the
// half's cursor and the half's expand row (indexed by nb and its lead byte
// / nibble) moves each lane's kept bytes to MSB-first positions copy..nb-1,
// byte swap included, zeroing the rest.  Half 1's cursor is half 0's plus
// len[b0], and the group advances pos by len[b0] + len[b1]: GPR table
// loads that depend on the lead bytes only, so no vector -> GPR move sits
// on the loop-carried pos chain.
//
// The reconstruction recurrence t_i = (t_{i-1} & ~N_i) | m_i (N_i the
// bytes lane i keeps from the stream, m_i the expanded mid bytes) looks
// serial, but the per-element operations compose associatively:
//
//   (N_a, m_a) then (N_b, m_b)  ==  (N_a | N_b, (m_a & ~N_b) | m_b)
//
// so a Hillis-Steele AND/OR scan resolves all lanes of one vector group in
// log2(lanes) rounds, with one carry word crossing groups.  N is all-ones
// exactly where the expand control is not 0x80, so ~N covers the inherited
// bytes 0..copy-1 and the bytes past nb, which are zero in every decoded
// word: ANDing the previous word with it is the scalar prev &
// KeepMask(copy).  The pair (0, 0) is the identity, so the rounds inside a
// half shift zeros in with one byte shift each, and only the last round
// crosses halves.  After the scan the carry is applied, then the words are
// left-shifted and de-normalized in the same registers before one wide
// store.  The carry stays in a register: the last lane of the group's
// words broadcast to every lane.
//
// Bound: half 0 reads mid[pos, pos + 16) and half 1 reads mid[pos +
// len[b0], pos + len[b0] + 16), and len[b0] <= lanes-per-half * nb, so a
// group reads no byte past pos + guard with guard = 4 * nb + 16 (float) or
// 2 * nb + 16 (double).  The vector loop runs while pos + guard <=
// mid_readable, the *readable* bytes (the rest of the payload section)
// rather than this block's mid bytes, so a block whose successor follows
// decodes every whole group in the loop.  mid_readable is capped at
// mid_size + guard, so the loop also stops once pos passes mid_size.  The
// bytes a group uses are mid[pos, pos + len[b0] + len[b1]), and pos never
// decreases; so pos <= mid_size after the loop means every used byte lay
// inside the block, and pos > mid_size is exactly the truncation the
// scalar walk would throw on.  The scalar DecodeCRange resumes from the
// carried (prev, pos) state against mid_size for group tails, payloads too
// short for the guard at the end of the section, and the truncation-throw
// path, so both kernels share one error behaviour.
struct Expanded {
  __m256i m;  // each lane's kept bytes at MSB-first positions copy..nb-1
  __m256i N;  // all-ones on those bytes, zero elsewhere
};

// One scan round: composes each lane's (N, m) after the pair (Np, mp)
// shifted in from the lanes below it; zero lanes, the identity, where none
// is.
inline void ScanRound(__m256i& N, __m256i& m, __m256i Np, __m256i mp) {
  m = _mm256_or_si256(_mm256_andnot_si256(N, mp), m);
  N = _mm256_or_si256(Np, N);
}

// Expands one vector group from the mid stream at `at`: half 0 through
// expand row ctrl0, half 1 (len0 bytes on) through ctrl1.
inline Expanded ExpandGroup(const std::byte* at, const std::uint8_t* ctrl0,
                            const std::uint8_t* ctrl1, std::size_t len0) {
  // szx-lint: allow(reinterpret-cast) -- one 16-byte row of the alignas(16) constexpr expand table
  const auto* row0 = reinterpret_cast<const __m128i*>(ctrl0);
  // szx-lint: allow(reinterpret-cast) -- one 16-byte row of the alignas(16) constexpr expand table
  const auto* row1 = reinterpret_cast<const __m128i*>(ctrl1);
  // szx-lint: allow(reinterpret-cast) -- unaligned load source at the mid-byte cursor
  const auto* src0 = reinterpret_cast<const __m128i*>(at);
  // szx-lint: allow(reinterpret-cast) -- unaligned load source at the mid-byte cursor plus half 0's len
  const auto* src1 = reinterpret_cast<const __m128i*>(at + len0);
  const __m256i ctrl = _mm256_inserti128_si256(
      // szx-lint: allow(simd-mem) -- aligned 16-byte read of exactly one table row
      _mm256_castsi128_si256(_mm_load_si128(row0)), _mm_load_si128(row1), 1);
  const __m256i bytes = _mm256_inserti128_si256(
      // szx-lint: allow(simd-mem) -- 16 bytes at mid+pos and at mid+pos+len0 end by mid+pos+guard <= mid_readable (the decode loop's guard), inside the caller's readable bytes
      _mm256_castsi128_si256(_mm_loadu_si128(src0)), _mm_loadu_si128(src1),
      1);
  return {_mm256_shuffle_epi8(bytes, ctrl),
          _mm256_cmpgt_epi8(ctrl, _mm256_set1_epi8(-1))};
}

template <bool kNormalize>
void DecodeCAvx2F32(const std::byte* payload, std::size_t payload_size,
                    std::size_t readable, float mu, int nb, int s, float* out,
                    std::size_t n) {
  using Bits = std::uint32_t;
  const std::size_t lead_bytes = LeadArrayBytes(n);
  if (payload_size < lead_bytes) {
    ThrowError("szx: truncated block payload (lead array)");
  }
  const std::byte* lead = payload;
  const std::byte* mid = payload + lead_bytes;
  const std::size_t mid_size = payload_size - lead_bytes;

  const __m256i zero = _mm256_setzero_si256();
  const __m128i scount = _mm_cvtsi32_si128(s);
  const __m256i lane3 = _mm256_set1_epi32(3);
  const __m256i last_lane = _mm256_set1_epi32(7);
  [[maybe_unused]] const __m256 mu8 = _mm256_set1_ps(mu);
  const auto& expand = kTablesF32.expand[nb - 1];
  const auto& len = kTablesF32.len[nb - 1];

  __m256i carry = zero;
  std::size_t pos = 0;
  std::size_t i = 0;
  // Guard: half 0's 4 lanes of at most nb mid bytes, then half 1's load.
  const std::size_t guard = 4 * static_cast<std::size_t>(nb) + 16;
  const std::size_t mid_readable =
      std::min(std::max(readable, payload_size) - lead_bytes, mid_size + guard);
  for (; i + 8 <= n && pos + guard <= mid_readable; i += 8) {
    // i is a multiple of 8, so this group owns two whole lead bytes, one
    // per half.
    const unsigned b0 = std::to_integer<unsigned>(lead[i >> 2]);
    const unsigned b1 = std::to_integer<unsigned>(lead[(i >> 2) + 1]);
    const Expanded e = ExpandGroup(mid + pos, expand[b0], expand[b1], len[b0]);
    // Scan: lane i composes lanes (i-1, i], then (i-3, i] inside each
    // half, then half 1 takes half 0's lane 3.
    __m256i N = e.N, ms = e.m;
    ScanRound(N, ms, _mm256_bslli_epi128(N, 4), _mm256_bslli_epi128(ms, 4));
    ScanRound(N, ms, _mm256_bslli_epi128(N, 8), _mm256_bslli_epi128(ms, 8));
    ScanRound(
        N, ms,
        _mm256_blend_epi32(_mm256_permutevar8x32_epi32(N, lane3), zero, 0x0F),
        _mm256_blend_epi32(_mm256_permutevar8x32_epi32(ms, lane3), zero, 0x0F));
    const __m256i t = _mm256_or_si256(_mm256_andnot_si256(N, carry), ms);
    const __m256i shifted = _mm256_sll_epi32(t, scount);
    if constexpr (kNormalize) {
      // szx-lint: allow(simd-mem) -- stores 8 floats at out+i; the loop bound i+8 <= n keeps the store in the caller's block
      _mm256_storeu_ps(out + i,
                       _mm256_add_ps(_mm256_castsi256_ps(shifted), mu8));
    } else {
      // szx-lint: allow(simd-mem) -- stores 8 floats at out+i; the loop bound i+8 <= n keeps the store in the caller's block
      _mm256_storeu_ps(out + i, _mm256_castsi256_ps(shifted));
    }
    carry = _mm256_permutevar8x32_epi32(t, last_lane);
    pos += std::size_t{len[b0]} + len[b1];
  }
  if (pos > mid_size) {
    ThrowError("szx: truncated block payload (mid bytes)");
  }
  auto prev = static_cast<Bits>(_mm256_cvtsi256_si32(carry));
  detail::DecodeCRange<float, kNormalize, false>(lead, mid, mid_size, mu, nb,
                                                 s, out, i, n, prev, pos);
}

template <bool kNormalize>
void DecodeCAvx2F64(const std::byte* payload, std::size_t payload_size,
                    std::size_t readable, double mu, int nb, int s,
                    double* out, std::size_t n) {
  using Bits = std::uint64_t;
  const std::size_t lead_bytes = LeadArrayBytes(n);
  if (payload_size < lead_bytes) {
    ThrowError("szx: truncated block payload (lead array)");
  }
  const std::byte* lead = payload;
  const std::byte* mid = payload + lead_bytes;
  const std::size_t mid_size = payload_size - lead_bytes;

  const __m256i zero = _mm256_setzero_si256();
  const __m128i scount = _mm_cvtsi32_si128(s);
  [[maybe_unused]] const __m256d mu4 = _mm256_set1_pd(mu);
  const auto& expand = kTablesF64.expand[nb - 1];
  const auto& len = kTablesF64.len[nb - 1];

  __m256i carry = zero;
  std::size_t pos = 0;
  std::size_t i = 0;
  // Guard: half 0's 2 lanes of at most nb mid bytes, then half 1's load.
  const std::size_t guard = 2 * static_cast<std::size_t>(nb) + 16;
  const std::size_t mid_readable =
      std::min(std::max(readable, payload_size) - lead_bytes, mid_size + guard);
  for (; i + 4 <= n && pos + guard <= mid_readable; i += 4) {
    // i is a multiple of 4, so this group owns one whole lead byte, one
    // nibble per half.
    const unsigned lw = std::to_integer<unsigned>(lead[i >> 2]);
    const unsigned n0 = lw >> 4;
    const unsigned n1 = lw & 0xF;
    const Expanded e = ExpandGroup(mid + pos, expand[n0], expand[n1], len[n0]);
    // Scan: lane i composes lanes (i-1, i] inside each half, then half 1
    // takes half 0's lane 1.
    __m256i N = e.N, ms = e.m;
    ScanRound(N, ms, _mm256_bslli_epi128(N, 8), _mm256_bslli_epi128(ms, 8));
    ScanRound(N, ms,
              _mm256_blend_epi32(
                  _mm256_permute4x64_epi64(N, _MM_SHUFFLE(1, 1, 1, 1)), zero,
                  0x0F),
              _mm256_blend_epi32(
                  _mm256_permute4x64_epi64(ms, _MM_SHUFFLE(1, 1, 1, 1)), zero,
                  0x0F));
    const __m256i t = _mm256_or_si256(_mm256_andnot_si256(N, carry), ms);
    const __m256i shifted = _mm256_sll_epi64(t, scount);
    if constexpr (kNormalize) {
      // szx-lint: allow(simd-mem) -- stores 4 doubles at out+i; the loop bound i+4 <= n keeps the store in the caller's block
      _mm256_storeu_pd(out + i,
                       _mm256_add_pd(_mm256_castsi256_pd(shifted), mu4));
    } else {
      // szx-lint: allow(simd-mem) -- stores 4 doubles at out+i; the loop bound i+4 <= n keeps the store in the caller's block
      _mm256_storeu_pd(out + i, _mm256_castsi256_pd(shifted));
    }
    carry = _mm256_permute4x64_epi64(t, _MM_SHUFFLE(3, 3, 3, 3));
    pos += std::size_t{len[n0]} + len[n1];
  }
  if (pos > mid_size) {
    ThrowError("szx: truncated block payload (mid bytes)");
  }
  auto prev = static_cast<Bits>(
      _mm_cvtsi128_si64(_mm256_castsi256_si128(carry)));
  detail::DecodeCRange<double, kNormalize, false>(lead, mid, mid_size, mu, nb,
                                                  s, out, i, n, prev, pos);
}

template <SupportedFloat T>
void DecodeCAvx2(const std::byte* payload, std::size_t payload_size,
                 std::size_t readable, T mu, const ReqPlan& plan, T* out,
                 std::size_t n) {
  const int nb = plan.num_bytes;
  const int s = plan.shift;
  if constexpr (std::is_same_v<T, float>) {
    if (mu == 0.0f) {
      DecodeCAvx2F32<false>(payload, payload_size, readable, mu, nb, s, out,
                            n);
    } else {
      DecodeCAvx2F32<true>(payload, payload_size, readable, mu, nb, s, out,
                           n);
    }
  } else {
    if (mu == 0.0) {
      DecodeCAvx2F64<false>(payload, payload_size, readable, mu, nb, s, out,
                            n);
    } else {
      DecodeCAvx2F64<true>(payload, payload_size, readable, mu, nb, s, out,
                           n);
    }
  }
}

}  // namespace

template <SupportedFloat T>
const BlockOps<T>& Avx2Ops() {
  static const BlockOps<T> kOps = {&BlockStatsAvx2Entry<T>,
                                   &FiniteRangeAvx2Entry<T>, &EncodeCAvx2<T>,
                                   &DecodeCAvx2<T>};
  return kOps;
}

#else  // !SZX_HAVE_AVX2

template <SupportedFloat T>
const BlockOps<T>& Avx2Ops() {
  return ScalarOps<T>();
}

#endif  // SZX_HAVE_AVX2

template const BlockOps<float>& Avx2Ops<float>();
template const BlockOps<double>& Avx2Ops<double>();

}  // namespace szx::kernels
