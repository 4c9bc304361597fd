// szx-hot: per-block statistics wrappers and the global-range pass; no
// allocation allowed.
#include "core/block_stats.hpp"

#include "core/kernels/kernels.hpp"

#if defined(SZX_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace szx {
namespace {

// One block through a table's multi-block entry (block size = span size).
template <SupportedFloat T>
BlockStats<T> OneBlock(const kernels::BlockOps<T>& ops,
                       std::span<const T> block) {
  BlockStats<T> s;
  if (!block.empty()) {
    (void)ops.block_stats(block.data(), block.size(), block.size(), &s);
  }
  return s;
}

}  // namespace

template <SupportedFloat T>
BlockStats<T> ComputeBlockStatsScalar(std::span<const T> block) {
  return OneBlock(kernels::ScalarOps<T>(), block);
}

template <SupportedFloat T>
BlockStats<T> ComputeBlockStats(std::span<const T> block) {
  return OneBlock(kernels::ActiveOps<T>(), block);
}

#if defined(SZX_HAVE_AVX2)

// Vectorized whole-dataset range with the same NaN/Inf-skipping semantics as
// the scalar loop: non-finite lanes are blended to the accumulators'
// identities (+inf for min, -inf for max) so they never influence the
// result, and any_finite is the OR of the per-lane finite masks.
template <>
GlobalRange<float> ComputeGlobalRange<float>(std::span<const float> data) {
  const std::size_t n = data.size();
  const float* p = data.data();
  const __m256 kAbsMask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 kInf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m256 kNegInf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 vmin = kInf;
  __m256 vmax = kNegInf;
  __m256 any = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // szx-lint: allow(simd-mem) -- unaligned read inside the caller's span; the loop bound keeps i+8 <= n
    const __m256 v = _mm256_loadu_ps(p + i);
    const __m256 fin =
        _mm256_cmp_ps(_mm256_and_ps(v, kAbsMask), kInf, _CMP_LT_OQ);
    any = _mm256_or_ps(any, fin);
    vmin = _mm256_min_ps(vmin, _mm256_blendv_ps(kInf, v, fin));
    vmax = _mm256_max_ps(vmax, _mm256_blendv_ps(kNegInf, v, fin));
  }
  alignas(32) float mins[8], maxs[8];
  // szx-lint: allow(simd-mem) -- lane spill to the aligned stack arrays declared above
  _mm256_store_ps(mins, vmin);
  // szx-lint: allow(simd-mem) -- lane spill to the aligned stack arrays declared above
  _mm256_store_ps(maxs, vmax);
  bool any_finite = _mm256_movemask_ps(any) != 0;
  float smin = std::numeric_limits<float>::infinity();
  float smax = -std::numeric_limits<float>::infinity();
  for (int k = 0; k < 8; ++k) {
    if (mins[k] < smin) smin = mins[k];
    if (maxs[k] > smax) smax = maxs[k];
  }
  for (; i < n; ++i) {
    const float v = p[i];
    if (!std::isfinite(v)) continue;
    any_finite = true;
    if (v < smin) smin = v;
    if (v > smax) smax = v;
  }
  GlobalRange<float> r;
  if (any_finite) {
    r.any_finite = true;
    r.min = smin;
    r.max = smax;
  }
  return r;
}

template <>
GlobalRange<double> ComputeGlobalRange<double>(std::span<const double> data) {
  const std::size_t n = data.size();
  const double* p = data.data();
  const __m256d kAbsMask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d kInf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d kNegInf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d vmin = kInf;
  __m256d vmax = kNegInf;
  __m256d any = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // szx-lint: allow(simd-mem) -- unaligned read inside the caller's span; the loop bound keeps i+4 <= n
    const __m256d v = _mm256_loadu_pd(p + i);
    const __m256d fin =
        _mm256_cmp_pd(_mm256_and_pd(v, kAbsMask), kInf, _CMP_LT_OQ);
    any = _mm256_or_pd(any, fin);
    vmin = _mm256_min_pd(vmin, _mm256_blendv_pd(kInf, v, fin));
    vmax = _mm256_max_pd(vmax, _mm256_blendv_pd(kNegInf, v, fin));
  }
  alignas(32) double mins[4], maxs[4];
  // szx-lint: allow(simd-mem) -- lane spill to the aligned stack arrays declared above
  _mm256_store_pd(mins, vmin);
  // szx-lint: allow(simd-mem) -- lane spill to the aligned stack arrays declared above
  _mm256_store_pd(maxs, vmax);
  bool any_finite = _mm256_movemask_pd(any) != 0;
  double smin = std::numeric_limits<double>::infinity();
  double smax = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < 4; ++k) {
    if (mins[k] < smin) smin = mins[k];
    if (maxs[k] > smax) smax = maxs[k];
  }
  for (; i < n; ++i) {
    const double v = p[i];
    if (!std::isfinite(v)) continue;
    any_finite = true;
    if (v < smin) smin = v;
    if (v > smax) smax = v;
  }
  GlobalRange<double> r;
  if (any_finite) {
    r.any_finite = true;
    r.min = smin;
    r.max = smax;
  }
  return r;
}

#else  // !SZX_HAVE_AVX2

template <SupportedFloat T>
GlobalRange<T> ComputeGlobalRange(std::span<const T> data) {
  return ScanFiniteRange(data.data(), data.size());
}

template GlobalRange<float> ComputeGlobalRange<float>(std::span<const float>);
template GlobalRange<double> ComputeGlobalRange<double>(
    std::span<const double>);

#endif  // SZX_HAVE_AVX2

template BlockStats<float> ComputeBlockStatsScalar<float>(
    std::span<const float>);
template BlockStats<double> ComputeBlockStatsScalar<double>(
    std::span<const double>);
template BlockStats<float> ComputeBlockStats<float>(std::span<const float>);
template BlockStats<double> ComputeBlockStats<double>(
    std::span<const double>);

}  // namespace szx
