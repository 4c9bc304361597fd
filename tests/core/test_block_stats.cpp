// Block statistics: scalar correctness and scalar/SIMD equivalence.
#include "core/block_stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>

#include "../test_util.hpp"
#include "core/kernels/kernels.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::Rng;

// One block through the AVX2 table (the scalar table on builds without it).
template <typename T>
BlockStats<T> Avx2BlockStats(std::span<const T> block) {
  BlockStats<T> s;
  if (!block.empty()) {
    (void)kernels::Avx2Ops<T>().block_stats(block.data(), block.size(),
                                            block.size(), &s);
  }
  return s;
}

template <typename T>
class BlockStatsTypedTest : public ::testing::Test {};
using FloatTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(BlockStatsTypedTest, FloatTypes);

TYPED_TEST(BlockStatsTypedTest, SimpleBlock) {
  using T = TypeParam;
  const std::vector<T> v = {T(1), T(5), T(3), T(2)};
  const auto s = ComputeBlockStatsScalar<T>(v);
  EXPECT_EQ(s.min, T(1));
  EXPECT_EQ(s.max, T(5));
  EXPECT_EQ(s.mu, T(3));
  EXPECT_EQ(s.radius, T(2));
  EXPECT_TRUE(s.all_finite);
}

TYPED_TEST(BlockStatsTypedTest, ConstantBlockHasZeroRadius) {
  using T = TypeParam;
  const std::vector<T> v(64, T(-7.5));
  const auto s = ComputeBlockStatsScalar<T>(v);
  EXPECT_EQ(s.radius, T(0));
  EXPECT_EQ(s.mu, T(-7.5));
}

TYPED_TEST(BlockStatsTypedTest, RadiusBoundsNormalizedValues) {
  using T = TypeParam;
  // Property: for any finite block, |v - mu| <= radius for every v.
  for (auto p : testing::AllPatterns()) {
    const auto v = MakePattern<T>(p, 256, 13);
    const auto s = ComputeBlockStatsScalar<T>(std::span<const T>(v));
    ASSERT_TRUE(s.all_finite) << testing::PatternName(p);
    for (const T x : v) {
      EXPECT_LE(std::abs(static_cast<double>(x) -
                         static_cast<double>(s.mu)),
                static_cast<double>(s.radius) * (1 + 1e-12))
          << testing::PatternName(p);
    }
  }
}

TYPED_TEST(BlockStatsTypedTest, NonFiniteDetected) {
  using T = TypeParam;
  std::vector<T> v(32, T(1));
  v[17] = std::numeric_limits<T>::quiet_NaN();
  EXPECT_FALSE(ComputeBlockStatsScalar<T>(std::span<const T>(v)).all_finite);
  v[17] = std::numeric_limits<T>::infinity();
  EXPECT_FALSE(ComputeBlockStatsScalar<T>(std::span<const T>(v)).all_finite);
  v[17] = -std::numeric_limits<T>::infinity();
  EXPECT_FALSE(ComputeBlockStatsScalar<T>(std::span<const T>(v)).all_finite);
  v[17] = T(2);
  EXPECT_TRUE(ComputeBlockStatsScalar<T>(std::span<const T>(v)).all_finite);
}

TYPED_TEST(BlockStatsTypedTest, ExtremeRangeDoesNotOverflow) {
  using T = TypeParam;
  const std::vector<T> v = {std::numeric_limits<T>::lowest(),
                            std::numeric_limits<T>::max(), T(0)};
  const auto s = ComputeBlockStatsScalar<T>(std::span<const T>(v));
  EXPECT_TRUE(std::isfinite(s.mu));
  EXPECT_TRUE(std::isfinite(s.radius));
}

TYPED_TEST(BlockStatsTypedTest, SimdMatchesScalarOnPatterns) {
  using T = TypeParam;
  for (auto p : testing::AllPatterns()) {
    for (std::size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 64u, 127u,
                          128u, 1000u}) {
      const auto v = MakePattern<T>(p, n, 21);
      const auto a = ComputeBlockStatsScalar<T>(std::span<const T>(v));
      const auto b = Avx2BlockStats<T>(std::span<const T>(v));
      EXPECT_EQ(a.min, b.min) << testing::PatternName(p) << " n=" << n;
      EXPECT_EQ(a.max, b.max) << testing::PatternName(p) << " n=" << n;
      EXPECT_EQ(a.mu, b.mu) << testing::PatternName(p) << " n=" << n;
      EXPECT_EQ(a.radius, b.radius) << testing::PatternName(p) << " n=" << n;
      EXPECT_EQ(a.all_finite, b.all_finite);
    }
  }
}

TYPED_TEST(BlockStatsTypedTest, SimdMatchesScalarWithSpecials) {
  using T = TypeParam;
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<T> v(64);
    for (auto& x : v) x = static_cast<T>(rng.Uniform(-10, 10));
    // Sprinkle specials at random positions.
    const std::size_t pos = rng.Next() % v.size();
    switch (trial % 4) {
      case 0: v[pos] = std::numeric_limits<T>::quiet_NaN(); break;
      case 1: v[pos] = std::numeric_limits<T>::infinity(); break;
      case 2: v[pos] = -std::numeric_limits<T>::infinity(); break;
      case 3: v[pos] = -T(0); break;
    }
    const auto a = ComputeBlockStatsScalar<T>(std::span<const T>(v));
    const auto b = Avx2BlockStats<T>(std::span<const T>(v));
    EXPECT_EQ(a.all_finite, b.all_finite) << trial;
    if (a.all_finite) {
      EXPECT_EQ(a.mu, b.mu);
      EXPECT_EQ(a.radius, b.radius);
    }
  }
}

// Regression: the SIMD path's non-finite fallback must still report the same
// min/max as the scalar path (it rescans min/max only, skipping the mu/radius
// math that NaN would poison).
TYPED_TEST(BlockStatsTypedTest, SimdNonFiniteFallbackKeepsMinMax) {
  using T = TypeParam;
  Rng rng(11);
  for (std::size_t n : {5u, 8u, 9u, 17u, 64u, 111u, 128u}) {
    std::vector<T> v(n);
    for (auto& x : v) x = static_cast<T>(rng.Uniform(-100, 100));
    v[rng.Next() % n] = std::numeric_limits<T>::quiet_NaN();
    if (n > 8) v[rng.Next() % n] = std::numeric_limits<T>::infinity();
    const auto a = ComputeBlockStatsScalar<T>(std::span<const T>(v));
    const auto b = Avx2BlockStats<T>(std::span<const T>(v));
    ASSERT_FALSE(a.all_finite);
    EXPECT_FALSE(b.all_finite) << "n=" << n;
    // Bitwise compare: a NaN at position 0 propagates into min/max in both
    // paths, and NaN != NaN would make a value compare vacuously fail.
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    EXPECT_EQ(std::bit_cast<Bits>(a.min), std::bit_cast<Bits>(b.min)) << "n=" << n;
    EXPECT_EQ(std::bit_cast<Bits>(a.max), std::bit_cast<Bits>(b.max)) << "n=" << n;
  }
}

// The vectorized global-range path must match a plain reference loop for
// every tail length and with non-finite lanes mixed in.
TYPED_TEST(BlockStatsTypedTest, GlobalRangeMatchesReferenceAcrossSizes) {
  using T = TypeParam;
  Rng rng(23);
  for (std::size_t n = 1; n < 70; ++n) {
    std::vector<T> v(n);
    for (auto& x : v) x = static_cast<T>(rng.Uniform(-1000, 1000));
    if (n % 3 == 0) v[rng.Next() % n] = std::numeric_limits<T>::quiet_NaN();
    if (n % 5 == 0) v[rng.Next() % n] = -std::numeric_limits<T>::infinity();
    T ref_min = std::numeric_limits<T>::infinity();
    T ref_max = -std::numeric_limits<T>::infinity();
    bool ref_any = false;
    for (const T x : v) {
      if (!std::isfinite(x)) continue;
      ref_any = true;
      ref_min = std::min(ref_min, x);
      ref_max = std::max(ref_max, x);
    }
    const auto r = ComputeGlobalRange<T>(std::span<const T>(v));
    ASSERT_EQ(r.any_finite, ref_any) << "n=" << n;
    if (!ref_any) continue;
    EXPECT_EQ(r.min, ref_min) << "n=" << n;
    EXPECT_EQ(r.max, ref_max) << "n=" << n;
  }
}

TYPED_TEST(BlockStatsTypedTest, GlobalRangeSkipsNonFinite) {
  using T = TypeParam;
  std::vector<T> v = {T(3), std::numeric_limits<T>::infinity(), T(-2),
                      std::numeric_limits<T>::quiet_NaN(), T(10)};
  const auto r = ComputeGlobalRange<T>(std::span<const T>(v));
  EXPECT_TRUE(r.any_finite);
  EXPECT_EQ(r.min, T(-2));
  EXPECT_EQ(r.max, T(10));
}

TYPED_TEST(BlockStatsTypedTest, GlobalRangeAllNonFinite) {
  using T = TypeParam;
  const std::vector<T> v(4, std::numeric_limits<T>::quiet_NaN());
  EXPECT_FALSE(ComputeGlobalRange<T>(std::span<const T>(v)).any_finite);
  EXPECT_FALSE(ComputeGlobalRange<T>(std::span<const T>()).any_finite);
}

TEST(BlockStats, EmptyBlock) {
  const auto s = ComputeBlockStatsScalar<float>({});
  EXPECT_EQ(s.radius, 0.0f);
  EXPECT_TRUE(s.all_finite);
}

}  // namespace
}  // namespace szx
