// ZFP-style baseline end-to-end tests: error bound property across
// dimensionalities, bounds, and data patterns.
#include "zfpref/zfpref.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "core/executor.hpp"
#include "core/integrity.hpp"
#include "data/datasets.hpp"
#include "testkit/generators.hpp"
#include "../test_util.hpp"

namespace szx::zfpref {
namespace {

using szx::testing::MakePattern;
using szx::testing::Pattern;
using szx::testing::WithinBound;

using Case = std::tuple<int /*pattern*/, double /*eb*/>;

class ZfpSweep1D : public ::testing::TestWithParam<Case> {};

TEST_P(ZfpSweep1D, AbsoluteBoundHolds) {
  const auto [pat, eb] = GetParam();
  if (static_cast<Pattern>(pat) == Pattern::kMixedScales) {
    GTEST_SKIP() << "non-smooth extreme-magnitude data is out of scope for "
                    "the transform baseline (as for real ZFP)";
  }
  const auto data = MakePattern<float>(static_cast<Pattern>(pat), 20000, 3);
  ZfpParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = eb;
  const std::size_t dims[] = {data.size()};
  ZfpStats stats;
  const auto stream = ZfpCompress(data, dims, p, &stats);
  const auto out = ZfpDecompress(stream);
  EXPECT_TRUE(WithinBound<float>(data, out, eb));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZfpSweep1D,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 6, 7),
                       ::testing::Values(1e-1, 1e-3, 1e-5)));

TEST(Zfpref, TwoDimensionalRoundTrip) {
  const data::Field f = data::GenerateField(data::App::kCesm, "TS", 0.2);
  ZfpParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  ZfpStats stats;
  const auto stream = ZfpCompress(f.values, f.dims, p, &stats);
  const auto out = ZfpDecompress(stream);
  EXPECT_TRUE(WithinBound<float>(f.span(), out, stats.absolute_bound));
}

TEST(Zfpref, ThreeDimensionalRoundTrip) {
  const data::Field f =
      data::GenerateField(data::App::kMiranda, "density", 0.25);
  ZfpParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  ZfpStats stats;
  const auto stream = ZfpCompress(f.values, f.dims, p, &stats);
  const auto out = ZfpDecompress(stream);
  EXPECT_TRUE(WithinBound<float>(f.span(), out, stats.absolute_bound));
  EXPECT_GT(static_cast<double>(f.size_bytes()) /
                static_cast<double>(stream.size()),
            3.0);
}

TEST(Zfpref, NonMultipleOfFourDims) {
  // Partial blocks with edge replication.
  for (std::size_t nx : {5u, 6u, 7u, 9u, 13u}) {
    std::vector<float> data(nx * 7 * 3);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(i) * 0.01f;
    }
    const std::size_t dims[] = {3, 7, nx};
    ZfpParams p;
    p.mode = ErrorBoundMode::kAbsolute;
    p.error_bound = 1e-3;
    const auto out = ZfpDecompress(ZfpCompress(data, dims, p));
    EXPECT_TRUE(WithinBound<float>(data, out, 1e-3)) << nx;
  }
}

TEST(Zfpref, SparseFieldsProduceEmptyBlocks) {
  const data::Field f = data::GenerateField(data::App::kHurricane, "QSNOW", 0.3);
  ZfpParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  ZfpStats stats;
  ZfpCompress(f.values, f.dims, p, &stats);
  EXPECT_GT(stats.num_empty_blocks, stats.num_blocks / 4);
}

TEST(Zfpref, LooserBoundNeverBigger) {
  const data::Field f =
      data::GenerateField(data::App::kNyx, "temperature", 0.25);
  ZfpParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  std::size_t prev = 0;
  for (double eb : {1e-2, 1e-3, 1e-4}) {
    p.error_bound = eb;
    const auto stream = ZfpCompress(f.values, f.dims, p);
    EXPECT_GE(stream.size(), prev) << eb;
    prev = stream.size();
  }
}

TEST(Zfpref, TransformBeatsSzxOnSmoothData) {
  // The paper's Table 3 ordering: ZFP's CR sits above SZx's on smooth
  // fields thanks to the decorrelating transform.
  const data::Field f =
      data::GenerateField(data::App::kMiranda, "pressure", 0.25);
  ZfpParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  const auto stream = ZfpCompress(f.values, f.dims, p);
  EXPECT_GT(static_cast<double>(f.size_bytes()) /
                static_cast<double>(stream.size()),
            5.0);
}

TEST(Zfpref, EmptyInput) {
  ZfpParams p;
  const std::size_t dims[] = {0};
  const auto out =
      ZfpDecompress(ZfpCompress(std::span<const float>(), dims, p));
  EXPECT_TRUE(out.empty());
}

TEST(Zfpref, BadParamsRejected) {
  const std::vector<float> data(16, 1.0f);
  const std::size_t dims[] = {16};
  ZfpParams p;
  p.error_bound = -1.0;
  EXPECT_THROW(ZfpCompress(data, dims, p), Error);
  const std::size_t bad[] = {15};
  ZfpParams ok;
  EXPECT_THROW(ZfpCompress(data, bad, ok), Error);
}

TEST(Zfpref, TruncatedStreamRejected) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 10000, 3);
  const std::size_t dims[] = {data.size()};
  ZfpParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const auto stream = ZfpCompress(data, dims, p);
  EXPECT_THROW(ZfpDecompress(ByteSpan(stream.data(), stream.size() / 2)),
               Error);
  EXPECT_THROW(ZfpDecompress(ByteSpan(stream.data(), 3)), Error);
}

TEST(ZfprefOmp, ChunkedCompressionRoundTrip) {
  const data::Field f =
      data::GenerateField(data::App::kScaleLetkf, "T", 0.25);
  ZfpParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  ZfpStats stats;
  const auto stream = ZfpCompressOmp(f.values, f.dims, p, &stats, 4);
  const auto out = ZfpDecompress(stream);
  ASSERT_EQ(out.size(), f.size());
  EXPECT_TRUE(WithinBound<float>(f.span(), out, stats.absolute_bound));
}

// The chunk count follows num_threads, so each width has its own stream;
// a digest that moves is a format change.
TEST(ZfprefOmp, StreamsMatchPinnedDigests) {
  const auto data =
      testkit::Generate<float>(testkit::Gen::kWave, 40 * 24 * 32, 1401);
  const std::size_t dims[] = {40, 24, 32};
  ZfpParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const std::pair<int, std::uint64_t> pinned[] = {
      {1, 0xe3fd219d85b85db9ull}, {2, 0xbc353da4ff7b4b0cull},
      {3, 0x6e64492d330767a5ull}, {4, 0x4f13d62291ff8507ull},
      {8, 0x3f9ac5dbf44feee1ull}};
  for (const auto& [threads, digest] : pinned) {
    const ByteBuffer stream = ZfpCompressOmp(data, dims, p, nullptr, threads);
    EXPECT_EQ(Fnv1a64(stream), digest) << threads << " threads";
    EXPECT_TRUE(WithinBound<float>(data, ZfpDecompress(stream), 1e-3))
        << threads << " threads";
  }
}

TEST(ZfprefOmp, PreArmedCancelStopsCompression) {
  const auto data = testkit::Generate<float>(testkit::Gen::kWave, 4096, 7);
  const std::size_t dims[] = {16, 16, 16};
  ZfpParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  exec::CancelToken token;
  token.Cancel();
  const exec::ScopedCancel scope(&token);
  EXPECT_THROW((void)ZfpCompressOmp(data, dims, p, nullptr, 4), Cancelled);
}

}  // namespace
}  // namespace szx::zfpref
