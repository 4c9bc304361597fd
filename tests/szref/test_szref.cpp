// SZ-style baseline: error-bound property sweeps across dimensionalities,
// plus the chunk-parallel variant.
#include "szref/szref.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "core/byte_cursor.hpp"
#include "core/executor.hpp"
#include "core/integrity.hpp"
#include "core/stream.hpp"
#include "data/datasets.hpp"
#include "testkit/generators.hpp"
#include "../test_util.hpp"

namespace szx::szref {
namespace {

using szx::testing::MakePattern;
using szx::testing::Pattern;
using szx::testing::WithinBound;

using Case = std::tuple<int /*pattern*/, double /*eb*/>;

class SzSweep1D : public ::testing::TestWithParam<Case> {};

TEST_P(SzSweep1D, AbsoluteBoundHolds) {
  const auto [pat, eb] = GetParam();
  const auto data =
      MakePattern<float>(static_cast<Pattern>(pat), 20000, 11);
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = eb;
  const std::size_t dims[] = {data.size()};
  SzStats stats;
  const auto stream = SzCompress(data, dims, p, &stats);
  EXPECT_EQ(stats.num_elements, data.size());
  const auto out = SzDecompress(stream);
  EXPECT_TRUE(WithinBound<float>(data, out, eb));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SzSweep1D,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(1e-1, 1e-3, 1e-5)));

TEST(Szref, TwoDimensionalLorenzo) {
  const data::Field f = data::GenerateField(data::App::kCesm, "TS", 0.2);
  SzParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  SzStats stats;
  const auto stream = SzCompress(f.values, f.dims, p, &stats);
  const auto out = SzDecompress(stream);
  EXPECT_TRUE(WithinBound<float>(f.span(), out, stats.absolute_bound));
  EXPECT_GT(static_cast<double>(f.size_bytes()) /
                static_cast<double>(stream.size()),
            4.0);
}

TEST(Szref, ThreeDimensionalLorenzo) {
  const data::Field f =
      data::GenerateField(data::App::kMiranda, "pressure", 0.25);
  SzParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  SzStats stats;
  const auto stream = SzCompress(f.values, f.dims, p, &stats);
  const auto out = SzDecompress(stream);
  EXPECT_TRUE(WithinBound<float>(f.span(), out, stats.absolute_bound));
}

TEST(Szref, HigherDimPredictionBeatsOneD) {
  // The multidimensional Lorenzo predictor is the reason SZ leads Table 3;
  // on a smooth 3-D field it must beat treating the data as 1-D.
  const data::Field f =
      data::GenerateField(data::App::kMiranda, "density", 0.25);
  SzParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  const auto s3 = SzCompress(f.values, f.dims, p);
  const std::size_t flat[] = {f.size()};
  const auto s1 = SzCompress(f.values, flat, p);
  EXPECT_LT(s3.size(), s1.size());
}

TEST(Szref, UnpredictableEscapePath) {
  // Wild data forces escapes; bound must still hold exactly (stored raw).
  auto data = MakePattern<float>(Pattern::kMixedScales, 5000, 17);
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const std::size_t dims[] = {data.size()};
  SzStats stats;
  const auto stream = SzCompress(data, dims, p, &stats);
  EXPECT_GT(stats.num_unpredictable, 0u);
  const auto out = SzDecompress(stream);
  EXPECT_TRUE(WithinBound<float>(data, out, 1e-3));
}

TEST(Szref, NonFiniteValuesEscapeExactly) {
  auto data = MakePattern<float>(Pattern::kSmoothSine, 1000, 3);
  data[17] = std::numeric_limits<float>::quiet_NaN();
  data[500] = std::numeric_limits<float>::infinity();
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-2;
  const std::size_t dims[] = {data.size()};
  const auto out = SzDecompress(SzCompress(data, dims, p));
  EXPECT_TRUE(std::isnan(out[17]));
  EXPECT_EQ(out[500], std::numeric_limits<float>::infinity());
}

TEST(Szref, EmptyAndTinyInputs) {
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  {
    const std::size_t dims[] = {0};
    const auto out =
        SzDecompress(SzCompress(std::span<const float>(), dims, p));
    EXPECT_TRUE(out.empty());
  }
  {
    const std::vector<float> one = {42.0f};
    const std::size_t dims[] = {1};
    const auto out = SzDecompress(SzCompress(one, dims, p));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0], 42.0f, 1e-3);
  }
}

TEST(Szref, BadParamsRejected) {
  const std::vector<float> data(10, 1.0f);
  const std::size_t dims[] = {10};
  SzParams p;
  p.error_bound = 0.0;
  EXPECT_THROW(SzCompress(data, dims, p), Error);
  p.error_bound = 1e-3;
  p.quant_bits = 2;
  EXPECT_THROW(SzCompress(data, dims, p), Error);
  const std::size_t bad_dims[] = {7};
  SzParams ok;
  EXPECT_THROW(SzCompress(data, bad_dims, ok), Error);
}

TEST(Szref, TruncatedStreamRejected) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 10000, 9);
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const std::size_t dims[] = {data.size()};
  const auto stream = SzCompress(data, dims, p);
  EXPECT_THROW(SzDecompress(ByteSpan(stream.data(), stream.size() / 2)),
               Error);
  EXPECT_THROW(SzDecompress(ByteSpan(stream.data(), 10)), Error);
}

TEST(Szref, QuantBitsSweepStillBounded) {
  // Fewer quantization bits force more escapes; the bound must hold at
  // every setting and escapes must grow as bits shrink.
  const auto data = MakePattern<float>(Pattern::kNoisySine, 20000, 5);
  const std::size_t dims[] = {data.size()};
  std::uint64_t prev_unpred = std::numeric_limits<std::uint64_t>::max();
  for (const int qb : {16, 12, 8, 5}) {
    SzParams p;
    p.mode = ErrorBoundMode::kAbsolute;
    p.error_bound = 1e-4;
    p.quant_bits = qb;
    SzStats stats;
    const auto stream = SzCompress(data, dims, p, &stats);
    const auto out = SzDecompress(stream);
    EXPECT_TRUE(WithinBound<float>(data, out, 1e-4)) << qb;
    EXPECT_LE(stats.num_unpredictable, data.size());
    if (qb < 16) {
      EXPECT_GE(stats.num_unpredictable, 0u);
    }
    prev_unpred = stats.num_unpredictable;
  }
  (void)prev_unpred;
}

TEST(SzrefOmp, ChunkedRoundTrip) {
  const data::Field f =
      data::GenerateField(data::App::kNyx, "temperature", 0.3);
  SzParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  SzStats stats;
  const auto stream = SzCompressOmp(f.values, f.dims, p, &stats, 4);
  const auto out = SzDecompressOmp(stream, 4);
  ASSERT_EQ(out.size(), f.size());
  EXPECT_TRUE(WithinBound<float>(f.span(), out, stats.absolute_bound));
  EXPECT_EQ(SzElementCount(stream), f.size());
}

TEST(SzrefOmp, SingleChunkMatchesSerialBound) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 8192, 5);
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-4;
  const std::size_t dims[] = {data.size()};
  const auto stream = SzCompressOmp(data, dims, p, nullptr, 1);
  const auto out = SzDecompressOmp(stream);
  EXPECT_TRUE(WithinBound<float>(data, out, 1e-4));
}

// The chunk count follows num_threads, so each width has its own stream;
// a digest that moves is a format change.
TEST(SzrefOmp, StreamsMatchPinnedDigests) {
  const auto data =
      testkit::Generate<float>(testkit::Gen::kWave, 40 * 24 * 32, 1401);
  const std::size_t dims[] = {40, 24, 32};
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const std::pair<int, std::uint64_t> pinned[] = {
      {1, 0x6c553e80200d36b7ull}, {2, 0x03d94fcdbf26a67dull},
      {3, 0x9c6908492f0a41a0ull}, {4, 0x0456b299bb679ee1ull},
      {8, 0xd5a4f363006146c5ull}};
  for (const auto& [threads, digest] : pinned) {
    const ByteBuffer stream = SzCompressOmp(data, dims, p, nullptr, threads);
    EXPECT_EQ(Fnv1a64(stream), digest) << threads << " threads";
    EXPECT_TRUE(
        WithinBound<float>(data, SzDecompressOmp(stream, threads), 1e-3))
        << threads << " threads";
  }
}

TEST(SzrefOmp, PreArmedCancelStopsBothDirections) {
  const auto data = testkit::Generate<float>(testkit::Gen::kWave, 4096, 7);
  const std::size_t dims[] = {16, 16, 16};
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const ByteBuffer stream = SzCompressOmp(data, dims, p, nullptr, 4);
  exec::CancelToken token;
  token.Cancel();
  const exec::ScopedCancel scope(&token);
  EXPECT_THROW((void)SzCompressOmp(data, dims, p, nullptr, 4), Cancelled);
  EXPECT_THROW((void)SzDecompressOmp(stream, 4), Cancelled);
}

TEST(SzrefOmp, CorruptChunkThrowsAtEveryWidth) {
  const auto data = testkit::Generate<float>(testkit::Gen::kWave, 8192, 9);
  const std::size_t dims[] = {32, 16, 16};
  SzParams p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const ByteBuffer stream = SzCompressOmp(data, dims, p, nullptr, 4);
  // SZRM layout: magic, u32 chunk count, one u64 size per chunk, then the
  // chunks.  Forge a negative eb_abs (offset 16 of the SZR1 header) in
  // chunk 1; the element counts still parse, so only that chunk's decode
  // task fails.
  ByteCursor r(stream);
  (void)r.Slice(4);
  const auto chunks = r.Read<std::uint32_t>();
  ASSERT_EQ(chunks, 4u);
  const auto chunk0_bytes = r.Read<std::uint64_t>();
  const auto at = static_cast<std::ptrdiff_t>(8 + 8 * chunks + chunk0_bytes + 16);
  ByteBuffer bad(stream.begin(), stream.begin() + at);
  ByteWriter(bad).Write(-1.0);
  bad.insert(bad.end(), stream.begin() + at + 8, stream.end());
  for (const int threads : {1, 4}) {
    EXPECT_THROW((void)SzDecompressOmp(bad, threads), Error)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace szx::szref
