// Lossless LZ baseline: exact round trips, compression on redundant data,
// corruption rejection.
#include "lzref/lzref.hpp"

#include <gtest/gtest.h>

#include <span>

#include "data/datasets.hpp"
#include "../test_util.hpp"

namespace szx::lzref {
namespace {

using szx::testing::MakePattern;
using szx::testing::Pattern;
using szx::testing::Rng;

ByteBuffer ToBytes(const std::string& s) {
  const auto bytes = std::as_bytes(std::span<const char>(s));
  return ByteBuffer(bytes.begin(), bytes.end());
}

TEST(Lzref, EmptyInput) {
  const auto stream = LzCompress({});
  const auto out = LzDecompress(stream);
  EXPECT_TRUE(out.empty());
}

TEST(Lzref, ShortInputsRoundTrip) {
  Rng rng(1);
  for (std::size_t n = 1; n <= 40; ++n) {
    ByteBuffer in(n);  // szx-overwrite: the loop below writes every byte
    for (auto& b : in) {
      b = std::byte{static_cast<std::uint8_t>(rng.Next() & 0xff)};
    }
    EXPECT_EQ(LzDecompress(LzCompress(in)), in) << n;
  }
}

TEST(Lzref, TextRoundTripAndCompression) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "the quick brown fox jumps over the lazy dog; ";
  }
  const ByteBuffer in = ToBytes(text);
  LzStats stats;
  const auto stream = LzCompress(in, &stats);
  EXPECT_LT(stream.size(), in.size() / 5);
  // Fully periodic text collapses into a handful of giant matches.
  EXPECT_GT(stats.num_matches, 0u);
  EXPECT_EQ(LzDecompress(stream), in);
}

TEST(Lzref, RunLengthOverlappingMatches) {
  // A long run compresses via offset-1 overlapping matches.
  ByteBuffer in(100000, std::byte{0x41});
  const auto stream = LzCompress(in);
  EXPECT_LT(stream.size(), 600u);
  EXPECT_EQ(LzDecompress(stream), in);
}

TEST(Lzref, IncompressibleRandomBytesRoundTrip) {
  Rng rng(2);
  ByteBuffer in(200000);  // szx-overwrite: the loop below writes every byte
  for (auto& b : in) {
    b = std::byte{static_cast<std::uint8_t>(rng.Next() & 0xff)};
  }
  const auto stream = LzCompress(in);
  // Bounded expansion.
  EXPECT_LT(stream.size(), in.size() + in.size() / 100 + 256);
  EXPECT_EQ(LzDecompress(stream), in);
}

TEST(Lzref, FloatFieldsRoundTripExactly) {
  for (auto pat : {Pattern::kSmoothSine, Pattern::kUniformNoise,
                   Pattern::kSparseSpikes}) {
    const auto data = MakePattern<float>(pat, 50000, 7);
    const auto stream = LzCompressFloats(data);
    const auto out = LzDecompressFloats(stream);
    ASSERT_EQ(out.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(data[i]),
                std::bit_cast<std::uint32_t>(out[i]));
    }
  }
}

TEST(Lzref, ScientificFloatsGetModestRatio) {
  // The paper's Table 3 bottom row: lossless CR on float fields is only
  // ~1.1-2, far below the lossy compressors.
  const data::Field f =
      data::GenerateField(data::App::kMiranda, "density", 0.25);
  const auto stream = LzCompressFloats(f.values);
  const double cr = static_cast<double>(f.size_bytes()) /
                    static_cast<double>(stream.size());
  EXPECT_GT(cr, 0.95);
  EXPECT_LT(cr, 6.0);
}

TEST(Lzref, SparseFieldCompressesWell) {
  const data::Field f =
      data::GenerateField(data::App::kHurricane, "QSNOW", 0.3);
  const auto stream = LzCompressFloats(f.values);
  const double cr = static_cast<double>(f.size_bytes()) /
                    static_cast<double>(stream.size());
  EXPECT_GT(cr, 2.0);  // zero plateaus LZ-compress
}

TEST(Lzref, ChecksumDetectsCorruption) {
  const auto data = MakePattern<float>(Pattern::kSmoothSine, 10000, 3);
  auto stream = LzCompressFloats(data);
  // Flip a literal byte beyond the header.
  stream[stream.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW(LzDecompress(stream), Error);
}

TEST(Lzref, TruncationRejected) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 10000, 3);
  const auto stream = LzCompressFloats(data);
  EXPECT_THROW(LzDecompress(ByteSpan(stream.data(), stream.size() - 5)),
               Error);
  EXPECT_THROW(LzDecompress(ByteSpan(stream.data(), 4)), Error);
}

TEST(Lzref, BadMagicRejected) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 100, 3);
  auto stream = LzCompressFloats(data);
  stream[0] = std::byte{'X'};
  EXPECT_THROW(LzDecompress(stream), Error);
}

TEST(Lzref, NonFloatSizedStreamRejectedByFloatWrapper) {
  const ByteBuffer in(7, std::byte{1});
  const auto stream = LzCompress(in);
  EXPECT_THROW(LzDecompressFloats(stream), Error);
}

}  // namespace
}  // namespace szx::lzref
