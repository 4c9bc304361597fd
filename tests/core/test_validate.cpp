// Stream validation tests: good streams pass (shallow and deep), every
// kind of surgical corruption is caught, and validation never throws.
#include "core/validate.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::Rng;

ByteBuffer GoodStream(double eb = 1e-3) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 20000, 3);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = eb;
  return Compress<float>(data, p);
}

TEST(Validate, AcceptsGoodStreams) {
  const auto stream = GoodStream();
  const auto shallow = ValidateStream<float>(stream, false);
  EXPECT_TRUE(shallow.ok) << shallow.error;
  EXPECT_EQ(shallow.header.num_elements, 20000u);
  const auto deep = ValidateStream<float>(stream, true);
  EXPECT_TRUE(deep.ok) << deep.error;
  EXPECT_EQ(deep.payload_bytes_walked, deep.header.payload_bytes);
}

TEST(Validate, AcceptsAllSolutionsAndRawPassthrough) {
  for (const CommitSolution sol :
       {CommitSolution::kA, CommitSolution::kB, CommitSolution::kC}) {
    const auto data = MakePattern<float>(Pattern::kSmoothSine, 5000, 1);
    Params p;
    p.solution = sol;
    const auto stream = Compress<float>(data, p);
    EXPECT_TRUE(ValidateStream<float>(stream, true).ok);
  }
  // Raw passthrough.
  Rng rng(1);
  std::vector<float> noise(2000);
  for (auto& v : noise) {
    v = std::bit_cast<float>(
        static_cast<std::uint32_t>(rng.Next() & 0x7f7fffffu));
  }
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-30;
  EXPECT_TRUE(ValidateStream<float>(Compress<float>(noise, p), true).ok);
}

TEST(Validate, RejectsTypeMismatch) {
  const auto stream = GoodStream();
  const auto r = ValidateStream<double>(stream, false);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(Validate, RejectsTruncation) {
  const auto stream = GoodStream();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{40}, stream.size() / 2,
        stream.size() - 1}) {
    EXPECT_FALSE(
        ValidateStream<float>(ByteSpan(stream.data(), keep), false).ok)
        << keep;
  }
}

// ValidateStream(deep) advertises itself as a throw-free preflight for
// Decompress, so it must flag every prefix length the decoder throws on --
// not just the coarse sample above.  Checked at every truncation point.
TEST(Validate, DeepRejectsEveryTruncationDecompressThrowsOn) {
  const auto stream = GoodStream();
  for (std::size_t keep = 0; keep < stream.size(); ++keep) {
    const ByteSpan prefix(stream.data(), keep);
    bool decompress_throws = false;
    try {
      (void)Decompress<float>(prefix);
    } catch (const Error&) {
      decompress_throws = true;
    }
    ASSERT_TRUE(decompress_throws) << "prefix of " << keep << " bytes";
    ASSERT_FALSE(ValidateStream<float>(prefix, true).ok)
        << "deep validation accepted a " << keep
        << "-byte prefix Decompress throws on";
  }
}

TEST(Validate, ShallowCatchesStructuralCorruption) {
  auto stream = GoodStream();
  // Flip a type bit: constant/non-constant censuses diverge.
  stream[sizeof(Header)] ^= std::byte{0x01};
  EXPECT_FALSE(ValidateStream<float>(stream, false).ok);
}

TEST(Validate, NeverThrowsOnGarbage) {
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    ByteBuffer junk(rng.Next() % 2048);  // szx-overwrite: filled below
    for (auto& b : junk) {
      b = std::byte{static_cast<std::uint8_t>(rng.Next() & 0xff)};
    }
    EXPECT_NO_THROW({
      const auto r = ValidateStream<float>(junk, true);
      EXPECT_FALSE(r.ok);
    });
  }
}

TEST(Validate, FlipSweepNeverThrows) {
  const auto original = GoodStream();
  Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    ByteBuffer bad = original;
    bad[rng.Next() % bad.size()] ^= std::byte{
        static_cast<std::uint8_t>(1u << (rng.Next() % 8))};
    EXPECT_NO_THROW(ValidateStream<float>(bad, true));
  }
}

}  // namespace
}  // namespace szx
