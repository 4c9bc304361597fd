// Random-access decompression: every sub-range must agree exactly with the
// corresponding slice of a full decompression.
#include "core/random_access.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/format.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::Rng;

class RangeSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RangeSweep, MatchesFullDecompressionSlice) {
  const auto [pat, sol] = GetParam();
  const auto data = MakePattern<float>(static_cast<Pattern>(pat), 30000, 7);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  p.solution = static_cast<CommitSolution>(sol);
  const auto stream = Compress<float>(data, p);
  const auto full = Decompress<float>(stream);

  Rng rng(55);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t first = rng.Next() % data.size();
    const std::uint64_t count =
        std::min<std::uint64_t>(1 + rng.Next() % 4000, data.size() - first);
    const auto range = DecompressRange<float>(stream, first, count);
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(range[i], full[first + i])
          << "first=" << first << " count=" << count << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RangeSweep,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Values(0, 1, 2)));

TEST(RandomAccess, ExactBlockBoundaries) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 10000, 3);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  p.block_size = 64;
  const auto stream = Compress<float>(data, p);
  const auto full = Decompress<float>(stream);
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {0, 64}, {64, 64}, {64, 128}, {9984, 16} /*ragged*/, {0, 10000}};
  for (const auto& [first, count] : cases) {
    const auto range = DecompressRange<float>(stream, first, count);
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(range[i], full[first + i]);
    }
  }
}

TEST(RandomAccess, SingleElements) {
  const auto data = MakePattern<float>(Pattern::kSparseSpikes, 5000, 9);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-4;
  const auto stream = Compress<float>(data, p);
  const auto full = Decompress<float>(stream);
  for (const std::uint64_t i : {0ull, 1ull, 127ull, 128ull, 4999ull}) {
    const auto one = DecompressRange<float>(stream, i, 1);
    ASSERT_EQ(one[0], full[i]) << i;
  }
}

TEST(RandomAccess, EmptyRange) {
  const auto data = MakePattern<float>(Pattern::kRamp, 1000, 1);
  Params p;
  const auto stream = Compress<float>(data, p);
  EXPECT_TRUE(DecompressRange<float>(stream, 500, 0).empty());
}

TEST(RandomAccess, OutOfBoundsRejected) {
  const auto data = MakePattern<float>(Pattern::kRamp, 1000, 1);
  Params p;
  const auto stream = Compress<float>(data, p);
  EXPECT_THROW(DecompressRange<float>(stream, 990, 20), Error);
  EXPECT_THROW(DecompressRange<float>(stream, 1001, 1), Error);
  EXPECT_NO_THROW(DecompressRange<float>(stream, 1000, 0));
}

TEST(RandomAccess, RangeEndWrappingPastElementCountRejected) {
  // Forged request whose first + count wraps past UINT64_MAX: unchecked
  // addition would come out small, pass the num_elements comparison, and
  // index blocks far outside the stream.  CheckedAdd must refuse before
  // any allocation or block arithmetic.
  const auto data = MakePattern<float>(Pattern::kRamp, 1000, 1);
  Params p;
  const auto stream = Compress<float>(data, p);
  EXPECT_THROW(DecompressRange<float>(stream, UINT64_MAX - 2, 4), Error);
  EXPECT_THROW(DecompressRange<float>(stream, 4, UINT64_MAX - 2), Error);
  std::vector<float> out(4);
  EXPECT_THROW(DecompressRangeInto<float>(stream, UINT64_MAX - 2,
                                          std::span<float>(out)),
               Error);
}

TEST(RandomAccess, RawPassthroughStreams) {
  Rng rng(17);
  std::vector<float> data(5000);
  for (auto& v : data) {
    v = std::bit_cast<float>(
        static_cast<std::uint32_t>(rng.Next() & 0x7f7fffffu));
  }
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-30;  // forces raw passthrough
  const auto stream = Compress<float>(data, p);
  const auto range = DecompressRange<float>(stream, 1234, 777);
  for (std::size_t i = 0; i < 777; ++i) {
    ASSERT_EQ(range[i], data[1234 + i]);
  }
}

TEST(RandomAccess, CorruptIndexRejected) {
  // A forged type bit or zsize must be refused wherever it sits: before the
  // range it would shift every section base the range reads, and inside it
  // would decode a block from the wrong bytes.
  const auto data = MakePattern<float>(Pattern::kNoisySine, 10000, 4);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const ByteBuffer clean = Compress<float>(data, p);
  const Sections<float> s = ParseSections<float>(clean);
  const std::uint64_t first = 5000;
  const std::uint64_t count = 1000;
  const std::size_t type_off =
      static_cast<std::size_t>(s.type_bits.data() - clean.data());
  const std::size_t zsize_off =
      static_cast<std::size_t>(s.ncb_zsize.data() - clean.data());
  ASSERT_NO_THROW(DecompressRange<float>(clean, first, count));
  const std::uint64_t inside = first / s.header.block_size + 1;
  for (const std::uint64_t block : {std::uint64_t{2}, inside}) {
    ASSERT_TRUE(IsNonConstant(s.type_bits, block));
    ByteBuffer forged = clean;
    forged[type_off + block / 8] ^=
        std::byte{static_cast<std::uint8_t>(1u << (block % 8))};
    EXPECT_THROW(DecompressRange<float>(forged, first, count), Error)
        << "type bit of block " << block;

    std::uint64_t ncb = 0;  // the block's index in the zsize section
    for (std::uint64_t k = 0; k < block; ++k) {
      ncb += IsNonConstant(s.type_bits, k) ? 1 : 0;
    }
    forged = clean;
    forged[zsize_off + 2 * ncb] ^= std::byte{1};  // low byte: zsize +/- 1
    EXPECT_THROW(DecompressRange<float>(forged, first, count), Error)
        << "zsize of block " << block;
  }
}

TEST(RandomAccess, DoubleType) {
  const auto data = MakePattern<double>(Pattern::kSmoothSine, 20000, 5);
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-5;
  const auto stream = Compress<double>(data, p);
  const auto full = Decompress<double>(stream);
  const auto range = DecompressRange<double>(stream, 7777, 3333);
  for (std::size_t i = 0; i < 3333; ++i) {
    ASSERT_EQ(range[i], full[7777 + i]);
  }
}

}  // namespace
}  // namespace szx
