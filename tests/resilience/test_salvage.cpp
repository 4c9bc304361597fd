// Salvage decoder: clean streams, targeted section/chunk damage, graceful
// degradation tiers, and serial-vs-parallel determinism.
#include "resilience/salvage.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "core/compressor.hpp"
#include "core/executor.hpp"
#include "../test_util.hpp"

namespace szx::resilience {
namespace {

using szx::testing::MakePattern;
using szx::testing::Pattern;

template <typename T>
struct Fixture {
  std::vector<T> original;
  std::vector<T> clean_decode;
  ByteBuffer v2;
  Header header;

  explicit Fixture(std::size_t n = 64 * 64 * 8) {
    Params p;
    p.mode = ErrorBoundMode::kAbsolute;
    p.error_bound = 1e-3;
    p.block_size = 64;
    p.integrity = true;
    original = MakePattern<T>(Pattern::kNoisySine, n);
    v2 = Compress<T>(original, p);
    clean_decode = Decompress<T>(v2);
    header = ParseHeader(v2);
  }
};

TEST(Salvage, CleanV2StreamIsCleanAndBitExact) {
  Fixture<float> f;
  const auto res = SalvageDecode<float>(f.v2);
  ASSERT_TRUE(res.report.usable);
  EXPECT_TRUE(res.report.clean);
  EXPECT_TRUE(res.report.has_footer);
  EXPECT_EQ(res.report.footer, Verdict::kOk);
  EXPECT_TRUE(res.report.AllTablesVerify());
  EXPECT_EQ(res.data, f.clean_decode);
  EXPECT_EQ(res.report.blocks_recovered, f.header.num_blocks);
  EXPECT_EQ(res.report.blocks_mu_filled, 0u);
  EXPECT_EQ(res.report.blocks_lost, 0u);
  EXPECT_TRUE(res.report.damaged_blocks.empty());
  EXPECT_TRUE(res.report.damaged_bytes.empty());
  ASSERT_FALSE(res.report.chunks.empty());
  for (const auto& c : res.report.chunks) {
    EXPECT_EQ(c.verdict, Verdict::kOk);
    EXPECT_EQ(c.fill, ChunkFill::kDecoded);
  }
}

TEST(Salvage, CorruptPayloadChunkIsMuFilledOthersBitExact) {
  Fixture<float> f;
  ByteBuffer damaged = f.v2;
  // Flip a byte deep in the payload (well past the metadata tables).
  const std::size_t pos = damaged.size() - 2000;
  damaged[pos] ^= std::byte{0x04};

  const auto res = SalvageDecode<float>(damaged);
  ASSERT_TRUE(res.report.usable);
  EXPECT_FALSE(res.report.clean);
  EXPECT_TRUE(res.report.AllTablesVerify());
  EXPECT_GT(res.report.blocks_mu_filled, 0u);
  EXPECT_EQ(res.report.blocks_recovered + res.report.blocks_mu_filled +
                res.report.blocks_lost,
            f.header.num_blocks);
  ASSERT_EQ(res.data.size(), f.clean_decode.size());
  const std::uint32_t bs = f.header.block_size;
  for (std::size_t i = 0; i < res.data.size(); ++i) {
    if (!res.report.BlockDamaged(i / bs)) {
      ASSERT_EQ(res.data[i], f.clean_decode[i]) << "element " << i;
    }
  }
  // Exactly one chunk is quarantined, and it is mu-filled (tables intact).
  std::size_t bad = 0;
  for (const auto& c : res.report.chunks) {
    if (c.fill == ChunkFill::kMuFill) ++bad;
    EXPECT_NE(c.fill, ChunkFill::kSentinel);
  }
  EXPECT_EQ(bad, 1u);
  EXPECT_FALSE(res.report.damaged_bytes.empty());
}

/// Byte offset of the ncb_mu section (whose damage defeats mu-fill).
template <typename T>
std::size_t NcbMuOffset(const Header& h) {
  const std::size_t type_len = (h.num_blocks + 7) / 8;
  const std::size_t nnc = h.num_blocks - h.num_constant;
  return sizeof(Header) + type_len + h.num_constant * sizeof(T) + nnc;
}

TEST(Salvage, CorruptMuTableDegradesToSentinel) {
  Fixture<float> f;
  ByteBuffer damaged = f.v2;
  damaged[NcbMuOffset<float>(f.header) + 5] ^= std::byte{0x80};

  const auto res = SalvageDecode<float>(damaged);
  ASSERT_TRUE(res.report.usable);
  EXPECT_FALSE(res.report.clean);
  EXPECT_EQ(res.report.ncb_mu, Verdict::kCorrupt);
  EXPECT_EQ(res.report.blocks_recovered, 0u);
  EXPECT_EQ(res.report.blocks_lost, f.header.num_blocks);
  for (const float v : res.data) {
    EXPECT_TRUE(std::isnan(v));
  }
}

TEST(Salvage, CustomSentinelValueIsUsed) {
  Fixture<float> f;
  ByteBuffer damaged = f.v2;
  damaged[NcbMuOffset<float>(f.header) + 5] ^= std::byte{0x80};

  SalvageOptions opt;
  opt.sentinel = -777.0;
  const auto res = SalvageDecode<float>(damaged, opt);
  ASSERT_TRUE(res.report.usable);
  for (const float v : res.data) {
    EXPECT_EQ(v, -777.0f);
  }
}

TEST(Salvage, TruncatedV2FallsBackAndRecoversPrefix) {
  Fixture<float> f;
  // Drop the footer and the last quarter of the payload.
  ByteBuffer damaged(f.v2.begin(),
                     f.v2.begin() + static_cast<std::ptrdiff_t>(
                                        f.v2.size() - f.v2.size() / 4));
  const auto res = SalvageDecode<float>(damaged);
  ASSERT_TRUE(res.report.usable);
  EXPECT_FALSE(res.report.has_footer);
  EXPECT_FALSE(res.report.clean);
  ASSERT_EQ(res.data.size(), f.clean_decode.size());
  EXPECT_GT(res.report.blocks_recovered, 0u);
  // Truncation removes bytes but never alters surviving ones, so every
  // block not reported damaged must decode bit-exactly.
  const std::uint32_t bs = f.header.block_size;
  for (std::size_t i = 0; i < res.data.size(); ++i) {
    if (!res.report.BlockDamaged(i / bs)) {
      ASSERT_EQ(res.data[i], f.clean_decode[i]) << "element " << i;
    }
  }
  EXPECT_FALSE(res.report.damaged_blocks.empty());
}

TEST(Salvage, V1StreamSalvagesUnverified) {
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  p.block_size = 64;
  const auto data = MakePattern<double>(Pattern::kSmoothSine, 10000);
  const ByteBuffer v1 = Compress<double>(data, p);

  const auto res = SalvageDecode<double>(v1);
  ASSERT_TRUE(res.report.usable);
  EXPECT_FALSE(res.report.has_footer);
  EXPECT_FALSE(res.report.clean);  // nothing can be verified on v1
  EXPECT_EQ(res.report.header, Verdict::kUnverified);
  EXPECT_EQ(res.data, Decompress<double>(v1));
  EXPECT_TRUE(res.report.damaged_blocks.empty());
}

TEST(Salvage, GarbageStreamIsUnusableNotThrowing) {
  ByteBuffer junk(300, std::byte{0x5a});
  const auto res = SalvageDecode<float>(junk);
  EXPECT_FALSE(res.report.usable);
  EXPECT_FALSE(res.report.error.empty());
  EXPECT_TRUE(res.data.empty());
}

TEST(Salvage, HeaderDamageUnderFooterIsFatal) {
  Fixture<float> f;
  ByteBuffer damaged = f.v2;
  damaged[40] ^= std::byte{0x01};  // inside the header's u64 fields
  const auto res = SalvageDecode<float>(damaged);
  EXPECT_FALSE(res.report.usable);
  EXPECT_EQ(res.report.header, Verdict::kCorrupt);
  EXPECT_TRUE(res.data.empty());
}

TEST(Salvage, TypeMismatchRejected) {
  Fixture<float> f;
  const auto res = SalvageDecode<double>(f.v2);
  EXPECT_FALSE(res.report.usable);
  EXPECT_FALSE(res.report.error.empty());
}

TEST(Salvage, VerifyMatchesSalvageReport) {
  Fixture<float> f;
  ByteBuffer damaged = f.v2;
  damaged[damaged.size() - 2000] ^= std::byte{0x04};

  const auto salvaged = SalvageDecode<float>(damaged);
  const DamageReport verify = VerifyIntegrity<float>(damaged);
  EXPECT_EQ(verify.ToJson(), salvaged.report.ToJson());
}

TEST(Salvage, SerialAndParallelSalvageIdentical) {
  Fixture<float> f;
  ByteBuffer damaged = f.v2;
  damaged[damaged.size() - 2000] ^= std::byte{0x04};
  damaged[damaged.size() - 6000] ^= std::byte{0x20};

  const auto ref = SalvageDecode<float>(damaged);  // num_threads = 1
  for (const int threads : {0, 2, 4, 8}) {
    SalvageOptions opt;
    opt.num_threads = threads;
    const auto par = SalvageDecode<float>(damaged, opt);
    ASSERT_EQ(par.report.ToJson(), ref.report.ToJson())
        << "threads=" << threads;
    // NaN sentinels compare unequal, so compare bit patterns.
    ASSERT_EQ(par.data.size(), ref.data.size());
    for (std::size_t i = 0; i < ref.data.size(); ++i) {
      const bool both_nan =
          std::isnan(par.data[i]) && std::isnan(ref.data[i]);
      ASSERT_TRUE(both_nan || par.data[i] == ref.data[i])
          << "threads=" << threads << " element " << i;
    }
  }
}

// Salvage decodes its chunks on exec::ParallelFor at every width, so an
// installed cancel token stops it at width 1 as well.
TEST(Salvage, PreArmedCancelStopsSalvageAtBothWidths) {
  Fixture<float> f;
  exec::CancelToken token;
  token.Cancel();
  const exec::ScopedCancel scope(&token);
  for (const int w : {1, 4}) {
    SalvageOptions opt;
    opt.num_threads = w;
    EXPECT_THROW((void)SalvageDecode<float>(f.v2, opt), Cancelled)
        << "threads=" << w;
  }
}

TEST(Salvage, RawPassthroughChunkDamageIsDetected) {
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-12;  // force raw passthrough on noise
  p.block_size = 64;
  p.integrity = true;
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 2000);
  const ByteBuffer v2 = Compress<float>(data, p);
  ASSERT_NE(ParseHeader(v2).flags & kFlagRawPassthrough, 0);

  // Clean: bit-exact.
  const auto clean = SalvageDecode<float>(v2);
  ASSERT_TRUE(clean.report.clean);
  EXPECT_EQ(clean.data, data);

  // One flipped payload byte: the single chunk is quarantined.
  ByteBuffer damaged = v2;
  damaged[sizeof(Header) + 123] ^= std::byte{0x08};
  const auto res = SalvageDecode<float>(damaged);
  ASSERT_TRUE(res.report.usable);
  EXPECT_FALSE(res.report.clean);
  ASSERT_EQ(res.report.chunks.size(), 1u);
  EXPECT_EQ(res.report.chunks[0].verdict, Verdict::kCorrupt);
  EXPECT_EQ(res.report.chunks[0].fill, ChunkFill::kSentinel);
  for (const float v : res.data) EXPECT_TRUE(std::isnan(v));
}

TEST(Salvage, ReportJsonHasStableShape) {
  Fixture<float> f;
  const auto res = SalvageDecode<float>(f.v2);
  const std::string json = res.report.ToJson();
  EXPECT_NE(json.find("\"usable\":true"), std::string::npos);
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(json.find("\"verdicts\""), std::string::npos);
  EXPECT_NE(json.find("\"chunks\""), std::string::npos);
  EXPECT_NE(json.find("\"damaged_blocks\":[]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace szx::resilience
