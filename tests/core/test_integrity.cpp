// Format v2 integrity footer: v1/v2 twin relation, footer discovery, and
// encoder byte-identity (serial / chunk-parallel / cusim all append the same footer).
// Also the FNV-1a and XXH64 known-answer vectors, and the multi-span XXH64
// (Xxh64Stream) against the one-buffer Xxh64.
#include "core/integrity.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string_view>
#include <vector>

#include "core/compressor.hpp"
#include "core/omp_codec.hpp"
#include "cusim/cusim_codec.hpp"
#include "testkit/rng.hpp"
#include "../test_util.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;

template <typename T>
Params BaseParams() {
  Params p;
  p.error_bound = 1e-3;
  p.mode = ErrorBoundMode::kAbsolute;
  p.block_size = 64;
  return p;
}

TEST(Integrity, V2IsV1PlusPatchedBytesAndFooter) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 5000);
  Params p = BaseParams<float>();
  const ByteBuffer v1 = Compress<float>(data, p);
  p.integrity = true;
  const ByteBuffer v2 = Compress<float>(data, p);

  const Header h1 = ParseHeader(v1);
  const std::uint32_t chunks = IntegrityChunkCount(h1);
  ASSERT_EQ(v2.size(), v1.size() + IntegrityFooterBytes(chunks));
  for (std::size_t i = 0; i < v1.size(); ++i) {
    if (i == 4 || i == 8) continue;  // version byte, flags byte
    ASSERT_EQ(v1[i], v2[i]) << "body byte " << i << " differs";
  }
  EXPECT_EQ(std::to_integer<int>(v2[4]), kFormatVersionIntegrity);
  EXPECT_EQ(std::to_integer<int>(v2[8]) & kFlagIntegrity, kFlagIntegrity);

  const Header h2 = ParseHeader(v2);
  EXPECT_EQ(h2.version, kFormatVersionIntegrity);
  EXPECT_EQ(h2.flags & kFlagIntegrity, kFlagIntegrity);
}

TEST(Integrity, FindFooterOnV2AndNotOnV1) {
  const auto data = MakePattern<double>(Pattern::kSmoothSine, 3000);
  Params p = BaseParams<double>();
  const ByteBuffer v1 = Compress<double>(data, p);
  p.integrity = true;
  const ByteBuffer v2 = Compress<double>(data, p);

  EXPECT_FALSE(FindIntegrityFooter(v1).has_value());
  const auto fv = FindIntegrityFooter(v2);
  ASSERT_TRUE(fv.has_value());
  EXPECT_EQ(fv->chunk_count, IntegrityChunkCount(ParseHeader(v2)));
  EXPECT_EQ(fv->footer_offset, v1.size());
  EXPECT_EQ(fv->header_fnv,
            Fnv1a64(ByteSpan(v2).first(sizeof(Header))));

  // Any truncation of the tail makes the footer undiscoverable (it is
  // located from the end), and a flipped tail byte fails its checksum.
  ByteBuffer cut(v2.begin(), v2.end() - 1);
  EXPECT_FALSE(FindIntegrityFooter(cut).has_value());
  ByteBuffer flipped = v2;
  flipped[flipped.size() - 20] ^= std::byte{0x40};
  EXPECT_FALSE(FindIntegrityFooter(flipped).has_value());
}

TEST(Integrity, V2RoundTripsThroughAllDecoders) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 4096);
  Params p = BaseParams<float>();
  const ByteBuffer v1 = Compress<float>(data, p);
  p.integrity = true;
  const ByteBuffer v2 = Compress<float>(data, p);

  const auto serial = Decompress<float>(v2);
  const auto ref = Decompress<float>(v1);
  ASSERT_EQ(serial, ref);
  EXPECT_EQ(DecompressOmp<float>(v2, 4), ref);
  EXPECT_EQ(cusim::DecompressCuda<float>(v2), ref);
}

TEST(Integrity, EncodersProduceIdenticalV2Streams) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 10000);
  Params p = BaseParams<float>();
  p.integrity = true;
  const ByteBuffer serial = Compress<float>(data, p);
  const ByteBuffer omp = CompressOmp<float>(data, p, nullptr, 4);
  const ByteBuffer cu = cusim::CompressCuda<float>(data, p);
  EXPECT_EQ(serial, omp);
  EXPECT_EQ(serial, cu);
}

TEST(Integrity, RawPassthroughGetsSingleChunkFooter) {
  // Incompressible noise under a tiny bound forces raw passthrough.
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 2000);
  Params p = BaseParams<float>();
  p.error_bound = 1e-12;
  p.integrity = true;
  const ByteBuffer v2 = Compress<float>(data, p);
  const Header h = ParseHeader(v2);
  ASSERT_NE(h.flags & kFlagRawPassthrough, 0);
  const auto fv = FindIntegrityFooter(v2);
  ASSERT_TRUE(fv.has_value());
  EXPECT_EQ(fv->chunk_count, 1u);
  EXPECT_EQ(Decompress<float>(v2), data);
}

TEST(Integrity, EmptyInputV2RoundTrips) {
  Params p = BaseParams<double>();
  p.integrity = true;
  const ByteBuffer v2 = Compress<double>(std::span<const double>{}, p);
  ASSERT_TRUE(FindIntegrityFooter(v2).has_value());
  EXPECT_TRUE(Decompress<double>(v2).empty());
}

TEST(Integrity, ParseHeaderRejectsInconsistentVersionFlag) {
  const auto data = MakePattern<float>(Pattern::kRamp, 1000);
  Params p = BaseParams<float>();
  const ByteBuffer v1 = Compress<float>(data, p);

  // v2 version byte without the integrity flag.
  ByteBuffer forged = v1;
  forged[4] = std::byte{kFormatVersionIntegrity};
  EXPECT_THROW(ParseHeader(forged), Error);

  // v1 version byte with the integrity flag set.
  forged = v1;
  forged[8] |= std::byte{kFlagIntegrity};
  EXPECT_THROW(ParseHeader(forged), Error);

  // Unknown flag bits are rejected outright.
  forged = v1;
  forged[8] |= std::byte{0x80};
  EXPECT_THROW(ParseHeader(forged), Error);
}

TEST(Integrity, ChunkCountScalesAndIsBounded) {
  Header h{};
  h.block_size = 64;
  h.num_elements = 0;
  h.num_blocks = 0;
  EXPECT_EQ(IntegrityChunkCount(h), 1u);
  h.num_elements = 64 * 640;
  h.num_blocks = 640;
  EXPECT_EQ(IntegrityChunkCount(h), 10u);
  h.num_elements = 64 * 100;
  h.num_blocks = 100;
  EXPECT_EQ(IntegrityChunkCount(h), 1u);
}

ByteSpan BytesOf(std::string_view text) {
  return std::as_bytes(std::span(text.data(), text.size()));
}

// Published FNV-1a 64 vectors: the offset basis for empty input, then "a"
// and "foobar".  FNV-1a guards every persistent format.
TEST(Fnv1a64, KnownProperties) {
  EXPECT_EQ(Fnv1a64({}), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64(BytesOf("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64(BytesOf("foobar")), 0x85944171f73967e8ull);
  ByteBuffer a(4, std::byte{1});
  ByteBuffer b(4, std::byte{2});
  EXPECT_NE(Fnv1a64(a), Fnv1a64(b));
  EXPECT_EQ(Fnv1a64(a), Fnv1a64(a));
}

// Reference values of the xxHash specification (XXH64, seed 0).  The 39-byte
// string covers one stripe plus the 8-, 4- and 1-byte tails.
TEST(Xxh64, MatchesReferenceVectors) {
  EXPECT_EQ(Xxh64(BytesOf("")), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64(BytesOf("a")), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Xxh64(BytesOf("abc")), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(Xxh64(BytesOf("Nobody inspects the spammish repetition")),
            0xfbcea83c8a378bf1ull);
  ByteBuffer ramp(1000);  // szx-overwrite: the loop below writes every byte
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::byte>(i & 0xff);
  }
  EXPECT_EQ(Xxh64(ramp), 0x6ef436b00eba4078ull);
}

// Seeded bytes, so a failing split replays exactly.
std::vector<std::byte> SeededBytes(std::size_t n, std::uint64_t seed) {
  testkit::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.Next() & 0xFF);
  return out;
}

std::uint64_t StreamHash(ByteSpan data, std::span<const std::size_t> cuts) {
  Xxh64Stream s;
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    s.Update(data.subspan(at, cut - at));
    at = cut;
  }
  s.Update(data.subspan(at));
  return s.Digest();
}

TEST(Xxh64Stream, EverySplitOfShortInputsMatchesOneBuffer) {
  // Lengths 0..100 straddle the 32-byte stripe and the 8/4/1-byte tails;
  // every split point of each, plus an empty Update at both ends.
  const std::vector<std::byte> bytes = SeededBytes(100, 7);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const ByteSpan data = ByteSpan(bytes).first(len);
    const std::uint64_t want = Xxh64(data);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      const std::size_t cuts[] = {0, cut, cut, len};
      EXPECT_EQ(StreamHash(data, cuts), want) << "len " << len << " cut "
                                              << cut;
    }
  }
}

TEST(Xxh64Stream, ByteAtATimeMatchesOneBuffer) {
  const std::vector<std::byte> bytes = SeededBytes(100, 11);
  Xxh64Stream s;
  for (const std::byte b : bytes) s.Update(ByteSpan(&b, 1));
  EXPECT_EQ(s.Digest(), Xxh64(bytes));
}

TEST(Xxh64Stream, MegabyteCutAcrossStripesMatchesOneBuffer) {
  const std::vector<std::byte> bytes = SeededBytes(std::size_t{1} << 20, 42);
  const ByteSpan data(bytes);
  const std::uint64_t want = Xxh64(data);
  // Cuts land inside a stripe, on a stripe edge, one byte either side of
  // one, and leave a short middle part -- several at once.
  const std::size_t cuts[] = {1,      31,     32,     33,     4096 + 7,
                              4096 + 8, 65535, 524288 + 3, 1000000};
  EXPECT_EQ(StreamHash(data, cuts), want);
  for (const std::size_t cut : cuts) {
    const std::size_t one[] = {cut};
    EXPECT_EQ(StreamHash(data, one), want) << "cut " << cut;
  }
}

}  // namespace
}  // namespace szx
