// Unit coverage for szx::core::ByteCursor, the bounds-checked decode cursor
// every codec parses untrusted streams through (docs/static-analysis.md).
// The tests pin down the exact failure behavior: which calls throw, what the
// cursor state is afterwards, and how the plausibility cap in CheckedAlloc
// interacts with the remaining-byte count.

#include "core/byte_cursor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace szx {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

ByteBuffer MakeBytes(std::size_t n) {
  ByteBuffer buf(n);  // szx-overwrite: the loop below writes every byte
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<std::byte>(i & 0xff);
  }
  return buf;
}

TEST(ByteCursor, ReadAdvancesAndDecodesLittleEndian) {
  const ByteBuffer buf = MakeBytes(8);
  ByteCursor c{ByteSpan(buf)};
  EXPECT_EQ(c.Read<std::uint8_t>(), 0x00u);
  EXPECT_EQ(c.Read<std::uint16_t>(), 0x0201u);
  EXPECT_EQ(c.Read<std::uint32_t>(), 0x06050403u);
  EXPECT_EQ(c.position(), 7u);
  EXPECT_EQ(c.remaining(), 1u);
  EXPECT_FALSE(c.AtEnd());
  EXPECT_EQ(c.Read<std::uint8_t>(), 0x07u);
  EXPECT_TRUE(c.AtEnd());
}

TEST(ByteCursor, ReadPastEndThrowsAtEveryWidth) {
  const ByteBuffer buf = MakeBytes(3);
  ByteCursor c{ByteSpan(buf)};
  EXPECT_THROW((void)c.Read<std::uint32_t>(), Error);
  EXPECT_THROW((void)c.Read<std::uint64_t>(), Error);
  // A failed read must not move the cursor.
  EXPECT_EQ(c.position(), 0u);
  EXPECT_EQ(c.Read<std::uint16_t>(), 0x0100u);
  EXPECT_THROW((void)c.Read<std::uint16_t>(), Error);
  EXPECT_EQ(c.position(), 2u);
}

TEST(ByteCursor, EmptyStreamRejectsEveryRead) {
  ByteCursor c{ByteSpan()};
  EXPECT_TRUE(c.AtEnd());
  EXPECT_EQ(c.remaining(), 0u);
  EXPECT_THROW((void)c.Read<std::uint8_t>(), Error);
  EXPECT_THROW((void)c.Slice(1), Error);
  EXPECT_THROW(c.Skip(1), Error);
  // Zero-byte operations on an empty stream are fine.
  EXPECT_NO_THROW(c.Skip(0));
  EXPECT_EQ(c.Slice(0).size(), 0u);
  EXPECT_EQ(c.Rest().size(), 0u);
}

TEST(ByteCursor, ReadBytesNullDestOnlyForZeroLength) {
  const ByteBuffer buf = MakeBytes(4);
  ByteCursor c{ByteSpan(buf)};
  EXPECT_NO_THROW(c.ReadBytes(nullptr, 0));
  EXPECT_EQ(c.position(), 0u);
  std::array<std::byte, 4> dst{};
  c.ReadBytes(dst.data(), dst.size());
  EXPECT_EQ(dst[3], std::byte{3});
  EXPECT_TRUE(c.AtEnd());
}

TEST(ByteCursor, ReadSpanFillsTypedElements) {
  const ByteBuffer buf = MakeBytes(8);
  ByteCursor c{ByteSpan(buf)};
  std::vector<std::uint16_t> out(3);
  c.ReadSpan(std::span<std::uint16_t>(out));
  EXPECT_EQ(out[0], 0x0100u);
  EXPECT_EQ(out[2], 0x0504u);
  EXPECT_EQ(c.remaining(), 2u);
  std::vector<std::uint32_t> too_big(2);
  EXPECT_THROW((void)c.ReadSpan(std::span<std::uint32_t>(too_big)), Error);
  std::vector<std::uint32_t> empty;
  EXPECT_NO_THROW(c.ReadSpan(std::span<std::uint32_t>(empty)));
}

TEST(ByteCursor, SliceViewsWithoutCopying) {
  const ByteBuffer buf = MakeBytes(10);
  ByteCursor c{ByteSpan(buf)};
  ByteSpan head = c.Slice(4);
  ASSERT_EQ(head.size(), 4u);
  EXPECT_EQ(head.data(), buf.data());
  ByteSpan rest = c.Rest();
  EXPECT_EQ(rest.size(), 6u);
  // szx-lint: allow(ptr-arith) -- asserting the view aliases the source buffer, not indexing through it
  EXPECT_EQ(rest.data(), buf.data() + 4);
  EXPECT_TRUE(c.AtEnd());
  EXPECT_EQ(c.Rest().size(), 0u);
}

TEST(ByteCursor, SkipPastEndThrowsAndDoesNotMove) {
  const ByteBuffer buf = MakeBytes(5);
  ByteCursor c{ByteSpan(buf)};
  c.Skip(3);
  EXPECT_THROW(c.Skip(3), Error);
  EXPECT_EQ(c.position(), 3u);
  EXPECT_NO_THROW(c.Skip(2));
  EXPECT_TRUE(c.AtEnd());
}

TEST(ByteCursor, SliceArrayAndSkipArrayRefuseToWrap) {
  const ByteBuffer buf = MakeBytes(16);
  {
    ByteCursor c{ByteSpan(buf)};
    ByteSpan s = c.SliceArray(4, 4);
    EXPECT_EQ(s.size(), 16u);
  }
  {
    // count * elem_size wraps uint64; the unchecked product would be tiny.
    ByteCursor c{ByteSpan(buf)};
    EXPECT_THROW((void)c.SliceArray(kU64Max / 2 + 1, 4), Error);
    EXPECT_THROW(c.SkipArray(kU64Max / 2 + 1, 4), Error);
    EXPECT_EQ(c.position(), 0u);
  }
  {
    // In-range product that still exceeds the stream must also throw.
    ByteCursor c{ByteSpan(buf)};
    EXPECT_THROW((void)c.SliceArray(5, 4), Error);
    EXPECT_NO_THROW(c.SkipArray(0, 8));
  }
}

TEST(ByteCursor, CheckedAllocAcceptsPlausibleCounts) {
  const ByteBuffer buf = MakeBytes(64);
  ByteCursor c{ByteSpan(buf)};
  // Default cap: at most one element per remaining byte.
  EXPECT_EQ(c.CheckedAlloc(64, sizeof(float)), 64u);
  EXPECT_EQ(c.CheckedAlloc(1, sizeof(double)), 1u);
  EXPECT_EQ(c.CheckedAlloc(0, sizeof(float)), 0u);
  EXPECT_THROW((void)c.CheckedAlloc(65, sizeof(float)), Error);
}

TEST(ByteCursor, CheckedAllocHonorsExpansionCap) {
  const ByteBuffer buf = MakeBytes(8);
  ByteCursor c{ByteSpan(buf)};
  // 8 bytes at 8 elems/byte (1-bit-per-symbol entropy floor) -> up to 64.
  EXPECT_EQ(c.CheckedAlloc(64, 1, 8), 64u);
  EXPECT_THROW((void)c.CheckedAlloc(65, 1, 8), Error);
  // LZ-style cap of 255 from byte-long match runs.
  EXPECT_EQ(c.CheckedAlloc(8u * 255u, 1, 255), 8u * 255u);
  EXPECT_THROW((void)c.CheckedAlloc(8u * 255u + 1, 1, 255), Error);
}

TEST(ByteCursor, CheckedAllocRejectsAnythingOnEmptyRemainder) {
  const ByteBuffer buf = MakeBytes(4);
  ByteCursor c{ByteSpan(buf)};
  c.Skip(4);
  EXPECT_THROW((void)c.CheckedAlloc(1, 1, kU64Max), Error);
  EXPECT_EQ(c.CheckedAlloc(0, 1), 0u);
}

TEST(ByteCursor, CheckedAllocCapCannotBeDefeatedByOverflow) {
  const ByteBuffer buf = MakeBytes(16);
  ByteCursor c{ByteSpan(buf)};
  // A count chosen so count * elem_size wraps to something small must still
  // be rejected -- either by the plausibility cap or the byte-size check.
  EXPECT_THROW((void)c.CheckedAlloc(kU64Max, sizeof(float)), Error);
  // Plausible count whose byte size wraps: 16 elements of huge elem_size.
  EXPECT_THROW((void)c.CheckedAlloc(16, kU64Max / 8), Error);
}

TEST(ByteCursor, CheckedAllocIsPositionDependent) {
  const ByteBuffer buf = MakeBytes(32);
  ByteCursor c{ByteSpan(buf)};
  EXPECT_EQ(c.CheckedAlloc(32, 1), 32u);
  c.Skip(16);
  EXPECT_THROW((void)c.CheckedAlloc(32, 1), Error);
  EXPECT_EQ(c.CheckedAlloc(16, 1), 16u);
}

TEST(CheckedMul, ExactBoundary) {
  EXPECT_EQ(CheckedMul(0, kU64Max), 0u);
  EXPECT_EQ(CheckedMul(kU64Max, 1), kU64Max);
  EXPECT_EQ(CheckedMul(1u << 16, 1u << 16), std::uint64_t{1} << 32);
  EXPECT_THROW(CheckedMul(kU64Max / 2 + 1, 2), Error);
  EXPECT_THROW(CheckedMul(kU64Max, kU64Max), Error);
  // Largest non-overflowing product with a power-of-two factor.
  EXPECT_EQ(CheckedMul(kU64Max / 2, 2), kU64Max - 1);
}

TEST(CheckedNarrow, ValuePreservingAcrossWidthsAndSigns) {
  EXPECT_EQ(CheckedNarrow<std::uint8_t>(std::uint64_t{255}), 255u);
  EXPECT_THROW(CheckedNarrow<std::uint8_t>(std::uint64_t{256}), Error);
  EXPECT_EQ(CheckedNarrow<std::uint16_t>(std::uint64_t{65535}), 65535u);
  EXPECT_THROW(CheckedNarrow<std::uint16_t>(std::uint64_t{65536}), Error);
  EXPECT_EQ(CheckedNarrow<std::uint32_t>(std::uint64_t{0xffffffffu}),
            0xffffffffu);
  EXPECT_THROW(CheckedNarrow<std::uint32_t>(std::uint64_t{1} << 32), Error);
  // Negative values must not smuggle through as large unsigned numbers.
  EXPECT_THROW(CheckedNarrow<std::uint32_t>(std::int64_t{-1}), Error);
  EXPECT_THROW(CheckedNarrow<std::uint64_t>(std::int32_t{-5}), Error);
  // Signed-to-signed narrowing keeps in-range values, rejects the rest.
  EXPECT_EQ(CheckedNarrow<std::int8_t>(std::int32_t{-128}), -128);
  EXPECT_THROW(CheckedNarrow<std::int8_t>(std::int32_t{-129}), Error);
  EXPECT_THROW(CheckedNarrow<std::int8_t>(std::int32_t{128}), Error);
  // Widening and same-width calls are identity.
  EXPECT_EQ(CheckedNarrow<std::uint64_t>(std::uint32_t{7}), 7u);
  EXPECT_EQ(CheckedNarrow<std::uint64_t>(kU64Max), kU64Max);
}

TEST(ByteCursor, TruncationErrorMessageNamesTheCounts) {
  const ByteBuffer buf = MakeBytes(2);
  ByteCursor c{ByteSpan(buf)};
  try {
    (void)c.Slice(9);
    FAIL() << "Slice past end must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("need 9 bytes, have 2"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace szx
