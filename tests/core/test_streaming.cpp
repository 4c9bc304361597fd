// Streaming frame container: multi-frame round trips, bounded memory
// semantics, checksum verification, failure injection.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "../test_util.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::WithinBound;

TEST(Streaming, MultiFrameRoundTrip) {
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  StreamWriter<float> writer(p);
  std::vector<std::vector<float>> frames;
  for (int f = 0; f < 10; ++f) {
    frames.push_back(
        MakePattern<float>(Pattern::kNoisySine, 5000 + 137 * f, f));
    writer.Append(frames.back());
  }
  EXPECT_EQ(writer.frames(), 10u);
  const ByteBuffer container = std::move(writer).Finish();

  StreamReader<float> reader(container);
  std::vector<float> out;
  for (int f = 0; f < 10; ++f) {
    ASSERT_TRUE(reader.Next(out)) << f;
    EXPECT_EQ(out.size(), frames[f].size());
    EXPECT_TRUE(WithinBound<float>(frames[f], out, 1e-3));
  }
  EXPECT_FALSE(reader.Next(out));
  EXPECT_EQ(reader.frames_read(), 10u);
}

TEST(Streaming, EmptyContainer) {
  Params p;
  StreamWriter<float> writer(p);
  const ByteBuffer container = std::move(writer).Finish();
  StreamReader<float> reader(container);
  std::vector<float> out;
  EXPECT_FALSE(reader.Next(out));
}

TEST(Streaming, EmptyFrameAllowed) {
  Params p;
  StreamWriter<double> writer(p);
  writer.Append(std::span<const double>());
  writer.Append(MakePattern<double>(Pattern::kRamp, 100, 1));
  const ByteBuffer container = std::move(writer).Finish();
  StreamReader<double> reader(container);
  std::vector<double> out;
  ASSERT_TRUE(reader.Next(out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(reader.Next(out));
  EXPECT_EQ(out.size(), 100u);
}

TEST(Streaming, TypeMismatchRejected) {
  Params p;
  StreamWriter<float> writer(p);
  writer.Append(MakePattern<float>(Pattern::kRamp, 10, 1));
  const ByteBuffer container = std::move(writer).Finish();
  EXPECT_THROW(StreamReader<double>{container}, Error);
}

TEST(Streaming, ChecksumDetectsFrameCorruption) {
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  StreamWriter<float> writer(p);
  writer.Append(MakePattern<float>(Pattern::kNoisySine, 5000, 1));
  ByteBuffer container = std::move(writer).Finish();
  // Flip a byte inside the frame payload (past container+frame headers).
  container[container.size() - 10] ^= std::byte{0x20};
  StreamReader<float> reader(container);
  std::vector<float> out;
  EXPECT_THROW((void)reader.Next(out), Error);
}

TEST(Streaming, TruncationRejected) {
  Params p;
  StreamWriter<float> writer(p);
  writer.Append(MakePattern<float>(Pattern::kNoisySine, 5000, 1));
  const ByteBuffer container = std::move(writer).Finish();
  // Cut inside the frame header.
  EXPECT_THROW(
      {
        StreamReader<float> r(ByteSpan(container.data(), 12));
        std::vector<float> out;
        (void)r.Next(out);
      },
      Error);
  // Cut inside the payload.
  EXPECT_THROW(
      {
        StreamReader<float> r(ByteSpan(container.data(), 200));
        std::vector<float> out;
        (void)r.Next(out);
      },
      Error);
}

TEST(Streaming, BadMagicRejected) {
  ByteBuffer junk(64, std::byte{7});
  EXPECT_THROW(StreamReader<float>{junk}, Error);
}

TEST(Streaming, CompressionAccumulates) {
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-2;
  StreamWriter<float> writer(p);
  for (int f = 0; f < 5; ++f) {
    std::vector<float> frame(1 << 16);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame[i] = static_cast<float>(
          std::sin(1e-4 * static_cast<double>(i) + f));
    }
    writer.Append(frame);
  }
  EXPECT_LT(writer.compressed_bytes(), writer.raw_bytes() / 2);
}

// --------------------------------------------------------------------------
// Writer lifecycle: Finish() && moves the container out; the writer must be
// poisoned afterwards instead of silently appending to an empty buffer.

TEST(Streaming, FinishPoisonsWriter) {
  Params p;
  StreamWriter<float> writer(p);
  writer.Append(MakePattern<float>(Pattern::kRamp, 256, 3));
  const ByteBuffer container = std::move(writer).Finish();
  EXPECT_GT(container.size(), 8u);
  EXPECT_THROW(writer.Append(MakePattern<float>(Pattern::kRamp, 16, 4)),
               Error);
  EXPECT_THROW((void)std::move(writer).Finish(), Error);
}

// --------------------------------------------------------------------------
// NextOrSkip: fault-tolerant reading with and without v2 resync markers.

ByteBuffer BuildContainer(bool markers,
                          std::vector<std::vector<float>>* frames) {
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  StreamWriterOptions opt;
  opt.resync_markers = markers;
  StreamWriter<float> writer(p, opt);
  for (int f = 0; f < 3; ++f) {
    frames->push_back(
        MakePattern<float>(Pattern::kNoisySine, 3000 + 100 * f, f));
    writer.Append(frames->back());
  }
  return std::move(writer).Finish();
}

/// Byte offset of frame `idx` (its marker, in marker containers).
std::size_t FrameStart(ByteSpan container, std::size_t idx, bool markers) {
  std::size_t pos = 8;
  for (std::size_t i = 0; i < idx; ++i) {
    ByteCursor cur(container.subspan(pos));
    if (markers) cur.Skip(8);
    const auto len = cur.Read<std::uint64_t>();
    cur.Skip(8);  // checksum
    pos += (markers ? 8 : 0) + 16 + len;
  }
  return pos;
}

TEST(Streaming, NextOrSkipCleanStreamSkipsNothing) {
  std::vector<std::vector<float>> frames;
  const ByteBuffer container = BuildContainer(false, &frames);
  StreamReader<float> reader(container);
  std::vector<float> out;
  SkipInfo info;
  int got = 0;
  while (reader.NextOrSkip(out, &info)) ++got;
  EXPECT_EQ(got, 3);
  EXPECT_EQ(info.frames_skipped, 0u);
  EXPECT_EQ(info.bytes_skipped, 0u);
}

TEST(Streaming, NextOrSkipStepsOverCorruptFrameV1) {
  std::vector<std::vector<float>> frames;
  ByteBuffer container = BuildContainer(false, &frames);
  // Flip a payload byte inside frame 1 (past its 16-byte frame header).
  const std::size_t f1 = FrameStart(container, 1, false);
  container[f1 + 16 + 40] ^= std::byte{0x10};

  StreamReader<float> reader(container);
  std::vector<float> out;
  SkipInfo info;
  ASSERT_TRUE(reader.NextOrSkip(out, &info));
  EXPECT_EQ(out.size(), frames[0].size());
  ASSERT_TRUE(reader.NextOrSkip(out, &info));
  EXPECT_EQ(out.size(), frames[2].size());
  EXPECT_FALSE(reader.NextOrSkip(out, &info));
  EXPECT_EQ(info.frames_skipped, 1u);
  EXPECT_GT(info.bytes_skipped, 0u);
  EXPECT_FALSE(info.last_error.empty());
}

TEST(Streaming, NextOrSkipAbandonsTailOnCorruptLengthV1) {
  std::vector<std::vector<float>> frames;
  ByteBuffer container = BuildContainer(false, &frames);
  // Blow up frame 1's length field: without markers there is no way to
  // find frame 2, so the remainder of the container is abandoned.
  const std::size_t f1 = FrameStart(container, 1, false);
  container[f1 + 6] = std::byte{0xff};

  StreamReader<float> reader(container);
  std::vector<float> out;
  SkipInfo info;
  ASSERT_TRUE(reader.NextOrSkip(out, &info));
  EXPECT_FALSE(reader.NextOrSkip(out, &info));
  EXPECT_EQ(info.frames_skipped, 1u);
  EXPECT_EQ(info.bytes_skipped, container.size() - f1);
}

TEST(Streaming, ResyncMarkersRecoverPastCorruptLength) {
  std::vector<std::vector<float>> frames;
  ByteBuffer container = BuildContainer(true, &frames);
  const std::size_t f1 = FrameStart(container, 1, true);
  container[f1 + 8 + 6] = std::byte{0xff};  // length field after the marker

  StreamReader<float> reader(container);
  std::vector<float> out;
  SkipInfo info;
  ASSERT_TRUE(reader.NextOrSkip(out, &info));
  EXPECT_EQ(out.size(), frames[0].size());
  // The corrupt length would have pointed past the container; the marker
  // scan resynchronizes on frame 2.
  ASSERT_TRUE(reader.NextOrSkip(out, &info));
  EXPECT_EQ(out.size(), frames[2].size());
  EXPECT_FALSE(reader.NextOrSkip(out, &info));
  EXPECT_EQ(info.frames_skipped, 1u);
}

TEST(Streaming, ResyncContainerRoundTripsWithNext) {
  std::vector<std::vector<float>> frames;
  const ByteBuffer container = BuildContainer(true, &frames);
  StreamReader<float> reader(container);
  std::vector<float> out;
  for (int f = 0; f < 3; ++f) {
    ASSERT_TRUE(reader.Next(out)) << f;
    EXPECT_TRUE(WithinBound<float>(frames[f], out, 1e-3));
  }
  EXPECT_FALSE(reader.Next(out));
}

TEST(Fnv1a64, KnownProperties) {
  EXPECT_EQ(Fnv1a64({}), 0xcbf29ce484222325ull);
  ByteBuffer a(4, std::byte{1});
  ByteBuffer b(4, std::byte{2});
  EXPECT_NE(Fnv1a64(a), Fnv1a64(b));
  EXPECT_EQ(Fnv1a64(a), Fnv1a64(a));
}

std::uint64_t Xxh64Of(std::string_view text) {
  return Xxh64(std::as_bytes(std::span(text.data(), text.size())));
}

// Reference values of the xxHash specification (XXH64, seed 0).  The 39-byte
// string covers one stripe plus the 8-, 4- and 1-byte tails.
TEST(Xxh64, MatchesReferenceVectors) {
  EXPECT_EQ(Xxh64Of(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64Of("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Xxh64Of("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(Xxh64Of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
  ByteBuffer ramp(1000);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::byte>(i & 0xff);
  }
  EXPECT_EQ(Xxh64(ramp), 0x6ef436b00eba4078ull);
}

}  // namespace
}  // namespace szx
