// Container salvage: a damaged chunk degrades only the elements it covers,
// the rest of the timestep decodes bit-exactly, and the report is
// deterministic across thread counts.
#include "resilience/container_salvage.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace szx::resilience {
namespace {

using szx::testing::MakePattern;
using szx::testing::Pattern;

constexpr std::uint64_t kChunk = 1024;
constexpr std::uint64_t kChunks = 8;

/// One-field container over noisy data; integrity params make each chunk a
/// v2 stream so the per-chunk salvage tiers have a footer to work with.
ByteBuffer BuildContainer(const std::vector<float>& data) {
  ContainerWriter w;
  ContainerWriter::FieldSpec spec;
  spec.name = "field";
  spec.params.integrity = true;
  spec.elements_per_timestep = data.size();
  spec.chunk_elements = kChunk;
  const std::uint32_t f = w.AddField(spec, DataType::kFloat32);
  w.AppendTimestep<float>(f, data);
  return w.Finish();
}

TEST(ContainerSalvage, CleanContainerIsCleanAndBitExact) {
  const auto data =
      MakePattern<float>(Pattern::kNoisySine, kChunk * kChunks, 31);
  const ByteBuffer c = BuildContainer(data);
  ContainerReader reader(c);
  const auto full = reader.DecompressTimestep<float>(0, 0);
  const auto r = SalvageContainerTimestep<float>(reader, 0, 0);
  EXPECT_TRUE(r.report.usable);
  EXPECT_TRUE(r.report.clean);
  EXPECT_EQ(r.report.chunks_recovered, kChunks);
  EXPECT_EQ(r.report.chunks_degraded, 0u);
  EXPECT_EQ(r.report.chunks_lost, 0u);
  EXPECT_TRUE(r.report.damaged.empty());
  EXPECT_EQ(r.data, full);
}

TEST(ContainerSalvage, OneFlippedByteQuarantinesOneChunk) {
  const auto data =
      MakePattern<float>(Pattern::kNoisySine, kChunk * kChunks, 32);
  ByteBuffer c = BuildContainer(data);
  const auto full = ContainerReader(c).DecompressTimestep<float>(0, 0);
  // Flip a payload byte in chunk 3's stream.
  const ContainerReader clean(c);
  const std::uint64_t victim = clean.EntryIndex(0, 0, 3);
  const std::uint64_t off =
      clean.entry(victim).offset + clean.entry(victim).bytes / 2;
  c[static_cast<std::size_t>(off)] ^= std::byte{0x04};

  ContainerReader damaged(c);
  SalvageOptions opt;
  opt.sentinel = -7.5;
  const auto r = SalvageContainerTimestep<float>(damaged, 0, 0, opt);
  ASSERT_TRUE(r.report.usable);
  EXPECT_FALSE(r.report.clean);
  EXPECT_EQ(r.report.chunks_recovered, kChunks - 1);
  EXPECT_EQ(r.report.chunks_degraded + r.report.chunks_lost, 1u);
  ASSERT_EQ(r.report.damaged.size(), 1u);
  const ContainerChunkDamage& d = r.report.damaged[0];
  EXPECT_EQ(d.entry, victim);
  EXPECT_EQ(d.first_element, 3 * kChunk);
  EXPECT_EQ(d.last_element, 4 * kChunk);
  EXPECT_EQ(d.verdict, Verdict::kCorrupt);
  // Every element outside the damaged chunk is bit-exact.
  ASSERT_EQ(r.data.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (i >= 3 * kChunk && i < 4 * kChunk) continue;
    ASSERT_EQ(r.data[i], full[i]) << "element " << i;
  }
}

TEST(ContainerSalvage, UnusableChunkIsSentinelFilled) {
  const auto data =
      MakePattern<float>(Pattern::kUniformNoise, kChunk * kChunks, 33);
  ByteBuffer c = BuildContainer(data);
  const auto full = ContainerReader(c).DecompressTimestep<float>(0, 0);
  // Wreck chunk 5's stream header: no salvage tier can locate anything.
  const ContainerReader clean(c);
  const std::uint64_t victim = clean.EntryIndex(0, 0, 5);
  const std::size_t off =
      static_cast<std::size_t>(clean.entry(victim).offset);
  for (std::size_t i = 0; i < 16; ++i) c[off + i] = std::byte{0xff};

  ContainerReader damaged(c);
  SalvageOptions opt;
  opt.sentinel = 123.25;
  const auto r = SalvageContainerTimestep<float>(damaged, 0, 0, opt);
  ASSERT_TRUE(r.report.usable);
  EXPECT_EQ(r.report.chunks_lost, 1u);
  ASSERT_EQ(r.report.damaged.size(), 1u);
  EXPECT_EQ(r.report.damaged[0].fill, ChunkFill::kSentinel);
  for (std::uint64_t i = 5 * kChunk; i < 6 * kChunk; ++i) {
    ASSERT_EQ(r.data[i], 123.25f);
  }
  for (std::size_t i = 0; i < 5 * kChunk; ++i) {
    ASSERT_EQ(r.data[i], full[i]);
  }
}

// A v3 container keeps every chunk's length in the checksummed directory,
// so a wrong length-bearing field inside one chunk's own SZX1 header (the
// checksums left as they are) can cost only that chunk: no later chunk is
// located through it.
TEST(ContainerSalvage, ChunkHeaderLengthFieldDamageCostsOnlyThatChunk) {
  const auto data =
      MakePattern<float>(Pattern::kNoisySine, kChunk * kChunks, 36);
  const ByteBuffer pristine = BuildContainer(data);
  const auto full = ContainerReader(pristine).DecompressTimestep<float>(0, 0);
  const ContainerReader clean(pristine);
  const std::uint64_t victim = clean.EntryIndex(0, 0, 3);
  const auto chunk_at = static_cast<std::size_t>(clean.entry(victim).offset);
  // SZX1 header: num_elements @40, num_blocks @48, num_constant @56,
  // payload_bytes @64 (u64 little-endian each).
  for (const std::size_t field : {40u, 48u, 56u, 64u}) {
    SCOPED_TRACE(field);
    ByteBuffer c = pristine;
    // Flip bit 40 of the stored value: always wrong, and off by 2^40.
    c[chunk_at + field + 5] ^= std::byte{0x01};

    ContainerReader damaged(c);
    const auto r = SalvageContainerTimestep<float>(damaged, 0, 0);
    ASSERT_TRUE(r.report.usable);
    EXPECT_FALSE(r.report.clean);
    ASSERT_EQ(r.report.damaged.size(), 1u);
    EXPECT_EQ(r.report.damaged[0].entry, victim);
    ASSERT_EQ(r.data.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (i >= 3 * kChunk && i < 4 * kChunk) continue;
      ASSERT_EQ(r.data[i], full[i]) << "element " << i;
    }
  }
}

TEST(ContainerSalvage, ReportIdenticalAcrossThreadCounts) {
  const auto data =
      MakePattern<float>(Pattern::kMixedScales, kChunk * kChunks, 34);
  ByteBuffer c = BuildContainer(data);
  const ContainerReader clean(c);
  // Damage two separate chunks differently.
  c[static_cast<std::size_t>(clean.entry(clean.EntryIndex(0, 0, 1)).offset +
                             40)] ^= std::byte{0x20};
  const std::size_t wreck =
      static_cast<std::size_t>(clean.entry(clean.EntryIndex(0, 0, 6)).offset);
  for (std::size_t i = 0; i < 16; ++i) c[wreck + i] = std::byte{0xaa};

  ContainerReader damaged(c);
  // Finite sentinel: the default quiet-NaN fill would defeat operator== on
  // the output vectors even when the bytes are identical.
  SalvageOptions serial;
  serial.num_threads = 1;
  serial.sentinel = -1.0;
  SalvageOptions parallel = serial;
  parallel.num_threads = 4;
  const auto a = SalvageContainerTimestep<float>(damaged, 0, 0, serial);
  const auto b = SalvageContainerTimestep<float>(damaged, 0, 0, parallel);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.report.damaged, b.report.damaged);
  EXPECT_EQ(a.report.ToJson(), b.report.ToJson());
  EXPECT_NE(a.report.ToJson().find("\"chunks_total\":8"), std::string::npos);
}

TEST(ContainerSalvage, PreconditionFailuresReportNotThrow) {
  const auto data = MakePattern<float>(Pattern::kRamp, kChunk, 35);
  const ByteBuffer c = BuildContainer(data);
  ContainerReader reader(c);
  EXPECT_FALSE(SalvageContainerTimestep<float>(reader, 7, 0).report.usable);
  EXPECT_FALSE(SalvageContainerTimestep<float>(reader, 0, 9).report.usable);
  EXPECT_FALSE(SalvageContainerTimestep<double>(reader, 0, 0).report.usable);
  SalvageOptions tiny;
  tiny.max_output_bytes = 16;
  const auto r = SalvageContainerTimestep<float>(reader, 0, 0, tiny);
  EXPECT_FALSE(r.report.usable);
  EXPECT_NE(r.report.error.find("max_output_bytes"), std::string::npos);
}

}  // namespace
}  // namespace szx::resilience
