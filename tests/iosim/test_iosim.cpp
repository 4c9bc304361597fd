// PFS model tests: bandwidth sharing, phase accounting, the Fig. 16
// qualitative property (faster compressor wins end-to-end when the PFS is
// fast), and the pipelined-dump overlap model that makes the Fig. 16
// serial-sum makespan the baseline to beat.
#include "iosim/pfs_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace szx::iosim {
namespace {

PfsSpec TestPfs() {
  PfsSpec pfs;
  pfs.aggregate_bw_gbps = 100.0;
  pfs.per_rank_bw_gbps = 2.0;
  pfs.latency_s = 0.01;
  return pfs;
}

TEST(Pfs, PerRankCapDominatesAtSmallScale) {
  const PfsSpec pfs = TestPfs();
  EXPECT_DOUBLE_EQ(EffectiveRankBandwidthGBps(pfs, 10), 2.0);
}

TEST(Pfs, AggregateCapDominatesAtLargeScale) {
  const PfsSpec pfs = TestPfs();
  EXPECT_DOUBLE_EQ(EffectiveRankBandwidthGBps(pfs, 1000), 0.1);
}

TEST(Pfs, InvalidRanksThrow) {
  EXPECT_THROW(EffectiveRankBandwidthGBps(TestPfs(), 0),
               std::invalid_argument);
  EXPECT_THROW(EffectiveRankBandwidthGBps(TestPfs(), -4),
               std::invalid_argument);
}

TEST(Dump, PhaseAccounting) {
  const PfsSpec pfs = TestPfs();
  RankWorkload w;
  w.bytes_per_rank = 1'000'000'000;  // 1 GB
  w.compress_gbps = 1.0;
  w.decompress_gbps = 2.0;
  w.compression_ratio = 10.0;
  const PhaseTime t = SimulateDump(pfs, 10, w);
  EXPECT_NEAR(t.compute_s, 1.0, 1e-9);             // 1 GB at 1 GB/s
  EXPECT_NEAR(t.io_s, 0.1 / 2.0 + 0.01, 1e-9);     // 0.1 GB at 2 GB/s
  const PhaseTime l = SimulateLoad(pfs, 10, w);
  EXPECT_NEAR(l.compute_s, 0.5, 1e-9);
  EXPECT_NEAR(l.io_s, t.io_s, 1e-12);
}

TEST(Dump, MoreRanksNeverFaster) {
  const PfsSpec pfs = TestPfs();
  RankWorkload w;
  w.bytes_per_rank = 500'000'000;
  w.compress_gbps = 3.0;
  w.decompress_gbps = 4.0;
  w.compression_ratio = 5.0;
  double prev = 0.0;
  for (int ranks : {64, 128, 256, 512, 1024}) {
    const double total = SimulateDump(pfs, ranks, w).total();
    EXPECT_GE(total, prev) << ranks;
    prev = total;
  }
}

TEST(Dump, CompressionBeatsRawOnSlowPfs) {
  // The whole point of compressed I/O: when the PFS share per rank is thin,
  // even a slow compressor wins against writing raw.
  const PfsSpec pfs = TestPfs();
  RankWorkload w;
  w.bytes_per_rank = 1'000'000'000;
  w.compress_gbps = 0.25;  // slow compressor
  w.decompress_gbps = 0.5;
  w.compression_ratio = 20.0;
  const double with = SimulateDump(pfs, 1024, w).total();
  const double raw = SimulateRawDump(pfs, 1024, w.bytes_per_rank).total();
  EXPECT_LT(with, raw);
}

TEST(Dump, FasterCompressorWinsWhenIoIsCheap) {
  // Fig. 16's key conclusion: at high PFS bandwidth the compression stage
  // dominates, so the 5x-faster compressor (SZx-like) wins end to end even
  // with a lower compression ratio.
  PfsSpec fast = TestPfs();
  fast.aggregate_bw_gbps = 10000.0;
  RankWorkload szx_like;
  szx_like.bytes_per_rank = 1'000'000'000;
  szx_like.compress_gbps = 1.0;
  szx_like.decompress_gbps = 1.4;
  szx_like.compression_ratio = 6.0;
  RankWorkload sz_like = szx_like;
  sz_like.compress_gbps = 0.2;
  sz_like.decompress_gbps = 0.4;
  sz_like.compression_ratio = 60.0;
  EXPECT_LT(SimulateDump(fast, 256, szx_like).total(),
            SimulateDump(fast, 256, sz_like).total());
  EXPECT_LT(SimulateLoad(fast, 256, szx_like).total(),
            SimulateLoad(fast, 256, sz_like).total());
}

TEST(Dump, RatioWinsWhenIoIsScarce) {
  // Conversely the crossover: starve the PFS and the high-ratio compressor
  // wins despite its speed.
  PfsSpec slow = TestPfs();
  slow.aggregate_bw_gbps = 5.0;
  RankWorkload szx_like;
  szx_like.bytes_per_rank = 1'000'000'000;
  szx_like.compress_gbps = 1.0;
  szx_like.decompress_gbps = 1.4;
  szx_like.compression_ratio = 6.0;
  RankWorkload sz_like = szx_like;
  sz_like.compress_gbps = 0.2;
  sz_like.decompress_gbps = 0.4;
  sz_like.compression_ratio = 60.0;
  EXPECT_GT(SimulateDump(slow, 1024, szx_like).total(),
            SimulateDump(slow, 1024, sz_like).total());
}

TEST(Workload, InvalidRatesRejected) {
  RankWorkload w;
  w.bytes_per_rank = 100;
  w.compress_gbps = 0.0;
  w.decompress_gbps = 1.0;
  w.compression_ratio = 2.0;
  EXPECT_THROW(SimulateDump(TestPfs(), 4, w), std::invalid_argument);
}

// --- Overlap makespan model (SimulatePipelinedDump) -----------------------

RankWorkload NyxLikeWorkload() {
  RankWorkload w;
  w.bytes_per_rank = std::uint64_t{512} * 1024 * 1024;
  w.compress_gbps = 8.0;
  w.decompress_gbps = 12.0;
  w.compression_ratio = 6.0;
  return w;
}

TEST(PipelinedDump, NeverSlowerThanSerialSum) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  for (const int ranks : {1, 64, 256, 1024}) {
    for (const std::uint32_t chunks : {1U, 2U, 4U, 16U, 64U}) {
      const PipelinedTime t = SimulatePipelinedDump(pfs, ranks, w, chunks);
      EXPECT_LE(t.pipelined_s, t.serial_s + 1e-12)
          << "ranks=" << ranks << " chunks=" << chunks;
      EXPECT_GE(t.speedup(), 1.0 - 1e-12);
      EXPECT_LT(t.speedup(), 2.0);  // overlap hides at most the shorter phase
    }
  }
}

TEST(PipelinedDump, SingleChunkDegeneratesToSerial) {
  const PfsSpec pfs;
  const PipelinedTime t = SimulatePipelinedDump(pfs, 128, NyxLikeWorkload(), 1);
  EXPECT_DOUBLE_EQ(t.pipelined_s, t.serial_s);
}

TEST(PipelinedDump, SerialSumMatchesFig16Model) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  const PhaseTime serial = SimulateDump(pfs, 256, w);
  const PipelinedTime t = SimulatePipelinedDump(pfs, 256, w, 8);
  EXPECT_NEAR(t.serial_s, serial.total(), 1e-9);
}

TEST(PipelinedDump, MoreChunksNeverHurt) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  double prev = SimulatePipelinedDump(pfs, 512, w, 1).pipelined_s;
  for (const std::uint32_t chunks : {2U, 4U, 8U, 32U, 128U}) {
    const double cur = SimulatePipelinedDump(pfs, 512, w, chunks).pipelined_s;
    EXPECT_LE(cur, prev + 1e-12) << "chunks=" << chunks;
    prev = cur;
  }
}

TEST(PipelinedDump, ApproachesMaxPhaseBound) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  // With many chunks the makespan approaches max(compute, transfer) +
  // latency: the shorter phase is fully hidden behind the longer one.
  // (PhaseTime::io_s folds the latency in, so strip it before the max.)
  const PhaseTime serial = SimulateDump(pfs, 256, w);
  const double bound =
      std::max(serial.compute_s, serial.io_s - pfs.latency_s) +
      pfs.latency_s;
  const PipelinedTime t = SimulatePipelinedDump(pfs, 256, w, 1'024);
  EXPECT_NEAR(t.pipelined_s, bound, 0.05 * bound);
  EXPECT_GE(t.pipelined_s, bound - 1e-12);
}

TEST(PipelinedDump, ZeroChunksThrows) {
  const PfsSpec pfs;
  EXPECT_THROW(SimulatePipelinedDump(pfs, 64, NyxLikeWorkload(), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace szx::iosim
