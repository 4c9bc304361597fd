// cuSZx CPU-port tests: the GPU kernel schedule must match the serial codec
// bit for bit (streams and reconstructions), and the warp collectives must
// match their serial definitions.
#include "cusim/cusim_codec.hpp"

#include <gtest/gtest.h>

#include "core/omp_codec.hpp"
#include "cusim/device_model.hpp"
#include "cusim/warp_ops.hpp"
#include "../test_util.hpp"

namespace szx::cusim {
namespace {

using szx::testing::MakePattern;
using szx::testing::Pattern;
using szx::testing::Rng;

TEST(WarpOps, InclusiveScanMatchesSerial) {
  Rng rng(1);
  for (std::size_t n : {0u, 1u, 2u, 3u, 31u, 32u, 33u, 128u, 1000u}) {
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.Next() % 100);
    std::vector<std::uint32_t> expect = v;
    for (std::size_t i = 1; i < n; ++i) expect[i] += expect[i - 1];
    InclusiveScan(std::span(v));
    EXPECT_EQ(v, expect) << n;
  }
}

TEST(WarpOps, ExclusiveScanReturnsTotal) {
  std::vector<std::uint32_t> v = {3, 0, 5, 2};
  const std::uint32_t total = ExclusiveScan(std::span(v));
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(v, (std::vector<std::uint32_t>{0, 3, 3, 8}));
}

TEST(WarpOps, IndexPropagateResolvesChains) {
  // Fig. 11 semantics: 0 = leading byte (inherit), i+1 = mid byte (own).
  std::vector<std::uint32_t> idx = {1, 0, 0, 4, 0, 6, 0, 0};
  IndexPropagate(std::span(idx));
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 1, 1, 4, 4, 6, 6, 6}));
}

TEST(WarpOps, IndexPropagateAllInherit) {
  std::vector<std::uint32_t> idx(16, 0);
  IndexPropagate(std::span(idx));
  for (const auto v : idx) EXPECT_EQ(v, 0u);  // rooted at the zero word
}

TEST(WarpOps, IndexPropagateMatchesPrefixMax) {
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.Next() % 200;
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = rng.Next() % 3 == 0 ? static_cast<std::uint32_t>(i + 1) : 0;
    }
    std::vector<std::uint32_t> expect = idx;
    for (std::size_t i = 1; i < n; ++i) {
      expect[i] = std::max(expect[i], expect[i - 1]);
    }
    IndexPropagate(std::span(idx));
    EXPECT_EQ(idx, expect) << trial;
  }
}

class CusimSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(CusimSweep, StreamBitIdenticalToSerial) {
  const auto [pat, block, eb] = GetParam();
  const auto data =
      MakePattern<float>(static_cast<Pattern>(pat), 50000, 123);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = eb;
  p.block_size = static_cast<std::uint32_t>(block);
  CompressionStats serial_stats, cuda_stats;
  const auto serial = Compress<float>(data, p, &serial_stats);
  const auto cuda = CompressCuda<float>(data, p, &cuda_stats);
  ASSERT_EQ(serial.size(), cuda.size());
  EXPECT_TRUE(std::equal(serial.begin(), serial.end(), cuda.begin()));
  EXPECT_EQ(serial_stats.num_constant_blocks, cuda_stats.num_constant_blocks);
}

TEST_P(CusimSweep, DecompressBitIdenticalToSerial) {
  const auto [pat, block, eb] = GetParam();
  const auto data =
      MakePattern<float>(static_cast<Pattern>(pat), 50000, 321);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = eb;
  p.block_size = static_cast<std::uint32_t>(block);
  const auto stream = Compress<float>(data, p);
  const auto serial = Decompress<float>(stream);
  const auto cuda = DecompressCuda<float>(stream);
  ASSERT_EQ(serial.size(), cuda.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(serial[i]),
              std::bit_cast<std::uint32_t>(cuda[i]))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CusimSweep,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(32, 128, 333),
                       ::testing::Values(1e-2, 1e-4)));

TEST(Cusim, DoublePrecisionRoundTrip) {
  const auto data = MakePattern<double>(Pattern::kNoisySine, 30000, 9);
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-4;
  const auto serial = Compress<double>(data, p);
  const auto cuda = CompressCuda<double>(data, p);
  EXPECT_EQ(serial, cuda);
  EXPECT_EQ(Decompress<double>(serial), DecompressCuda<double>(cuda));
}

TEST(Cusim, RawPassthroughMatchesSerial) {
  // Incompressible input: the shared assembler writes the raw frame, which
  // must equal serial Compress byte for byte, footer included.
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 16384, 23);
  for (const bool integrity : {false, true}) {
    Params p;
    p.mode = ErrorBoundMode::kAbsolute;
    p.error_bound = 1e-30;
    p.integrity = integrity;
    CompressionStats serial_stats, cuda_stats;
    const auto serial = Compress<float>(data, p, &serial_stats);
    ASSERT_NE(PeekHeader(serial).flags & kFlagRawPassthrough, 0u);
    const auto cuda = CompressCuda<float>(data, p, &cuda_stats);
    EXPECT_EQ(serial, cuda) << "integrity=" << integrity;
    EXPECT_EQ(serial_stats.compressed_bytes, cuda_stats.compressed_bytes);
    EXPECT_EQ(DecompressCuda<float>(cuda), data);
  }
}

TEST(Cusim, RejectsNonSolutionC) {
  const auto data = MakePattern<float>(Pattern::kSmoothSine, 1000, 1);
  Params p;
  p.solution = CommitSolution::kA;
  EXPECT_THROW(CompressCuda<float>(data, p), Error);
  p.solution = CommitSolution::kC;
  auto stream = Compress<float>(data, p);
  Params pa;
  pa.solution = CommitSolution::kA;
  const auto stream_a = Compress<float>(data, pa);
  EXPECT_THROW(DecompressCuda<float>(stream_a), Error);
}

TEST(Cusim, CountersPopulated) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 100000, 2);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-4;
  KernelCounters cc, dc;
  const auto stream = CompressCuda<float>(data, p, nullptr, &cc);
  DecompressCuda<float>(stream, &dc);
  EXPECT_EQ(cc.elements, data.size());
  EXPECT_GT(cc.lane_ops, 0u);
  EXPECT_GT(cc.scan_rounds, 0u);
  EXPECT_GT(dc.propagate_rounds, 0u);
  EXPECT_GT(dc.bytes_moved, 0u);
}

TEST(DeviceModel, ShapesMatchPaperOrdering) {
  // cuSZx must model faster than cuSZ and cuZFP on both devices, and the
  // A100 faster than the V100 for the same kernel (Figs. 14-15).
  const auto data = MakePattern<float>(Pattern::kNoisySine, 500000, 5);
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  KernelCounters cc, dc;
  const auto stream = CompressCuda<float>(data, p, nullptr, &cc);
  DecompressCuda<float>(stream, &dc);
  const double gb = static_cast<double>(data.size()) * 4 / 1e9;
  for (const GpuSpec& gpu : {A100(), V100()}) {
    const double szx_c = ModelThroughputGBps(gpu, CuszxCompressProfile(cc), gb);
    const double szx_d =
        ModelThroughputGBps(gpu, CuszxDecompressProfile(dc), gb);
    const double sz_c = ModelThroughputGBps(gpu, CuszProfile(false), gb);
    const double zfp_c = ModelThroughputGBps(gpu, CuzfpProfile(false), gb);
    EXPECT_GT(szx_c, 2.0 * sz_c) << gpu.name;
    EXPECT_GT(szx_c, 2.0 * zfp_c) << gpu.name;
    EXPECT_GT(szx_d, 2.0 * ModelThroughputGBps(gpu, CuszProfile(true), gb))
        << gpu.name;
  }
  const double a100 =
      ModelThroughputGBps(A100(), CuszxCompressProfile(cc), gb);
  const double v100 =
      ModelThroughputGBps(V100(), CuszxCompressProfile(cc), gb);
  EXPECT_GT(a100, v100);
}

}  // namespace
}  // namespace szx::cusim
