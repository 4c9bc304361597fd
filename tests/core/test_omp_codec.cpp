// Chunk-parallel codec: parallel streams must be byte-identical to serial ones and
// decodable by either path (paper Sec. 6.1).
#include "core/omp_codec.hpp"

#include <atomic>
#include <bit>
#include <limits>
#include <string>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "../test_util.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::WithinBound;

class OmpThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(OmpThreadSweep, StreamBitIdenticalToSerial) {
  const int threads = GetParam();
  for (auto pat : {Pattern::kSmoothSine, Pattern::kNoisySine,
                   Pattern::kSparseSpikes}) {
    const auto data = MakePattern<float>(pat, 100000, 77);
    Params p;
    p.mode = ErrorBoundMode::kAbsolute;
    p.error_bound = 1e-3;
    CompressionStats serial_stats, omp_stats;
    const auto serial = Compress<float>(data, p, &serial_stats);
    const auto parallel = CompressOmp<float>(data, p, &omp_stats, threads);
    ASSERT_EQ(serial.size(), parallel.size()) << testing::PatternName(pat);
    EXPECT_TRUE(std::equal(serial.begin(), serial.end(), parallel.begin()))
        << testing::PatternName(pat);
    EXPECT_EQ(serial_stats.num_constant_blocks, omp_stats.num_constant_blocks);
    EXPECT_EQ(serial_stats.payload_bytes, omp_stats.payload_bytes);
  }
}

TEST_P(OmpThreadSweep, CrossDecoding) {
  const int threads = GetParam();
  const auto data = MakePattern<double>(Pattern::kNoisySine, 65537, 5);
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-4;
  const auto serial = Compress<double>(data, p);
  const double abs = PeekHeader(serial).error_bound_abs;

  // Serial stream, parallel decode.
  const auto out1 = DecompressOmp<double>(serial, threads);
  EXPECT_TRUE(WithinBound<double>(data, out1, abs));
  // Parallel stream, serial decode.
  const auto par = CompressOmp<double>(data, p, nullptr, threads);
  const auto out2 = Decompress<double>(par);
  EXPECT_TRUE(WithinBound<double>(data, out2, abs));
  // Parallel/parallel must equal serial/serial exactly.
  const auto out3 = Decompress<double>(serial);
  const auto out4 = DecompressOmp<double>(par, threads);
  EXPECT_EQ(out3, out4);
}

TEST_P(OmpThreadSweep, ParallelDecodeBitIdenticalToSerial) {
  const int threads = GetParam();
  for (auto pat : {Pattern::kSmoothSine, Pattern::kNoisySine,
                   Pattern::kSparseSpikes, Pattern::kRamp}) {
    const auto data = MakePattern<float>(pat, 100001, 11);
    Params p;
    p.mode = ErrorBoundMode::kValueRangeRelative;
    p.error_bound = 1e-3;
    const auto stream = Compress<float>(data, p);
    const auto serial = Decompress<float>(stream);
    const auto par = DecompressOmp<float>(stream, threads);
    ASSERT_EQ(serial.size(), par.size()) << testing::PatternName(pat);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(serial[i]),
                std::bit_cast<std::uint32_t>(par[i]))
          << testing::PatternName(pat) << " element " << i;
    }
    // The error-bound property must hold through the parallel decoder too.
    const double abs = PeekHeader(stream).error_bound_abs;
    EXPECT_TRUE(WithinBound<float>(data, par, abs)) << testing::PatternName(pat);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OmpThreadSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(OmpCodec, ParallelDecodeRejectsForgedTypeBits) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 50000, 9);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  auto stream = Compress<float>(data, p);
  ASSERT_EQ(PeekHeader(stream).flags & kFlagRawPassthrough, 0u);
  stream[sizeof(Header)] ^= std::byte{1};
  EXPECT_THROW(DecompressOmp<float>(stream, 4), Error);
}

TEST(OmpCodec, SmallInputsAllThreadCounts) {
  // Fewer blocks than threads must not break chunking.
  for (std::size_t n : {1u, 7u, 128u, 129u, 1024u}) {
    const auto data = MakePattern<float>(Pattern::kRamp, n, n);
    Params p;
    p.mode = ErrorBoundMode::kAbsolute;
    p.error_bound = 1e-4;
    const auto serial = Compress<float>(data, p);
    const auto par = CompressOmp<float>(data, p, nullptr, 8);
    EXPECT_EQ(serial, par) << n;
  }
}

TEST(OmpCodec, EmptyInput) {
  Params p;
  const auto stream = CompressOmp<float>(std::span<const float>(), p, nullptr, 4);
  EXPECT_TRUE(DecompressOmp<float>(stream, 4).empty());
}

// Incompressible input: the frame assembler writes the raw-passthrough
// frame itself, and it must match serial Compress byte for byte with and
// without the integrity footer, at every chunk count.
class OmpRawPassthrough
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(OmpRawPassthrough, AgreesWithSerial) {
  const auto [integrity, threads] = GetParam();
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 16384, 23);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-30;
  p.integrity = integrity;
  CompressionStats serial_stats, omp_stats;
  const auto serial = Compress<float>(data, p, &serial_stats);
  ASSERT_NE(PeekHeader(serial).flags & kFlagRawPassthrough, 0u);
  const auto par = CompressOmp<float>(data, p, &omp_stats, threads);
  EXPECT_EQ(serial, par);
  EXPECT_EQ(serial_stats.compressed_bytes, omp_stats.compressed_bytes);
  EXPECT_EQ(serial_stats.payload_bytes, omp_stats.payload_bytes);
  EXPECT_EQ(serial_stats.num_lossless_blocks, omp_stats.num_lossless_blocks);
  const auto out = DecompressOmp<float>(par, threads);
  for (std::size_t i = 0; i < data.size(); ++i) ASSERT_EQ(data[i], out[i]);
}

std::string RawPassthroughName(
    const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
  const auto [integrity, threads] = info.param;
  return std::string(integrity ? "integrity" : "plain") + "_threads" +
         std::to_string(threads);
}

INSTANTIATE_TEST_SUITE_P(
    IntegrityByThreads, OmpRawPassthrough,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2, 3, 8)),
    RawPassthroughName);

TEST(OmpCodec, ParallelDecodeRejectsCorruptStream) {
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 50000, 3);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  auto stream = Compress<float>(data, p);
  // Truncate the payload.
  stream.resize(stream.size() - 100);
  EXPECT_THROW(DecompressOmp<float>(stream, 4), Error);
}

// The serial entry points are the width-1 chunked codec, so an installed
// cancel token stops them exactly as it stops the width-N calls.
TEST(OmpCodec, PreArmedCancelStopsEveryEntryPointAtBothWidths) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 50000, 13);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const ByteBuffer stream = Compress<float>(data, p);
  std::vector<float> out(data.size());
  ScratchArena arena;
  exec::CancelToken token;
  token.Cancel();
  const exec::ScopedCancel scope(&token);
  EXPECT_THROW((void)Compress<float>(data, p), Cancelled);
  EXPECT_THROW((void)CompressInto<float>(data, p, arena), Cancelled);
  EXPECT_THROW(DecompressInto<float>(stream, std::span<float>(out)),
               Cancelled);
  for (const int w : {1, 4}) {
    EXPECT_THROW((void)CompressOmp<float>(data, p, nullptr, w), Cancelled)
        << w << " threads";
    EXPECT_THROW(DecompressOmpInto<float>(stream, std::span<float>(out), w),
                 Cancelled)
        << w << " threads";
  }
}

// A thread waiting in a parallel region runs only its own region's tasks.
// Wedge every pool worker, queue a foreign batch whose task runs the
// width-1 codec, then run the width-4 codec on this thread: it must finish
// its own call with the older foreign task still queued, and once the
// wedge opens both calls must still produce their own bytes.
TEST(OmpCodec, CodecReenteredByAHelpedTaskKeepsItsScratch) {
  exec::Executor& pool = exec::Executor::Default();
  const auto outer_data = MakePattern<float>(Pattern::kNoisySine, 100000, 17);
  const auto inner_data = MakePattern<float>(Pattern::kSmoothSine, 3000, 19);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const ByteBuffer outer_stream = Compress<float>(outer_data, p);
  const ByteBuffer inner_stream = Compress<float>(inner_data, p);
  const std::vector<float> outer_ref = Decompress<float>(outer_stream);
  const std::vector<float> inner_ref = Decompress<float>(inner_stream);

  struct Foreign {
    const std::vector<float>* data;
    const Params* params;
    const ByteBuffer* stream;
    ByteBuffer encoded;
    std::vector<float> decoded;
  } foreign{&inner_data, &p, &inner_stream, {}, {}};
  const auto run_foreign = [](void* ctx, std::uint64_t) {
    auto* f = static_cast<Foreign*>(ctx);
    f->encoded = Compress<float>(*f->data, *f->params);
    f->decoded = Decompress<float>(*f->stream);
  };

  for (const bool decode : {false, true}) {
    std::atomic<int> wedged{0};
    std::atomic<bool> release{false};
    struct Wedge {
      std::atomic<int>* wedged;
      std::atomic<bool>* release;
    } wedge{&wedged, &release};
    exec::Executor::Batch wedges;
    exec::Executor::Batch foreign_batch;
    // Opens the gate on every exit, a failed assertion included, before
    // the batches' destructors wait for their tasks.
    struct Opener {
      std::atomic<bool>* release;
      ~Opener() { release->store(true, std::memory_order_release); }  // szx-mo: release; pairs with the acquire spin inside the wedge tasks
    } opener{&release};
    pool.Submit(
        wedges, static_cast<std::uint64_t>(pool.workers()),
        [](void* ctx, std::uint64_t) {
          auto* w = static_cast<Wedge*>(ctx);
          w->wedged->fetch_add(1, std::memory_order_release);  // szx-mo: release; pairs with the test thread's acquire wait for every wedge
          while (!w->release->load(std::memory_order_acquire)) {  // szx-mo: acquire; pairs with the release store that opens the gate
            std::this_thread::yield();
          }
        },
        &wedge);
    while (wedged.load(std::memory_order_acquire) != pool.workers()) {  // szx-mo: acquire; pairs with each wedged task's release increment
      std::this_thread::yield();
    }
    pool.Submit(foreign_batch, 1, run_foreign, &foreign);

    if (decode) {
      std::vector<float> out(outer_data.size(),
                             std::numeric_limits<float>::quiet_NaN());
      DecompressOmpInto<float>(outer_stream, std::span<float>(out), 4);
      EXPECT_FALSE(foreign_batch.Done())
          << "the waiting codec ran a foreign task";
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(outer_ref[i]),
                  std::bit_cast<std::uint32_t>(out[i]))
            << "element " << i;
      }
    } else {
      EXPECT_EQ(CompressOmp<float>(outer_data, p, nullptr, 4), outer_stream);
      EXPECT_FALSE(foreign_batch.Done())
          << "the waiting codec ran a foreign task";
    }
    release.store(true, std::memory_order_release);  // szx-mo: release; pairs with the acquire spin inside the wedge tasks
    wedges.Wait();
    foreign_batch.Wait();
    EXPECT_EQ(foreign.encoded, inner_stream);
    EXPECT_EQ(foreign.decoded, inner_ref);
  }
}

}  // namespace
}  // namespace szx
