// Fuzz tier: deterministic corruption/truncation campaign over real streams.
//
// Every iteration is derived from (seed, iteration) alone, so a failure
// printed here replays exactly: see docs/testing.md.  Environment overrides
// for longer local campaigns:
//   SZX_FUZZ_SEED=<n>        override the campaign seed
//   SZX_FUZZ_ITERATIONS=<n>  override the iteration count
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "core/compressor.hpp"
#include "testkit/fuzzer.hpp"
#include "testkit/generators.hpp"

namespace szx::testkit {
namespace {

std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

template <SupportedFloat T>
ByteBuffer MakeBase(Gen g, std::size_t n, std::uint64_t seed,
                    ErrorBoundMode mode, double eb, CommitSolution sol,
                    std::uint32_t bs = 128) {
  Params p;
  p.mode = mode;
  p.error_bound = eb;
  p.block_size = bs;
  p.solution = sol;
  const std::vector<T> data = Generate<T>(g, n, seed);
  return Compress<T>(data, p);
}

// A corpus that reaches every stream shape: all three solutions, all three
// modes, constant/lossless/raw-passthrough frames, both element widths
// (the f64 base doubles as a type-confusion input for the float probe).
std::vector<ByteBuffer> FuzzBases() {
  std::vector<ByteBuffer> bases;
  bases.push_back(MakeBase<float>(Gen::kWave, 2000, 21,
                                  ErrorBoundMode::kAbsolute, 1e-3,
                                  CommitSolution::kC));
  bases.push_back(MakeBase<float>(Gen::kNoise, 1500, 22,
                                  ErrorBoundMode::kValueRangeRelative, 1e-3,
                                  CommitSolution::kA));
  bases.push_back(MakeBase<float>(Gen::kZeroHeavy, 1500, 23,
                                  ErrorBoundMode::kPointwiseRelative, 1e-2,
                                  CommitSolution::kB));
  bases.push_back(MakeBase<float>(Gen::kNonFinite, 1200, 24,
                                  ErrorBoundMode::kValueRangeRelative, 1e-3,
                                  CommitSolution::kC));
  bases.push_back(MakeBase<float>(Gen::kConstantBlocks, 2000, 25,
                                  ErrorBoundMode::kAbsolute, 1e-2,
                                  CommitSolution::kC, 64));
  bases.push_back(MakeBase<float>(Gen::kNoise, 300, 26,
                                  ErrorBoundMode::kAbsolute, 1e-12,
                                  CommitSolution::kC));  // raw passthrough
  bases.push_back(MakeBase<double>(Gen::kWave, 900, 27,
                                   ErrorBoundMode::kAbsolute, 1e-6,
                                   CommitSolution::kC));
  return bases;
}

void ReportFailure(const FuzzReport& report, const FuzzConfig& config) {
  ASSERT_TRUE(report.failure.has_value());
  const FuzzFailure& f = *report.failure;
  std::string hex;
  for (std::size_t i = 0; i < std::min<std::size_t>(f.minimized.size(), 96);
       ++i) {
    static const char* kDigits = "0123456789abcdef";
    const auto b = std::to_integer<std::uint8_t>(f.minimized[i]);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  FAIL() << "fuzz invariant violated at iteration " << f.iteration
         << " (seed " << config.seed << "): " << f.what << "\n  "
         << f.Repro(config) << "\n  minimized stream ("
         << f.minimized.size() << " bytes, first 96 shown): " << hex;
}

TEST(FuzzSmoke, CorruptionCampaignFloat) {
  const std::vector<ByteBuffer> bases = FuzzBases();
  FuzzConfig config;
  config.seed = EnvOr("SZX_FUZZ_SEED", 0xc0ffee5eedull);
  config.iterations = EnvOr("SZX_FUZZ_ITERATIONS", 45000);
  const FuzzReport report = RunCorruptionFuzzer<float>(bases, config);
  if (report.failure.has_value()) ReportFailure(report, config);
  EXPECT_EQ(report.iterations_run, config.iterations);
  // Both verdicts must actually occur: an all-reject campaign means the
  // mutator is too destructive to test the decode paths at all.
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.rejected, 0u);
  RecordProperty("mutations_applied",
                 static_cast<int>(report.mutations_applied));
}

TEST(FuzzSmoke, CorruptionCampaignDouble) {
  const std::vector<ByteBuffer> bases = FuzzBases();
  FuzzConfig config;
  config.seed = EnvOr("SZX_FUZZ_SEED", 0xd00b1e5eedull);
  config.iterations = EnvOr("SZX_FUZZ_ITERATIONS", 15000);
  const FuzzReport report = RunCorruptionFuzzer<double>(bases, config);
  if (report.failure.has_value()) ReportFailure(report, config);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.rejected, 0u);
}

// The acceptance gate: >= 100k mutations total across the two campaigns at
// their default settings.
TEST(FuzzSmoke, CampaignExecutesAtLeast100kMutations) {
  const std::vector<ByteBuffer> bases = FuzzBases();
  FuzzConfig config;
  config.seed = 0xc0ffee5eedull;
  config.iterations = 45000 + 15000;
  std::uint64_t mutations = 0;
  for (std::uint64_t i = 0; i < config.iterations; ++i) {
    std::uint64_t m = 0;
    MutatedStream(bases, config, i, nullptr, &m);
    mutations += m;
  }
  EXPECT_GE(mutations, 100000u);
}

// Determinism: the same (seed, iteration) must rebuild the same stream.
TEST(FuzzSmoke, MutationScheduleIsDeterministic) {
  const std::vector<ByteBuffer> bases = FuzzBases();
  FuzzConfig config;
  config.seed = 1234;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const ByteBuffer a = MutatedStream(bases, config, i);
    const ByteBuffer b = MutatedStream(bases, config, i);
    ASSERT_EQ(a, b) << "iteration " << i;
  }
}

// Regression (found by construction of this fuzzer): a coordinated
// num_elements/num_blocks inflation must be rejected as szx::Error before
// the decoder sizes its output -- not surface as std::bad_alloc.
TEST(FuzzRegression, HeaderInflationRejectedCleanly) {
  const ByteBuffer base = MakeBase<float>(
      Gen::kWave, 1024, 31, ErrorBoundMode::kAbsolute, 1e-3,
      CommitSolution::kC);
  ByteBuffer bad = base;
  Header h = PeekHeader(bad);
  h.num_elements = std::uint64_t{1} << 61;       // ~9 exabytes of floats
  h.num_blocks = (h.num_elements + h.block_size - 1) / h.block_size;
  // szx-lint: allow(raw-memcpy) -- test forges a hostile header in place
  std::memcpy(bad.data(), &h, sizeof(Header));
  const auto why = ProbeStream<float>(bad);
  ASSERT_FALSE(why.has_value()) << *why;
}

// Regression (campaign seed 0xc0ffee5eed, iteration 5365): a header with
// num_elements == 0 but num_blocks > 0 used to pass the consistency check
// (which was gated on num_elements > 0) and drive every decoder's block
// loop past an empty output buffer -- an out-of-bounds write.
TEST(FuzzRegression, ZeroElementsNonzeroBlocksRejected) {
  const ByteBuffer base = MakeBase<float>(
      Gen::kConstantBlocks, 2000, 25, ErrorBoundMode::kAbsolute, 1e-2,
      CommitSolution::kC, 64);
  ByteBuffer bad = base;
  Header h = PeekHeader(bad);
  h.num_elements = 0;  // num_blocks stays at its original nonzero value
  // szx-lint: allow(raw-memcpy) -- test forges a hostile header in place
  std::memcpy(bad.data(), &h, sizeof(Header));
  const auto why = ProbeStream<float>(bad);
  ASSERT_FALSE(why.has_value()) << *why;
}

// A printed failure must carry everything needed to replay it.
TEST(FuzzSelfCheck, FailureReproLineIsInformative) {
  FuzzFailure f;
  f.iteration = 7;
  f.base_index = 2;
  f.stream.resize(100, std::byte{0});
  f.minimized.resize(10, std::byte{0});
  FuzzConfig config;
  const std::string repro = f.Repro(config);
  EXPECT_NE(repro.find("iteration=*/7"), std::string::npos) << repro;
  EXPECT_NE(repro.find("base 2"), std::string::npos) << repro;
}

}  // namespace
}  // namespace szx::testkit
