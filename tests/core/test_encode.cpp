// Block encoder/decoder property tests for all three commit solutions
// (Fig. 5): round trips must respect the error bound implied by the
// required-length plan for every (type, pattern, block size, bound).
#include "core/encode.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/block_stats.hpp"
#include "../test_util.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::WithinBound;

template <SupportedFloat T>
void RoundTripOne(CommitSolution sol, Pattern pattern, std::size_t n,
                  double eb) {
  SCOPED_TRACE(std::string("pattern=") + testing::PatternName(pattern) +
               " n=" + std::to_string(n) + " eb=" + std::to_string(eb) +
               " sol=" + std::to_string(int(sol)));
  const auto data = MakePattern<T>(pattern, n, 3);
  const auto st = ComputeBlockStats<T>(std::span<const T>(data));
  ASSERT_TRUE(st.all_finite);
  if (st.radius <= eb) {
    // The frame codec stores such a block as its mu alone, so the contract
    // to check is that mu reconstructs every value within the bound.
    const std::vector<T> recon(n, st.mu);
    EXPECT_TRUE(WithinBound<T>(data, recon, eb));
    return;
  }
  // Mirror the codec: fall back to the exact lossless plan when truncation
  // cannot deliver the requested bound.
  ReqPlan plan = ComputeReqPlan<T>(ExponentOf(st.radius), ExponentOf(eb));
  T mu = st.mu;
  if (plan.exceeds_precision) {
    plan = LosslessPlan<T>();
    mu = T(0);
  }
  ByteBuffer payload;
  std::size_t zsize = 0;
  switch (sol) {
    case CommitSolution::kA:
      zsize = EncodeBlockA<T>(data, mu, plan, payload);
      break;
    case CommitSolution::kB:
      zsize = EncodeBlockB<T>(data, mu, plan, payload);
      break;
    case CommitSolution::kC:
      zsize = EncodeBlockC<T>(data, mu, plan, payload);
      break;
  }
  EXPECT_EQ(zsize, payload.size());
  EXPECT_LE(zsize, MaxBlockPayload<T>(n) + 8);

  std::vector<T> out(n);
  switch (sol) {
    case CommitSolution::kA:
      DecodeBlockA<T>(payload, mu, plan, out);
      break;
    case CommitSolution::kB:
      DecodeBlockB<T>(payload, mu, plan, out);
      break;
    case CommitSolution::kC:
      DecodeBlockC<T>(payload, mu, plan, out);
      break;
  }
  EXPECT_TRUE(WithinBound<T>(data, out, eb));
}

using Case = std::tuple<int /*solution*/, int /*pattern*/, int /*n*/,
                        double /*eb*/>;

class EncodeSweepF32 : public ::testing::TestWithParam<Case> {};
class EncodeSweepF64 : public ::testing::TestWithParam<Case> {};

TEST_P(EncodeSweepF32, RoundTripRespectsBound) {
  const auto [sol, pat, n, eb] = GetParam();
  RoundTripOne<float>(static_cast<CommitSolution>(sol),
                      static_cast<Pattern>(pat), static_cast<std::size_t>(n),
                      eb);
}

TEST_P(EncodeSweepF64, RoundTripRespectsBound) {
  const auto [sol, pat, n, eb] = GetParam();
  RoundTripOne<double>(static_cast<CommitSolution>(sol),
                       static_cast<Pattern>(pat), static_cast<std::size_t>(n),
                       eb);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodeSweepF32,
    ::testing::Combine(::testing::Values(0, 1, 2),           // A, B, C
                       ::testing::Range(0, 8),               // patterns
                       ::testing::Values(4, 17, 128, 333),   // block sizes
                       ::testing::Values(1e-1, 1e-3, 1e-6)));

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodeSweepF64,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Range(0, 8),
                       ::testing::Values(4, 17, 128, 333),
                       ::testing::Values(1e-1, 1e-3, 1e-9)));

TEST(EncodeBlockC, LosslessPlanPreservesSpecialValues) {
  // The lossless path (req = total bits, mu = 0) must reproduce NaN/Inf
  // bit patterns exactly.
  std::vector<float> data = {1.5f, std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::infinity(), 0.0f,
                             -0.0f, std::numeric_limits<float>::denorm_min()};
  ReqPlan plan;
  plan.req_length = 32;
  plan.shift = 0;
  plan.num_bytes = 4;
  ByteBuffer payload;
  EncodeBlockC<float>(data, 0.0f, plan, payload);
  std::vector<float> out(data.size());
  DecodeBlockC<float>(payload, 0.0f, plan, out);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(data[i]),
              std::bit_cast<std::uint32_t>(out[i]))
        << i;
  }
}

TEST(EncodeBlockC, ConstantRunCompressesToLeadCodesOnly) {
  // Identical values after the first should cost zero or one mid byte each
  // thanks to the lead-byte codes.
  const std::vector<float> data(128, 42.0f);
  ReqPlan plan = ComputeReqPlan<float>(0, -10);
  ByteBuffer payload;
  const std::size_t zsize = EncodeBlockC<float>(data, 41.0f, plan, payload);
  // lead array (32 bytes) + first value (nb bytes) + at most one byte each.
  EXPECT_LE(zsize, LeadArrayBytes(128) + plan.num_bytes + 127);
}

TEST(EncodeBlockC, TruncatedPayloadThrows) {
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 64, 3);
  const auto st = ComputeBlockStats<float>(std::span<const float>(data));
  const ReqPlan plan =
      ComputeReqPlan<float>(ExponentOf(st.radius), ExponentOf(1e-4));
  ByteBuffer payload;
  EncodeBlockC<float>(data, st.mu, plan, payload);
  std::vector<float> out(64);
  ByteSpan cut(payload.data(), payload.size() / 2);
  EXPECT_THROW(DecodeBlockC<float>(cut, st.mu, plan, out), Error);
  ByteSpan tiny(payload.data(), 3);
  EXPECT_THROW(DecodeBlockC<float>(tiny, st.mu, plan, out), Error);
}

TEST(EncodeBlockA, TruncatedPayloadThrows) {
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 64, 3);
  const auto st = ComputeBlockStats<float>(std::span<const float>(data));
  const ReqPlan plan =
      ComputeReqPlan<float>(ExponentOf(st.radius), ExponentOf(1e-4));
  ByteBuffer payload;
  EncodeBlockA<float>(data, st.mu, plan, payload);
  std::vector<float> out(64);
  ByteSpan cut(payload.data(), payload.size() / 2);
  EXPECT_THROW(DecodeBlockA<float>(cut, st.mu, plan, out), Error);
}

TEST(EncodeBlockB, TruncatedPayloadThrows) {
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 64, 3);
  const auto st = ComputeBlockStats<float>(std::span<const float>(data));
  const ReqPlan plan =
      ComputeReqPlan<float>(ExponentOf(st.radius), ExponentOf(1e-4));
  ByteBuffer payload;
  EncodeBlockB<float>(data, st.mu, plan, payload);
  std::vector<float> out(64);
  ByteSpan cut(payload.data(), payload.size() / 3);
  EXPECT_THROW(DecodeBlockB<float>(cut, st.mu, plan, out), Error);
}

TEST(CharacterizeShiftOverhead, CountsMatchEncoders) {
  // The Fig. 6 characterization must agree with the actual encoders' mid
  // sections: solution_c_bits == 8 * (C mid bytes), and the A/B count equals
  // the bit total the Solution A bit stream stores.
  for (auto p : {Pattern::kSmoothSine, Pattern::kNoisySine,
                 Pattern::kUniformNoise}) {
    const auto data = MakePattern<float>(p, 128, 11);
    const auto st = ComputeBlockStats<float>(std::span<const float>(data));
    const ReqPlan plan =
        ComputeReqPlan<float>(ExponentOf(st.radius), ExponentOf(1e-4));
    const auto bits = CharacterizeShiftOverhead<float>(data, st.mu, plan);

    ByteBuffer payload_c;
    const std::size_t zc = EncodeBlockC<float>(data, st.mu, plan, payload_c);
    const std::size_t mid_c = zc - LeadArrayBytes(128);
    EXPECT_EQ(bits.solution_c_bits, mid_c * 8) << testing::PatternName(p);
    // Note: the paper's Fig. 6 shows the C-vs-AB overhead can be negative
    // (the shift can *increase* identical leading bytes), so no ordering is
    // asserted between the two counts.
  }
}

}  // namespace
}  // namespace szx
