// Conformance tier: seeded property-based differential tests.
//
// For every (adversarial input x error mode x commit solution) cell, the
// serial, chunk-parallel, and cusim schedules must emit byte-identical streams,
// every decoder must reconstruct bit-identical values, and the
// reconstruction must satisfy the mode's error-bound oracle.  Inputs cover
// denormals, NaN/Inf, constant blocks, range collapse, 1-ulp steps, and
// sizes straddling block boundaries (src/testkit/generators.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "testkit/differential.hpp"
#include "testkit/generators.hpp"
#include "testkit/oracle.hpp"

namespace szx::testkit {
namespace {

struct Cell {
  ErrorBoundMode mode;
  CommitSolution solution;
  double eb;
};

std::vector<Cell> FullMatrix() {
  std::vector<Cell> cells;
  for (const ErrorBoundMode mode :
       {ErrorBoundMode::kAbsolute, ErrorBoundMode::kValueRangeRelative,
        ErrorBoundMode::kPointwiseRelative}) {
    for (const CommitSolution sol :
         {CommitSolution::kA, CommitSolution::kB, CommitSolution::kC}) {
      cells.push_back({mode, sol,
                       mode == ErrorBoundMode::kAbsolute ? 1e-3 : 1e-2});
    }
  }
  return cells;
}

class DifferentialMatrix : public ::testing::TestWithParam<int> {
 protected:
  Cell cell() const { return FullMatrix()[static_cast<std::size_t>(
      GetParam())]; }
  Params MakeParams(std::uint32_t block_size) const {
    Params p;
    p.mode = cell().mode;
    p.error_bound = cell().eb;
    p.block_size = block_size;
    p.solution = cell().solution;
    return p;
  }
};

template <SupportedFloat T>
void RunCases(const Params& params) {
  for (const InputCase& c : StandardCases(params.block_size)) {
    const std::vector<T> data = Generate<T>(c.gen, c.n, c.seed);
    const DifferentialReport r = RunDifferential<T>(data, params);
    ASSERT_TRUE(r.ok) << c.name << ": " << r.detail;
  }
}

TEST_P(DifferentialMatrix, Float32StandardCases) {
  RunCases<float>(MakeParams(128));
}

TEST_P(DifferentialMatrix, Float64StandardCases) {
  RunCases<double>(MakeParams(128));
}

std::string CellName(const ::testing::TestParamInfo<int>& info) {
  const Cell c = FullMatrix()[static_cast<std::size_t>(info.param)];
  const char* mode = c.mode == ErrorBoundMode::kAbsolute ? "abs"
                     : c.mode == ErrorBoundMode::kValueRangeRelative
                         ? "rel"
                         : "pwrel";
  const char sol = static_cast<char>('A' + static_cast<int>(c.solution));
  return std::string(mode) + "_sol" + sol;
}

INSTANTIATE_TEST_SUITE_P(AllCells, DifferentialMatrix,
                         ::testing::Range(0, 9), CellName);

// Block sizes at and around the admitted extremes: the tail-block and
// type-bit concatenation logic must hold at every granularity.
TEST(DifferentialBlockSizes, BoundaryBlockSizes) {
  for (const std::uint32_t bs : {kMinBlockSize, 32u, 500u, kMaxBlockSize}) {
    Params p;
    p.mode = ErrorBoundMode::kAbsolute;
    p.error_bound = 1e-3;
    p.block_size = bs;
    for (const Gen g : {Gen::kWave, Gen::kDenormals, Gen::kNonFinite,
                        Gen::kConstantBlocks}) {
      for (const std::size_t n :
           {std::size_t{1}, std::size_t{bs} - 1, std::size_t{bs},
            std::size_t{bs} + 1, 3 * std::size_t{bs} + 1}) {
        const std::vector<float> data = Generate<float>(g, n, 0xb5 + n);
        const DifferentialReport r = RunDifferential<float>(data, p);
        ASSERT_TRUE(r.ok) << GenName(g) << " bs=" << bs << " n=" << n << ": "
                          << r.detail;
      }
    }
  }
}

// Empty input is a legal stream in every cell.
TEST(DifferentialEdge, EmptyInput) {
  for (const CommitSolution sol :
       {CommitSolution::kA, CommitSolution::kB, CommitSolution::kC}) {
    Params p;
    p.solution = sol;
    const DifferentialReport r =
        RunDifferential<float>(std::span<const float>{}, p);
    ASSERT_TRUE(r.ok) << r.detail;
  }
}

// The harness itself must detect violations: feed the oracle a
// reconstruction that breaks the bound and a stream pair that diverges,
// and require both to be flagged.  This is the conformance tier's
// self-test against silently passing.
TEST(HarnessSelfCheck, OracleFlagsBoundViolation) {
  const std::vector<float> data = Generate<float>(Gen::kWave, 256, 1);
  std::vector<float> recon = data;
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  recon[100] += 1.0f;  // 1000x the bound
  const auto why =
      CheckErrorBound<float>(data, recon, p, p.error_bound);
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("index 100"), std::string::npos) << *why;
}

TEST(HarnessSelfCheck, OracleFlagsNonFiniteDrift) {
  std::vector<float> data(8, 1.0f);
  data[3] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> recon = data;
  recon[3] = 0.0f;  // NaN silently replaced
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1.0;
  ASSERT_TRUE(CheckErrorBound<float>(data, recon, p, 1.0).has_value());
}

TEST(HarnessSelfCheck, BitIdenticalFlagsSingleUlp) {
  std::vector<float> a(16, 1.5f);
  std::vector<float> b = a;
  b[7] = std::nextafterf(b[7], 2.0f);
  ASSERT_TRUE(CheckBitIdentical<float>(a, b, "selfcheck").has_value());
}

}  // namespace
}  // namespace szx::testkit
