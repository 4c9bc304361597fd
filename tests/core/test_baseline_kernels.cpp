// Tier bit-identity for the baseline-codec kernels: every BaselineOps table
// (scalar, AVX2, NEON) must reproduce ScalarBaselineOps exactly -- same
// int32 codes, same float bit patterns -- or compressed streams would depend
// on the CPU.  A tier the build lacks falls back to scalar via
// BaselineOpsFor, so the comparison is trivially true there.
#include "core/kernels/kernels.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace szx::kernels {
namespace {

using szx::testing::Rng;

std::vector<Kind> SupportedKinds() {
  std::vector<Kind> kinds;
  for (const TierInfo& tier : KernelTiers()) {
    if (tier.supported) kinds.push_back(tier.kind);
  }
  return kinds;
}

// Floats chosen to stress every prequant branch: rounding ties, the +-2^27
// clamp, non-finites, subnormals, and signed zeros.
std::vector<float> EdgeCaseFloats() {
  std::vector<float> v = {
      0.0f,
      -0.0f,
      1.0f,
      -1.0f,
      0.5f,
      -0.5f,
      1.5f,
      2.5f,  // round-to-nearest-even tie cases (for half_inv = 1)
      3.5f,
      -2.5f,
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1.0e30f,  // far beyond the clamp
      -1.0e30f,
      1.34217728e8f,  // 2^27, exactly at the clamp
      -1.34217728e8f,
      1.34217727e8f,
      std::nextafter(1.0f, 2.0f),
  };
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    v.push_back(static_cast<float>(rng.Uniform(-1e6, 1e6)));
  }
  return v;
}

TEST(BaselineKernels, PrequantMatchesScalarOnEveryTier) {
  const std::vector<float> src = EdgeCaseFloats();
  const std::vector<double> half_invs = {1.0, 0.5, 1234.5, 1.0 / 3.0, 5e8};
  for (const Kind kind : SupportedKinds()) {
    const BaselineOps& ops = BaselineOpsFor(kind);
    for (const double half_inv : half_invs) {
      // Vary the length to hit both the vector body and the scalar tail.
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{7}, std::size_t{15}, std::size_t{16},
                            std::size_t{17}, src.size()}) {
        std::vector<std::int32_t> got(n + 1, -99);
        std::vector<std::int32_t> want(n + 1, -99);
        ops.prequant_f32(src.data(), n, half_inv, got.data());
        ScalarBaselineOps().prequant_f32(src.data(), n, half_inv,
                                         want.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], PrequantOne(src[i], half_inv))
              << KindName(kind) << " n=" << n << " i=" << i;
        }
        // No write past n (the sentinel survives).
        ASSERT_EQ(got, want) << KindName(kind) << " n=" << n;
      }
    }
  }
}

TEST(BaselineKernels, LorenzoDeltaMatchesScalarOnEveryTier) {
  Rng rng(22);
  constexpr std::size_t kRow = 37;  // odd, exercises every tail length
  std::vector<std::int32_t> q(4 * (kRow + 1));
  for (auto& x : q) {
    // Values inside the kPrequantClamp contract plus a few wild ones, to
    // confirm the int64 intermediate wraps identically everywhere.
    x = static_cast<std::int32_t>(rng.Next());
    if (rng.Next() % 2 == 0) x %= kPrequantClamp;
  }
  // Pointers sit one element into each backing row so that has_left=true
  // (index -1 is a valid left-neighbour column) stays in bounds, exactly
  // like an interior block row in sz2.
  // szx-lint: allow(ptr-arith) -- fixed offsets into rows of kRow+1 elements allocated just above; the kernel ABI takes raw row pointers
  const std::int32_t* row = q.data() + 1;
  // szx-lint: allow(ptr-arith) -- same fixed row offsets
  const std::int32_t* ry = q.data() + (kRow + 1) + 1;
  // szx-lint: allow(ptr-arith) -- same fixed row offsets
  const std::int32_t* rz = q.data() + 2 * (kRow + 1) + 1;
  // szx-lint: allow(ptr-arith) -- same fixed row offsets
  const std::int32_t* ryz = q.data() + 3 * (kRow + 1) + 1;
  struct Config {
    const std::int32_t* qy;
    const std::int32_t* qz;
    const std::int32_t* qyz;
  };
  const Config configs[] = {
      {nullptr, nullptr, nullptr},  // 1-D / first row
      {ry, nullptr, nullptr},       // 2-D interior
      {nullptr, rz, nullptr},       // 3-D, first row of a plane
      {ry, rz, ryz},                // 3-D interior
  };
  for (const Kind kind : SupportedKinds()) {
    const BaselineOps& ops = BaselineOpsFor(kind);
    for (const Config& c : configs) {
      for (const bool has_left : {false, true}) {
        for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{15},
                              std::size_t{16}, std::size_t{17}, kRow}) {
          std::vector<std::int32_t> got(n, -1);
          std::vector<std::int32_t> want(n, -2);
          ops.lorenzo_delta_i32(row, c.qy, c.qz, c.qyz, has_left, n,
                                got.data());
          ScalarBaselineOps().lorenzo_delta_i32(row, c.qy, c.qz, c.qyz,
                                                has_left, n, want.data());
          ASSERT_EQ(got, want)
              << KindName(kind) << " has_left=" << has_left << " n=" << n;
        }
      }
    }
  }
}

TEST(BaselineKernels, DequantMatchesScalarBitExactlyOnEveryTier) {
  Rng rng(33);
  std::vector<std::int32_t> q = {0,
                                 1,
                                 -1,
                                 kPrequantClamp,
                                 -kPrequantClamp,
                                 std::numeric_limits<std::int32_t>::max(),
                                 std::numeric_limits<std::int32_t>::min()};
  for (int i = 0; i < 200; ++i) {
    q.push_back(static_cast<std::int32_t>(rng.Next()) % kPrequantClamp);
  }
  for (const Kind kind : SupportedKinds()) {
    const BaselineOps& ops = BaselineOpsFor(kind);
    for (const double twice_eb : {2e-3, 1.0, 7.5e6}) {
      for (std::size_t n : {std::size_t{0}, std::size_t{5}, std::size_t{16},
                            std::size_t{31}, q.size()}) {
        std::vector<float> got(n + 1, -7.0f);
        std::vector<float> want(n + 1, -7.0f);
        ops.dequant_f32(q.data(), n, twice_eb, got.data());
        ScalarBaselineOps().dequant_f32(q.data(), n, twice_eb, want.data());
        for (std::size_t i = 0; i <= n; ++i) {
          // Bit-level equality: 0.0f == -0.0f would mask a sign difference.
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                    std::bit_cast<std::uint32_t>(want[i]))
              << KindName(kind) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

std::vector<std::int32_t> RandomBlock(Rng& rng, int dims, bool extreme) {
  std::vector<std::int32_t> block(std::size_t{1} << (2 * dims));
  for (auto& x : block) {
    x = static_cast<std::int32_t>(rng.Next());
    // Mostly in-range coefficients, occasionally int32 extremes so the
    // wrap-around contract is exercised too.
    if (!extreme) x >>= 4;
  }
  return block;
}

TEST(BaselineKernels, ZfpTransformsMatchScalarOnEveryTier) {
  Rng rng(44);
  for (const Kind kind : SupportedKinds()) {
    const BaselineOps& ops = BaselineOpsFor(kind);
    for (int dims = 1; dims <= 3; ++dims) {
      for (int trial = 0; trial < 50; ++trial) {
        const auto block = RandomBlock(rng, dims, trial % 5 == 0);
        auto fwd_got = block;
        auto fwd_want = block;
        ops.zfp_fwd_xform(fwd_got.data(), dims);
        ScalarBaselineOps().zfp_fwd_xform(fwd_want.data(), dims);
        ASSERT_EQ(fwd_got, fwd_want)
            << KindName(kind) << " fwd dims=" << dims << " trial=" << trial;

        auto inv_got = block;
        auto inv_want = block;
        ops.zfp_inv_xform(inv_got.data(), dims);
        ScalarBaselineOps().zfp_inv_xform(inv_want.data(), dims);
        ASSERT_EQ(inv_got, inv_want)
            << KindName(kind) << " inv dims=" << dims << " trial=" << trial;
      }
    }
  }
}

TEST(BaselineKernels, ZfpBitPlanesMatchScalarOnEveryTier) {
  // Every block size the codec uses (and odd ones in between), every plane;
  // depositing every extracted plane must rebuild the coefficients.
  Rng rng(66);
  for (const Kind kind : SupportedKinds()) {
    const BaselineOps& ops = BaselineOpsFor(kind);
    for (const std::size_t n : {1u, 4u, 7u, 16u, 33u, 64u}) {
      std::vector<std::uint32_t> coeffs(n);
      for (auto& c : coeffs) c = static_cast<std::uint32_t>(rng.Next());
      std::vector<std::uint32_t> back(n, 0);
      for (int k = 0; k < 32; ++k) {
        const std::uint64_t x = ops.zfp_extract_plane(coeffs.data(), n, k);
        ASSERT_EQ(x, ScalarBaselineOps().zfp_extract_plane(coeffs.data(), n,
                                                           k))
            << KindName(kind) << " n=" << n << " k=" << k;
        ops.zfp_deposit_plane(back.data(), n, x, k);
      }
      ASSERT_EQ(back, coeffs) << KindName(kind) << " n=" << n;
    }
  }
}

TEST(BaselineKernels, ZfpInverseNearlyUndoesForwardOnEveryTier) {
  // The lifting steps use floor shifts, so fwd-then-inv can lose a few low
  // bits per element (that loss is inside zfp's error budget).  Two
  // properties must hold on every tier: the reconstruction error stays a
  // tiny additive constant, and every tier reconstructs the *same* value.
  Rng rng(55);
  for (const Kind kind : SupportedKinds()) {
    const BaselineOps& ops = BaselineOpsFor(kind);
    for (int dims = 1; dims <= 3; ++dims) {
      for (int trial = 0; trial < 20; ++trial) {
        auto block = RandomBlock(rng, dims, /*extreme=*/false);
        for (auto& x : block) x >>= 2;
        auto work = block;
        ops.zfp_fwd_xform(work.data(), dims);
        ops.zfp_inv_xform(work.data(), dims);
        auto ref = block;
        ScalarBaselineOps().zfp_fwd_xform(ref.data(), dims);
        ScalarBaselineOps().zfp_inv_xform(ref.data(), dims);
        ASSERT_EQ(work, ref) << KindName(kind) << " dims=" << dims;
        for (std::size_t i = 0; i < block.size(); ++i) {
          ASSERT_LE(std::abs(static_cast<std::int64_t>(work[i]) - block[i]),
                    64)
              << KindName(kind) << " dims=" << dims << " i=" << i;
        }
      }
    }
  }
}

TEST(BaselineKernels, TierTableIsConsistent) {
  const auto tiers = KernelTiers();
  ASSERT_EQ(tiers.size(), static_cast<std::size_t>(kNumKinds));
  EXPECT_EQ(tiers[0].kind, Kind::kScalar);
  EXPECT_TRUE(tiers[0].compiled);
  EXPECT_TRUE(tiers[0].supported);
  for (const TierInfo& tier : tiers) {
    // Supported implies compiled; BaselineOpsFor never returns null entries.
    if (tier.supported) {
      EXPECT_TRUE(tier.compiled) << KindName(tier.kind);
    }
    const BaselineOps& ops = BaselineOpsFor(tier.kind);
    EXPECT_NE(ops.prequant_f32, nullptr);
    EXPECT_NE(ops.lorenzo_delta_i32, nullptr);
    EXPECT_NE(ops.dequant_f32, nullptr);
    EXPECT_NE(ops.zfp_fwd_xform, nullptr);
    EXPECT_NE(ops.zfp_inv_xform, nullptr);
    EXPECT_NE(ops.zfp_extract_plane, nullptr);
    EXPECT_NE(ops.zfp_deposit_plane, nullptr);
  }
  // Every spelled name parses back to its Kind.
  for (const TierInfo& tier : tiers) {
    Kind parsed{};
    ASSERT_TRUE(ParseKind(KindName(tier.kind), parsed));
    EXPECT_EQ(parsed, tier.kind);
  }
  Kind parsed{};
  EXPECT_FALSE(ParseKind("sse9", parsed));
}

TEST(BaselineKernels, LorenzoPredictAtInvertsDeltaOnGrid) {
  // Encode-side delta (row-pointer form) and decode-side prediction
  // (flat-index form) must be exact inverses over a full 3-D grid.
  constexpr std::size_t nx = 9, ny = 5, nz = 4;
  Rng rng(66);
  std::vector<std::int32_t> q(nx * ny * nz);
  for (auto& x : q) {
    x = static_cast<std::int32_t>(rng.Next() % (2 * kPrequantClamp)) -
        kPrequantClamp;
  }
  std::vector<std::int32_t> delta(q.size());
  const BaselineOps& ops = ScalarBaselineOps();
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      const std::size_t row = (z * ny + y) * nx;
      // szx-lint: allow(ptr-arith) -- row indexes the nx*ny*nz grid built above; the kernel ABI takes raw row pointers
      const std::int32_t* qrow = q.data() + row;
      const std::int32_t* qy = y > 0 ? qrow - nx : nullptr;
      const std::int32_t* qz = z > 0 ? qrow - nx * ny : nullptr;
      const std::int32_t* qyz =
          (y > 0 && z > 0) ? qrow - nx - nx * ny : nullptr;
      // szx-lint: allow(ptr-arith) -- same row offset into the delta grid of identical size
      std::int32_t* drow = delta.data() + row;
      ops.lorenzo_delta_i32(qrow, qy, qz, qyz, /*has_left=*/false, nx, drow);
    }
  }
  std::vector<std::int32_t> recon(q.size());
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t i = (z * ny + y) * nx + x;
        const std::int64_t pred =
            LorenzoPredictAt(recon.data(), i, x, y, z, nx, nx * ny);
        recon[i] = static_cast<std::int32_t>(pred + delta[i]);
      }
    }
  }
  EXPECT_EQ(recon, q);
}

}  // namespace
}  // namespace szx::kernels
