// Vectorized SZx block kernels with runtime CPU dispatch.
//
// Three hot paths are implemented twice, as a portable scalar version and
// an AVX2 version: the block-stats pass (min/max/finiteness per block, then
// mu and radius, plus the finite range of the whole chunk), the plain
// finite-range scan behind ComputeGlobalRange, and the fused Solution-C
// block codec -- normalize (v - mu), right-shift, mask, XOR-with-previous,
// 2-bit lead codes, then the mid-byte commit.  The scalar commit stores one
// word per value; the AVX2 commit compacts each 128-bit half of truncated
// words with one table-driven byte shuffle and stores it with one 16-byte
// store.  Both tiers produce bit-identical stats and ranges and
// byte-identical streams (tests/core/test_kernels.cpp, test_block_stats.cpp
// and test_frame_encoder.cpp enforce it; the golden corpus is the format
// oracle).
//
// Dispatch model (docs/performance.md):
//   - The implementation is chosen once per process, cpuid-style: AVX2 when
//     the AVX2 TUs are built (SZX_HAVE_AVX2) and the CPU reports support.
//     This is the only ISA selector: kernels_avx2.cpp and baseline_avx2.cpp
//     alone are compiled with -mavx2, every other TU at the baseline ISA,
//     so one binary runs on CPUs with and without AVX2
//     (analysis.avx2-confined checks the split).
//   - `SZX_KERNEL=scalar|avx2|neon` overrides the choice for differential
//     testing; the scalar tier is the differential reference, and forcing
//     it runs exactly the code a CPU without AVX2 runs.  An unavailable
//     tier falls back to scalar with a one-time warning.
//   - ScalarOps/Avx2Ops expose both tables directly for tests and benches
//     that must compare implementations inside one process.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/block_stats.hpp"
#include "core/encode.hpp"

namespace szx::kernels {

static_assert(std::endian::native == std::endian::little,
              "the word-wide commit kernels assume a little-endian target");

/// Which implementation a BlockOps/BaselineOps table belongs to.
enum class Kind { kScalar = 0, kAvx2 = 1, kNeon = 2 };

inline constexpr int kNumKinds = 3;

const char* KindName(Kind kind);

/// Parses a SZX_KERNEL / --kernel spelling into a Kind.  Returns false for
/// unknown names (the caller decides whether that is a warning or an error).
[[nodiscard]] bool ParseKind(const char* name, Kind& out);

/// Throws Error(what).  Defined in a baseline-ISA TU, so the kernels'
/// throw sites build no std::string in the -mavx2 TUs: an optimized build
/// may emit that constructor there as a weak, VEX-encoded copy that the
/// linker then hands to baseline-ISA callers.
[[noreturn]] void ThrowError(const char* what);

/// True when the AVX2 kernels were compiled in and the CPU supports them.
bool Avx2Supported();

/// True when the NEON kernels were compiled in (aarch64 builds only; NEON is
/// architecturally guaranteed there, so compiled implies supported).
bool NeonSupported();

/// Whether a tier's implementation was compiled into this binary at all.
bool KindCompiled(Kind kind);

/// Compiled and usable on this CPU.
bool KindSupported(Kind kind);

/// One row of the dispatch table, for introspection (`szx_cli --kernel list`).
struct TierInfo {
  Kind kind;
  bool compiled;
  bool supported;
};

/// All tiers in preference order (scalar, avx2, neon).
std::array<TierInfo, kNumKinds> KernelTiers();

/// The process-wide selection (env override applied), chosen on first use.
Kind ActiveKind();

/// Replaces the process-wide selection (used by the CLI's --kernel flag and
/// the bench grid to switch implementations without a subprocess).
/// Requesting an unsupported tier falls back to scalar, mirroring the env
/// override.  Returns the kind actually installed.
Kind SetActiveKind(Kind kind);

/// Slack past MaxBlockPayload<T>(n) in every encode destination.
///
/// The commits store more bytes than they keep: the scalar commit writes
/// one whole word (sizeof(T) bytes) per value, the AVX2 commit 16 bytes per
/// 128-bit half of 4 float or 2 double lanes.  Each store starts at a
/// cursor at most sizeof(T) bytes per earlier value past the lead array and
/// covers exactly its own values' worst case (one word, or 16 bytes =
/// 16 / sizeof(T) values of sizeof(T) bytes), so it ends inside
/// MaxBlockPayload<T>(n) and this slack stays untouched.  Bytes past the
/// live payload are scribbled (overwritten by the next store or ignored at
/// the end).  KernelTypedTest.EveryCommitTableEntryMatchesScalar keeps a
/// canary over the slack and past the end of an EncodeCapacity buffer on
/// every commit-table row.
inline constexpr std::size_t kCommitSlack = 8;

/// Required destination capacity for EncodeC on an n-element block.
template <SupportedFloat T>
inline constexpr std::size_t EncodeCapacity(std::size_t n) {
  return MaxBlockPayload<T>(n) + kCommitSlack;
}

/// Worst-case payload-section capacity for a frame of `num_blocks` blocks of
/// size `bs` covering `data_bytes` of input: every block non-constant, each
/// contributing its lead array plus all mid bytes (bounded jointly by the
/// input size), plus 8 bytes per block for Solution B's bit-count word, plus
/// kCommitSlack.  Blocks are encoded back to back, and each block's commits
/// end inside its own MaxBlockPayload, so every store of block k ends
/// inside the first k + 1 blocks' worst case.  Sized from the block plan so
/// frame encoders never reallocate mid-compression.
inline constexpr std::size_t FramePayloadCapacity(std::uint64_t num_blocks,
                                                  std::uint32_t bs,
                                                  std::size_t data_bytes) {
  return static_cast<std::size_t>(num_blocks) * (LeadArrayBytes(bs) + 8) +
         data_bytes + kCommitSlack;
}

/// Function table for one element type.  Pointers are never null.
template <SupportedFloat T>
struct BlockOps {
  /// Block-stats pass over data[0, n) cut into `bs`-element blocks (the
  /// last one may be short): writes the ceil(n / bs) blocks' stats to
  /// out[0, ceil(n / bs)) and returns the finite range of data[0, n).  An
  /// all-finite block contributes its own min/max to the range; a block
  /// holding NaN/Inf contributes its finite values only.  One call covers
  /// a whole chunk, so the per-block work stays inlined in the kernel.
  GlobalRange<T> (*block_stats)(const T* data, std::size_t n, std::size_t bs,
                                BlockStats<T>* out);
  /// Finite range of data[0, n) (NaN/Inf skipped), without block stats:
  /// the pass behind ComputeGlobalRange.  Endpoints agree with
  /// ScanFiniteRange up to the sign of a zero, which no bound depends on.
  GlobalRange<T> (*finite_range)(const T* data, std::size_t n);
  /// Fused Solution-C encode of one block into `dst` (lead array followed by
  /// mid bytes).  plan.num_bytes must lie in [1, sizeof(T)], as it does for
  /// every ComputeReqPlan / LosslessPlan / PlanFromReqLength result (the
  /// AVX2 commit tables have one row set per value).  `dst` must hold
  /// EncodeCapacity<T>(n) bytes; the return
  /// value is the live payload size (<= MaxBlockPayload<T>(n)).  Bytes past
  /// the returned size may be scribbled by the commits (see kCommitSlack).
  std::size_t (*encode_c)(const T* block, std::size_t n, T mu,
                          const ReqPlan& plan, std::byte* dst);
  /// Bounds-checked Solution-C decode of `payload` (lead array + mid bytes,
  /// payload_size of them) into `out`.  `readable` (>= payload_size) is how
  /// many bytes from `payload` the kernel may read but never use: the rest
  /// of the payload section, so the AVX2 expand loads run to the end of the
  /// block instead of stopping a guard's width before it.  The decoded bits
  /// and the truncation throws depend on payload_size alone (szx::Error on
  /// truncation, like DecodeBlockC).
  void (*decode_c)(const std::byte* payload, std::size_t payload_size,
                   std::size_t readable, T mu, const ReqPlan& plan, T* out,
                   std::size_t n);
};

template <SupportedFloat T>
const BlockOps<T>& ScalarOps();

/// The AVX2 table, or the scalar table when AVX2 is unavailable.
template <SupportedFloat T>
const BlockOps<T>& Avx2Ops();

/// The NEON tier aliases the scalar BlockOps table on non-aarch64 builds.
template <SupportedFloat T>
const BlockOps<T>& NeonOps();

/// The table matching ActiveKind().
template <SupportedFloat T>
const BlockOps<T>& ActiveOps();

// ---------------------------------------------------------------------------
// Baseline-codec kernels (szref/sz2 prequantized Lorenzo, zfpref lifting).
// ---------------------------------------------------------------------------

/// Saturation limit for prequantized Lorenzo codes: with |q| <= 2^27 the
/// 7-term 3-D stencil sum stays inside int32 (7 * 2^27 < 2^31), so the
/// vectorized delta kernels never overflow.  Values that clamp simply fail
/// the error-bound check and take the exact-value escape path.
inline constexpr std::int32_t kPrequantClamp = std::int32_t{1} << 27;

// The per-element helpers below are shared by the baseline-ISA and the
// -mavx2 TUs.  Internal linkage gives each TU its own copy, so an
// out-of-line -mavx2 build of one (as an unoptimized build emits) can never
// be the copy the linker hands to a baseline-ISA caller.
namespace {

/// Canonical scalar prequantizer: q = clamp(nearbyint(v / (2*eb))), with
/// NaN mapping to 0.  This exact function is the contract every SIMD tier's
/// lanes must reproduce bit-for-bit, and the one the szref/sz2 decoders use
/// to recompute the q-grid entry of an escaped (exactly stored) value -- the
/// encoder and decoder grids stay identical because both sides call it.
inline std::int32_t PrequantOne(float v, double half_inv) {
  const double qd = std::nearbyint(static_cast<double>(v) * half_inv);
  if (std::isnan(qd)) return 0;
  constexpr double kClamp = static_cast<double>(kPrequantClamp);
  if (qd > kClamp) return kPrequantClamp;
  if (qd < -kClamp) return -kPrequantClamp;
  return static_cast<std::int32_t>(qd);
}

/// Scalar Lorenzo delta for one row element (shared by every tier's edge
/// tail).  `q` points at the row, `qy`/`qz`/`qyz` at the same offsets in the
/// -y / -z / -yz neighbour rows (null on a boundary; `qyz` is non-null only
/// when both `qy` and `qz` are).  `has_left` marks that index -1 into each
/// row is a valid left-neighbour column.  All sums fit int32 by the
/// kPrequantClamp contract; the intermediate is int64 so hostile inputs
/// still produce defined (wrapped) results.
inline std::int32_t LorenzoDeltaOne(const std::int32_t* q,
                                    const std::int32_t* qy,
                                    const std::int32_t* qz,
                                    const std::int32_t* qyz, bool has_left,
                                    std::size_t i) {
  const bool left = has_left || i > 0;
  std::int64_t pred = 0;
  if (left) pred += q[i - 1];
  if (qy != nullptr) {
    pred += qy[i];
    if (left) pred -= qy[i - 1];
  }
  if (qz != nullptr) {
    pred += qz[i];
    if (left) pred -= qz[i - 1];
  }
  if (qyz != nullptr) {
    pred -= qyz[i];
    if (left) pred += qyz[i - 1];
  }
  return static_cast<std::int32_t>(static_cast<std::int64_t>(q[i]) - pred);
}

/// Integer Lorenzo prediction at flat index i = (z*ny + y)*nx + x of a grid
/// with row stride sy and plane stride sz; border neighbours contribute
/// zero.  This is the decode-side inverse of LorenzoDeltaOne's row-pointer
/// form: a decoder reconstructs q[i] = LorenzoPredictAt(...) + delta.
inline std::int64_t LorenzoPredictAt(const std::int32_t* q, std::size_t i,
                                     std::size_t x, std::size_t y,
                                     std::size_t z, std::size_t sy,
                                     std::size_t sz) {
  std::int64_t pred = 0;
  if (x > 0) pred += q[i - 1];
  if (y > 0) {
    pred += q[i - sy];
    if (x > 0) pred -= q[i - sy - 1];
  }
  if (z > 0) {
    pred += q[i - sz];
    if (x > 0) pred -= q[i - sz - 1];
  }
  if (y > 0 && z > 0) {
    pred -= q[i - sy - sz];
    if (x > 0) pred += q[i - sy - sz - 1];
  }
  return pred;
}

/// Scalar dequantizer for one element: (float)(2*eb * q).
inline float DequantOne(std::int32_t q, double twice_eb) {
  return static_cast<float>(twice_eb * static_cast<double>(q));
}

}  // namespace

/// Function table for the baseline-codec hot loops.  Pointers are never
/// null; every tier is bit-identical to ScalarBaselineOps by contract
/// (tests/core/test_baseline_kernels.cpp enforces it).
struct BaselineOps {
  /// q[i] = PrequantOne(src[i], half_inv) for i in [0, n).
  void (*prequant_f32)(const float* src, std::size_t n, double half_inv,
                       std::int32_t* q);
  /// d[i] = LorenzoDeltaOne(q, qy, qz, qyz, has_left, i) over one row.
  void (*lorenzo_delta_i32)(const std::int32_t* q, const std::int32_t* qy,
                            const std::int32_t* qz, const std::int32_t* qyz,
                            bool has_left, std::size_t n, std::int32_t* d);
  /// out[i] = (float)(twice_eb * q[i]) for i in [0, n).
  void (*dequant_f32)(const std::int32_t* q, std::size_t n, double twice_eb,
                      float* out);
  /// ZFP 4^dims forward/inverse lifting transform, in place (dims in 1..3,
  /// validated by the caller).
  void (*zfp_fwd_xform)(std::int32_t* block, int dims);
  void (*zfp_inv_xform)(std::int32_t* block, int dims);
  /// ZFP bit plane k (0..31) of n <= 64 coefficients: bit i of the result
  /// is bit k of coeffs[i].
  std::uint64_t (*zfp_extract_plane)(const std::uint32_t* coeffs,
                                     std::size_t n, int k);
  /// Its inverse for one plane: coeffs[i] |= (bit i of x) << k.
  void (*zfp_deposit_plane)(std::uint32_t* coeffs, std::size_t n,
                            std::uint64_t x, int k);
};

const BaselineOps& ScalarBaselineOps();
const BaselineOps& Avx2BaselineOps();
/// NEON vectorizes prequant/delta/dequant; zfp lifting aliases scalar.
const BaselineOps& NeonBaselineOps();

/// The table for an explicit tier (falls back like SetActiveKind).
const BaselineOps& BaselineOpsFor(Kind kind);

/// The table matching ActiveKind().
const BaselineOps& ActiveBaselineOps();

}  // namespace szx::kernels
