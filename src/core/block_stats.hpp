// Per-block statistics (min, max, mu, radius) -- step 1 of the SZx pipeline
// (Fig. 3) -- and the finite value range the value-range-relative mode
// scales its bound by.
//
// The block-stats kernels live in the kernels::BlockOps tables (scalar and
// AVX2, bit-identical; see core/kernels/kernels.hpp).  The encoders call the
// multi-block entry once per chunk through kernels::ActiveOps, so
// SZX_KERNEL / SetActiveKind pick the stats kernel exactly as they pick the
// encode kernel.  The per-block wrappers below exist for tests, benches and
// the cusim finalizer.
#pragma once

#include <cmath>
#include <span>

#include "core/bitops.hpp"
#include "core/common.hpp"

namespace szx {

/// Statistics of one block needed to classify and encode it.
template <SupportedFloat T>
struct BlockStats {
  T min = T(0);
  T max = T(0);
  T mu = T(0);  ///< mean of min and max (paper's mu_k / medianValue)
  bool all_finite = true;  // ahead of radius: 24 bytes, not 32, for float
  /// Upper bound on |fl(v - mu)| over the block, computed in double (exact
  /// for float inputs; rounded up one ulp for double inputs) so that the
  /// constant-block test and Formula 4 are conservative.
  double radius = 0.0;
};

/// Finite value range of a span (NaN/Inf skipped), as used by the
/// value-range-relative error-bound mode.  Min/max are order-independent,
/// so ranges of disjoint pieces merge into the range of the whole; only the
/// sign of a zero endpoint can depend on the order, and the bound derived
/// from a range never does (see AbsoluteBoundOf in frame_encoder.hpp).
///
/// The -mavx2 kernel TUs call Merge and ScanFiniteRange, so both are always
/// inlined: an unoptimized build would otherwise emit them there as
/// out-of-line weak copies, and the linker could hand such an AVX2 copy to
/// a baseline-ISA caller (analysis.avx2-confined checks for this).
template <SupportedFloat T>
struct GlobalRange {
  T min = T(0);
  T max = T(0);
  bool any_finite = false;

  /// Folds the finite interval [lo, hi] into the range.
  [[gnu::always_inline]] void Merge(T lo, T hi) {
    if (!any_finite) {
      min = lo;
      max = hi;
      any_finite = true;
      return;
    }
    if (lo < min) min = lo;
    if (hi > max) max = hi;
  }

  [[gnu::always_inline]] void Merge(const GlobalRange& other) {
    if (other.any_finite) Merge(other.min, other.max);
  }
};

/// Plain-loop finite range of data[0, n): the scalar table's finite_range
/// entry, the reference the AVX2 entry matches, and the range of a block
/// holding NaN/Inf.
template <SupportedFloat T>
[[gnu::always_inline]] inline GlobalRange<T> ScanFiniteRange(const T* data,
                                                             std::size_t n) {
  GlobalRange<T> r;
  for (std::size_t i = 0; i < n; ++i) {
    const T v = data[i];
    if (std::isfinite(v)) r.Merge(v, v);
  }
  return r;
}

/// Stats of one block through the scalar kernel table: the ground truth
/// the AVX2 table is tested against.
template <SupportedFloat T>
BlockStats<T> ComputeBlockStatsScalar(std::span<const T> block);

/// Stats of one block through the active kernel table (kernels::ActiveOps).
template <SupportedFloat T>
BlockStats<T> ComputeBlockStats(std::span<const T> block);

/// Scans a whole dataset for its finite value range through the active
/// kernel table (kernels::ActiveOps().finite_range).  The encoders do not
/// call it (they merge the ranges their block-stats pass returns); it backs
/// ResolveAbsoluteBound and the container's per-timestep range.
template <SupportedFloat T>
GlobalRange<T> ComputeGlobalRange(std::span<const T> data);

}  // namespace szx
