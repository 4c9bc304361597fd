// Per-block classification shared by the serial, chunk-parallel and GPU-schedule
// compressors: given the block statistics and the error-bound mode, decide
// constant / truncated / lossless and produce the required-length plan.
// Keeping this in one place guarantees the three compressors emit
// byte-identical streams.
#pragma once

#include <cmath>
#include <span>

#include "core/bitops.hpp"
#include "core/block_stats.hpp"
#include "core/common.hpp"

namespace szx {

/// Sentinel exponent used when a bound of zero forces full precision.
inline constexpr int kLosslessEbExpo =
    -FloatTraits<double>::kBias - FloatTraits<double>::kMantissaBits - 1;

inline int BoundExponent(double bound) {
  return bound > 0.0 ? ExponentOf(bound) : kLosslessEbExpo;
}

/// Smallest |d| over the block, needed by the pointwise-relative mode.
/// Derived from min/max when the block does not straddle zero; otherwise a
/// scan finds the exact minimum magnitude.
template <SupportedFloat T>
double BlockMinAbs(std::span<const T> block, const BlockStats<T>& st) {
  if (st.min > T(0)) return static_cast<double>(st.min);
  if (st.max < T(0)) return -static_cast<double>(st.max);
  double min_abs = std::numeric_limits<double>::infinity();
  for (const T v : block) {
    const double a = std::fabs(static_cast<double>(v));
    if (a < min_abs) min_abs = a;
    if (min_abs == 0.0) break;
  }
  return min_abs;
}

template <SupportedFloat T>
struct BlockDecision {
  bool is_constant = false;
  bool is_lossless = false;
  T mu = T(0);
  ReqPlan plan;
};

/// `abs_bound` / `global_eb_expo` are the resolved dataset-level bound for
/// the absolute and value-range-relative modes; the pointwise-relative mode
/// derives a per-block bound instead.
template <SupportedFloat T>
BlockDecision<T> DecideBlock(std::span<const T> block,
                             const BlockStats<T>& st, ErrorBoundMode mode,
                             double eb_user, double abs_bound,
                             int global_eb_expo) {
  double bound = abs_bound;
  int eb_expo = global_eb_expo;
  if (mode == ErrorBoundMode::kPointwiseRelative && st.all_finite) {
    bound = eb_user * BlockMinAbs(block, st);
    eb_expo = BoundExponent(bound);
  }
  BlockDecision<T> d;
  if (st.all_finite && st.radius <= bound) {
    d.is_constant = true;
    d.mu = st.mu;
    return d;
  }
  if (st.all_finite) {
    d.mu = st.mu;
    d.plan = ComputeReqPlan<T>(ExponentOf(st.radius), eb_expo);
  }
  if (!st.all_finite || d.plan.exceeds_precision) {
    d.is_lossless = true;
    d.mu = T(0);
    d.plan = LosslessPlan<T>();
  }
  return d;
}

}  // namespace szx
