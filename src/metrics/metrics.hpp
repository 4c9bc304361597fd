// Reconstruction-quality metrics used throughout the paper's evaluation:
// max error, MSE, PSNR (Formula 7), SSIM, compression-error PDFs (Fig. 13)
// and the block relative-value-range CDF characterization (Fig. 2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bitops.hpp"
#include "core/common.hpp"

namespace szx::metrics {

/// Basic distortion summary between an original and reconstructed field.
struct Distortion {
  double max_abs_error = 0.0;
  double mse = 0.0;
  double psnr_db = 0.0;       ///< 20 log10(range / sqrt(MSE)), Formula 7
  double value_range = 0.0;   ///< max(D) - min(D) of the original
  std::size_t count = 0;
};

template <typename T>
Distortion ComputeDistortion(std::span<const T> original,
                             std::span<const T> reconstructed);

/// The error-bound oracle, the codec's documented guarantee per mode: for
/// finite d, |d - d'| <= resolved_abs (ABS, and REL with resolved_abs =
/// eb * value range) or <= eb * |d| (pointwise REL); non-finite values
/// bit-exact.  Returns std::nullopt when `recon` meets it, else the first
/// violation.
template <SupportedFloat T>
std::optional<std::string> CheckErrorBound(std::span<const T> original,
                                           std::span<const T> recon,
                                           const Params& params,
                                           double resolved_abs);

/// Windowed SSIM over a 2-D field (row-major, ny rows of nx), using the
/// standard constants (K1 = 0.01, K2 = 0.03) on the original's value range
/// and non-overlapping 8x8 windows.  3-D fields are evaluated slice by
/// slice by the caller.
template <typename T>
double ComputeSsim2D(std::span<const T> original,
                     std::span<const T> reconstructed, std::size_t nx,
                     std::size_t ny, std::size_t window = 8);

/// Histogram of signed errors (reconstructed - original) for Fig. 13.
struct ErrorHistogram {
  double lo = 0.0;             ///< left edge of first bin
  double hi = 0.0;             ///< right edge of last bin
  std::vector<std::uint64_t> counts;
  std::uint64_t out_of_range = 0;

  /// Probability density of bin i (count / total / bin_width).
  double Density(std::size_t i) const;
  double BinCenter(std::size_t i) const;
};

template <typename T>
ErrorHistogram ComputeErrorHistogram(std::span<const T> original,
                                     std::span<const T> reconstructed,
                                     double lo, double hi, std::size_t bins);

/// Per-block relative value ranges: range(block) / range(dataset), the
/// quantity whose CDF the paper plots in Fig. 2.
template <typename T>
std::vector<double> BlockRelativeRanges(std::span<const T> data,
                                        std::size_t block_size);

/// Empirical CDF evaluated at the given thresholds: fraction of samples
/// <= thresholds[i].
std::vector<double> EmpiricalCdf(std::span<const double> samples,
                                 std::span<const double> thresholds);

/// Harmonic mean, the aggregation the paper uses for "overall" compression
/// ratios in Table 3.  Ignores non-positive entries.
double HarmonicMean(std::span<const double> values);

}  // namespace szx::metrics
