#include "metrics/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace szx::metrics {

template <SupportedFloat T>
std::optional<std::string> CheckErrorBound(std::span<const T> original,
                                           std::span<const T> recon,
                                           const Params& params,
                                           double resolved_abs) {
  if (original.size() != recon.size()) {
    return "size mismatch: " + std::to_string(original.size()) + " vs " +
           std::to_string(recon.size());
  }
  const bool pointwise = params.mode == ErrorBoundMode::kPointwiseRelative;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const T a = original[i];
    const T b = recon[i];
    if (!std::isfinite(static_cast<double>(a))) {
      // Non-finite values ride the lossless path: bit-exact required.
      if (std::bit_cast<typename FloatTraits<T>::Bits>(a) !=
          std::bit_cast<typename FloatTraits<T>::Bits>(b)) {
        return "non-finite value not reconstructed bit-exactly at index " +
               std::to_string(i);
      }
      continue;
    }
    const double allowed =
        pointwise ? params.error_bound * std::fabs(static_cast<double>(a))
                  : resolved_abs;
    const double err =
        std::fabs(static_cast<double>(a) - static_cast<double>(b));
    if (!(err <= allowed)) {
      std::ostringstream os;
      os.precision(17);
      os << "bound violated at index " << i << ": |" << static_cast<double>(a)
         << " - " << static_cast<double>(b) << "| = " << err << " > "
         << allowed;
      return os.str();
    }
  }
  return std::nullopt;
}

template <typename T>
Distortion ComputeDistortion(std::span<const T> original,
                             std::span<const T> reconstructed) {
  if (original.size() != reconstructed.size()) {
    throw std::invalid_argument("metrics: size mismatch");
  }
  Distortion d;
  d.count = original.size();
  if (original.empty()) return d;
  double vmin = std::numeric_limits<double>::infinity();
  double vmax = -std::numeric_limits<double>::infinity();
  double sse = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double a = static_cast<double>(original[i]);
    const double b = static_cast<double>(reconstructed[i]);
    if (!std::isfinite(a) || !std::isfinite(b)) continue;
    vmin = std::min(vmin, a);
    vmax = std::max(vmax, a);
    const double e = b - a;
    d.max_abs_error = std::max(d.max_abs_error, std::fabs(e));
    sse += e * e;
  }
  d.mse = sse / static_cast<double>(original.size());
  d.value_range = vmax - vmin;
  if (d.mse > 0.0 && d.value_range > 0.0) {
    d.psnr_db = 20.0 * std::log10(d.value_range / std::sqrt(d.mse));
  } else {
    d.psnr_db = std::numeric_limits<double>::infinity();
  }
  return d;
}

template <typename T>
double ComputeSsim2D(std::span<const T> original,
                     std::span<const T> reconstructed, std::size_t nx,
                     std::size_t ny, std::size_t window) {
  if (original.size() != reconstructed.size() || original.size() != nx * ny) {
    throw std::invalid_argument("metrics: ssim dimension mismatch");
  }
  if (window == 0) throw std::invalid_argument("metrics: ssim window 0");
  // Dynamic range from the original field.
  double vmin = std::numeric_limits<double>::infinity();
  double vmax = -std::numeric_limits<double>::infinity();
  for (const T v : original) {
    const double x = static_cast<double>(v);
    if (!std::isfinite(x)) continue;
    vmin = std::min(vmin, x);
    vmax = std::max(vmax, x);
  }
  const double range = vmax > vmin ? vmax - vmin : 1.0;
  const double c1 = (0.01 * range) * (0.01 * range);
  const double c2 = (0.03 * range) * (0.03 * range);

  double sum = 0.0;
  std::size_t windows = 0;
  for (std::size_t wy = 0; wy + window <= ny; wy += window) {
    for (std::size_t wx = 0; wx + window <= nx; wx += window) {
      double ma = 0.0, mb = 0.0;
      const std::size_t n = window * window;
      for (std::size_t y = 0; y < window; ++y) {
        for (std::size_t x = 0; x < window; ++x) {
          const std::size_t idx = (wy + y) * nx + (wx + x);
          ma += static_cast<double>(original[idx]);
          mb += static_cast<double>(reconstructed[idx]);
        }
      }
      ma /= static_cast<double>(n);
      mb /= static_cast<double>(n);
      double va = 0.0, vb = 0.0, cov = 0.0;
      for (std::size_t y = 0; y < window; ++y) {
        for (std::size_t x = 0; x < window; ++x) {
          const std::size_t idx = (wy + y) * nx + (wx + x);
          const double da = static_cast<double>(original[idx]) - ma;
          const double db = static_cast<double>(reconstructed[idx]) - mb;
          va += da * da;
          vb += db * db;
          cov += da * db;
        }
      }
      va /= static_cast<double>(n - 1);
      vb /= static_cast<double>(n - 1);
      cov /= static_cast<double>(n - 1);
      const double ssim = ((2 * ma * mb + c1) * (2 * cov + c2)) /
                          ((ma * ma + mb * mb + c1) * (va + vb + c2));
      sum += ssim;
      ++windows;
    }
  }
  return windows == 0 ? 1.0 : sum / static_cast<double>(windows);
}

double ErrorHistogram::Density(std::size_t i) const {
  std::uint64_t total = out_of_range;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0 || counts.empty()) return 0.0;
  const double width = (hi - lo) / static_cast<double>(counts.size());
  return static_cast<double>(counts[i]) /
         (static_cast<double>(total) * width);
}

double ErrorHistogram::BinCenter(std::size_t i) const {
  const double width = (hi - lo) / static_cast<double>(counts.size());
  return lo + width * (static_cast<double>(i) + 0.5);
}

template <typename T>
ErrorHistogram ComputeErrorHistogram(std::span<const T> original,
                                     std::span<const T> reconstructed,
                                     double lo, double hi, std::size_t bins) {
  if (original.size() != reconstructed.size()) {
    throw std::invalid_argument("metrics: size mismatch");
  }
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("metrics: bad histogram bounds");
  }
  ErrorHistogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  const double scale = static_cast<double>(bins) / (hi - lo);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double e = static_cast<double>(reconstructed[i]) -
                     static_cast<double>(original[i]);
    if (!std::isfinite(e) || e < lo || e >= hi) {
      ++h.out_of_range;
      continue;
    }
    const auto bin = static_cast<std::size_t>((e - lo) * scale);
    ++h.counts[bin < bins ? bin : bins - 1];
  }
  return h;
}

template <typename T>
std::vector<double> BlockRelativeRanges(std::span<const T> data,
                                        std::size_t block_size) {
  if (block_size == 0) {
    throw std::invalid_argument("metrics: block size 0");
  }
  double gmin = std::numeric_limits<double>::infinity();
  double gmax = -std::numeric_limits<double>::infinity();
  for (const T v : data) {
    const double x = static_cast<double>(v);
    if (!std::isfinite(x)) continue;
    gmin = std::min(gmin, x);
    gmax = std::max(gmax, x);
  }
  const double grange = gmax - gmin;
  std::vector<double> out;
  if (data.empty() || !(grange > 0.0)) {
    out.assign((data.size() + block_size - 1) / block_size, 0.0);
    return out;
  }
  out.reserve((data.size() + block_size - 1) / block_size);
  for (std::size_t b = 0; b < data.size(); b += block_size) {
    const std::size_t end = std::min(data.size(), b + block_size);
    double bmin = std::numeric_limits<double>::infinity();
    double bmax = -std::numeric_limits<double>::infinity();
    for (std::size_t i = b; i < end; ++i) {
      const double x = static_cast<double>(data[i]);
      if (!std::isfinite(x)) continue;
      bmin = std::min(bmin, x);
      bmax = std::max(bmax, x);
    }
    out.push_back(bmax >= bmin ? (bmax - bmin) / grange : 0.0);
  }
  return out;
}

std::vector<double> EmpiricalCdf(std::span<const double> samples,
                                 std::span<const double> thresholds) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> cdf;
  cdf.reserve(thresholds.size());
  for (const double t : thresholds) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), t);
    cdf.push_back(sorted.empty()
                      ? 0.0
                      : static_cast<double>(it - sorted.begin()) /
                            static_cast<double>(sorted.size()));
  }
  return cdf;
}

double HarmonicMean(std::span<const double> values) {
  double inv_sum = 0.0;
  std::size_t n = 0;
  for (const double v : values) {
    if (v > 0.0) {
      inv_sum += 1.0 / v;
      ++n;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(n) / inv_sum;
}

template std::optional<std::string> CheckErrorBound<float>(
    std::span<const float>, std::span<const float>, const Params&, double);
template std::optional<std::string> CheckErrorBound<double>(
    std::span<const double>, std::span<const double>, const Params&, double);
template Distortion ComputeDistortion<float>(std::span<const float>,
                                             std::span<const float>);
template Distortion ComputeDistortion<double>(std::span<const double>,
                                              std::span<const double>);
template double ComputeSsim2D<float>(std::span<const float>,
                                     std::span<const float>, std::size_t,
                                     std::size_t, std::size_t);
template double ComputeSsim2D<double>(std::span<const double>,
                                      std::span<const double>, std::size_t,
                                      std::size_t, std::size_t);
template ErrorHistogram ComputeErrorHistogram<float>(std::span<const float>,
                                                     std::span<const float>,
                                                     double, double,
                                                     std::size_t);
template ErrorHistogram ComputeErrorHistogram<double>(std::span<const double>,
                                                      std::span<const double>,
                                                      double, double,
                                                      std::size_t);
template std::vector<double> BlockRelativeRanges<float>(std::span<const float>,
                                                        std::size_t);
template std::vector<double> BlockRelativeRanges<double>(
    std::span<const double>, std::size_t);

}  // namespace szx::metrics
