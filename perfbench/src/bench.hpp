// Shared pieces of the repo benchmark: timing, percentiles, the
// seeded generator, the result record printed as the last stdout line, the
// machine context, and the interleaved machine controls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentile, q in [0, 1].  Returns 0 for no samples.
double Percentile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// The tail of a workload's op times.  Its percentile is fixed in code (so
/// it never switches between runs): the highest of p90/p99/p99.9 with
/// >= 10 samples beyond it inside one window.  Each whole window of the run
/// gives its percentile and the tail is the median of those, so a few
/// seconds of host stalls cannot carry it.
struct Tail {
  double pct = 0;
  double window_s = 0;
  double value = 0;
  double samples = 0;  ///< per window (median)
  double beyond = 0;   ///< per window (median)
};
Tail WindowTail(const std::vector<double>& at_s, const std::vector<double>& ms,
                double seconds, double window_s, double pct);

/// SplitMix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next();
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  std::uint64_t s_;
};

/// Zipf(s) sampler over {0 .. n-1}: rank 0 is the hottest.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// What one invocation prints: metrics (name -> value + unit), op counts,
/// and context lines that are printed before the final JSON line.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool setup_ok = true;
  std::vector<std::pair<std::string, std::string>> context;  ///< key, JSON

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& key, const std::string& json) {
    context.emplace_back(key, json);
  }
  void Note(const std::string& key, double value);
  void Fail(const std::string& what);  ///< records a setup-check failure
};

/// Notes the tail percentile, its window and sample counts, and the
/// percentile the rule picks at that sample count (they should agree).
void NoteTail(Result& r, const Tail& t);

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// Host facts recorded with every run.
int Nproc();
std::uint64_t LlcBytes();  ///< largest cache level in sysfs, 0 if unknown
double PeakRssMb();        ///< this process's peak resident set

/// Host CPU time counters from /proc/stat (jiffies), to report the share
/// of CPU time the hypervisor stole during a measured loop.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
double StealFrac(const CpuTimes& a, const CpuTimes& b);

/// Interleaved machine controls: a memcpy bandwidth probe and a pure
/// compute probe, run between ops about once a second.  An end-to-end
/// shift that tracks them is the host, not the code.
class Controls {
 public:
  Controls();
  bool Due() const { return Clock::now() - last_ >= std::chrono::seconds(1); }
  void MaybeRun() {
    if (Due()) RunNow();
  }
  void RunNow();
  double MemcpyGbps() const { return Median(memcpy_gbps_); }
  double ComputeMs() const { return Median(compute_ms_); }

 private:
  std::vector<char> src_, dst_;
  Clock::time_point last_{};
  std::vector<double> memcpy_gbps_;
  std::vector<double> compute_ms_;
};

/// Max |a - b| over the two arrays exceeds `bound` (or either is NaN):
/// the dump_large / serve correctness gate.  Runs on the default pool.
bool ExceedsBound(std::span<const float> raw, std::span<const float> out,
                  double bound);

/// Input scale of a run: the gated runs use kFull; the smoke test runs
/// every workload at kTiny to check names and the correctness gate.
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;  ///< Chrome trace-event JSON path (trace runs)
};

}  // namespace pb
