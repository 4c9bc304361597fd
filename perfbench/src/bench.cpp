#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/executor.hpp"

namespace pb {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t k = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

Tail WindowTail(const std::vector<double>& at_s, const std::vector<double>& ms,
                double seconds, double window_s, double pct) {
  // A run shorter than one window is one window.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s));
  std::vector<std::vector<double>> in(windows);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto w = std::min(windows - 1,
                            static_cast<std::size_t>(at_s[i] / window_s));
    in[w].push_back(ms[i]);
  }
  std::vector<double> value, samples, beyond;
  for (const auto& v : in) {
    if (v.empty()) continue;
    const double p = Percentile(v, pct / 100.0);
    value.push_back(p);
    samples.push_back(static_cast<double>(v.size()));
    beyond.push_back(static_cast<double>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > p; })));
  }
  return Tail{pct, window_s, Median(value), Median(samples), Median(beyond)};
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t Zipf::Draw(Rng& rng) const {
  const double x = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Result::Note(const std::string& key, double value) {
  Note(key, JsonNumber(value));
}

void NoteTail(Result& r, const Tail& t) {
  double rule = 0;
  for (double pct : {90.0, 99.0, 99.9}) {
    if (t.samples * (1 - pct / 100) >= 10) rule = pct;
  }
  r.Note("tail_pct", t.pct);
  r.Note("tail_rule_pct", rule);
  r.Note("tail_window_s", t.window_s);
  r.Note("tail_samples_per_window", t.samples);
  r.Note("tail_samples_beyond_per_window", t.beyond);
}

void Result::Fail(const std::string& what) {
  setup_ok = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

int Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::uint64_t LlcBytes() {
  std::uint64_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(i) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K') v <<= 10;
    if (s.back() == 'M') v <<= 20;
    best = std::max(best, v);
  }
  return best;
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTimes ReadCpuTimes() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTimes t;
  f >> cpu;
  for (int i = 0; i < 10; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    if (i < 8) t.total += v;  // guest time is already counted in user
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealFrac(const CpuTimes& a, const CpuTimes& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0 ? static_cast<double>(b.steal - a.steal) / total : 0;
}

namespace {
constexpr std::size_t kMemcpyBytes = std::size_t{32} << 20;

// A dependent integer chain: no memory traffic, so it moves only with the
// core's clock and co-tenant SMT pressure.
double ComputeProbeMs() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < (1 << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = Ms(Clock::now() - t0);
  if (x == 0) std::fprintf(stderr, "perfbench: probe degenerate\n");
  return ms;
}
}  // namespace

Controls::Controls() : src_(kMemcpyBytes, 1), dst_(kMemcpyBytes, 0) {}

void Controls::RunNow() {
  const auto t0 = Clock::now();
  std::memcpy(dst_.data(), src_.data(), kMemcpyBytes);
  const double s = Sec(Clock::now() - t0);
  memcpy_gbps_.push_back(2.0 * kMemcpyBytes / s / 1e9);  // read + write
  compute_ms_.push_back(ComputeProbeMs());
  last_ = Clock::now();
}

bool ExceedsBound(std::span<const float> raw, std::span<const float> out,
                  double bound) {
  if (raw.size() != out.size()) return true;
  constexpr std::size_t kPiece = std::size_t{1} << 20;
  const std::size_t pieces = (raw.size() + kPiece - 1) / kPiece;
  std::vector<char> bad(pieces, 0);
  szx::exec::ParallelFor(pieces, 0, [&](std::uint64_t p) {
    const std::size_t b = p * kPiece;
    const std::size_t e = std::min(raw.size(), b + kPiece);
    for (std::size_t i = b; i < e; ++i) {
      const double err = std::fabs(static_cast<double>(raw[i]) -
                                   static_cast<double>(out[i]));
      if (!(err <= bound)) {
        bad[p] = 1;
        return;
      }
    }
  });
  return std::find(bad.begin(), bad.end(), 1) != bad.end();
}

}  // namespace pb
