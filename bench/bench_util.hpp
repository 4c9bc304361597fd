// Shared infrastructure for the paper-reproduction benchmark binaries:
// wall-clock timing, throughput measurement of every codec in the repo,
// dataset caching, and fixed-width table printing in the paper's layout.
//
// Environment knobs:
//   SZX_BENCH_SCALE  linear grid scale factor (default 0.35; the paper's
//                    full-size grids correspond to roughly 2.5-3).
//   SZX_BENCH_REPS   timing repetitions, best-of (default 3).
//   SZX_BENCH_FULL_ROSTER=1  use the full Table 2 field rosters (notably
//                    CESM-ATM's 77 fields) instead of the representative
//                    subsets; slower but matches the paper's field counts.
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/compressor.hpp"
#include "core/executor.hpp"
#include "core/json.hpp"
#include "core/omp_codec.hpp"
#include "data/datasets.hpp"
#include "lzref/lzref.hpp"
#include "metrics/metrics.hpp"
#include "szref/sz2.hpp"
#include "szref/szref.hpp"
#include "zfpref/zfpref.hpp"

namespace szx::bench {

inline double BenchScale() {
  const char* env = std::getenv("SZX_BENCH_SCALE");
  if (env != nullptr) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 0.35;
}

inline int BenchReps() {
  const char* env = std::getenv("SZX_BENCH_REPS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 3;
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wall-clock time of a callable, in seconds.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    fn();
    best = std::min(best, NowSeconds() - t0);
  }
  return best;
}

/// Cached per-app field generation (several benches share datasets).
inline const std::vector<data::Field>& AppFields(data::App app) {
  static std::map<data::App, std::vector<data::Field>> cache;
  auto it = cache.find(app);
  if (it == cache.end()) {
    const char* full = std::getenv("SZX_BENCH_FULL_ROSTER");
    std::vector<data::Field> fields;
    if (full != nullptr && full[0] == '1') {
      for (const auto& name : data::ExtendedFieldNames(app)) {
        fields.push_back(data::GenerateField(app, name, BenchScale()));
      }
    } else {
      fields = data::GenerateApp(app, BenchScale());
    }
    it = cache.emplace(app, std::move(fields)).first;
  }
  return it->second;
}

/// One codec measurement on one field.
struct CodecResult {
  double compress_s = 0.0;
  double decompress_s = 0.0;
  double ratio = 0.0;
  double max_err = 0.0;
  double psnr_db = 0.0;
  std::size_t compressed_bytes = 0;

  double CompressMBps(std::size_t bytes) const {
    return static_cast<double>(bytes) / 1e6 / compress_s;
  }
  double DecompressMBps(std::size_t bytes) const {
    return static_cast<double>(bytes) / 1e6 / decompress_s;
  }
};

enum class Codec { kSzx, kSzxOmp, kSz, kSz2, kSzOmp, kZfp, kZfpOmp, kLz };

inline const char* CodecName(Codec c) {
  switch (c) {
    case Codec::kSzx: return "SZx";
    case Codec::kSzxOmp: return "omp-SZx";
    case Codec::kSz: return "SZ";
    case Codec::kSz2: return "SZ2.1";
    case Codec::kSzOmp: return "omp-SZ";
    case Codec::kZfp: return "ZFP";
    case Codec::kZfpOmp: return "omp-ZFP";
    case Codec::kLz: return "zstd-like";
  }
  return "?";
}

/// Runs one codec on one field at a value-range-relative bound and measures
/// timing/ratio/quality.  `threads` applies to the chunk-parallel variants.
inline CodecResult MeasureCodec(Codec codec, const data::Field& f,
                                double rel_eb, int threads = 0) {
  const int reps = BenchReps();
  CodecResult r;
  ByteBuffer stream;
  std::vector<float> recon;
  switch (codec) {
    case Codec::kSzx: {
      Params p;
      p.mode = ErrorBoundMode::kValueRangeRelative;
      p.error_bound = rel_eb;
      r.compress_s = TimeBest(reps, [&] { stream = Compress<float>(f.values, p); });
      r.decompress_s =
          TimeBest(reps, [&] { recon = Decompress<float>(stream); });
      break;
    }
    case Codec::kSzxOmp: {
      Params p;
      p.mode = ErrorBoundMode::kValueRangeRelative;
      p.error_bound = rel_eb;
      r.compress_s = TimeBest(
          reps, [&] { stream = CompressOmp<float>(f.values, p, nullptr,
                                                  threads); });
      r.decompress_s =
          TimeBest(reps, [&] { recon = DecompressOmp<float>(stream,
                                                            threads); });
      break;
    }
    case Codec::kSz: {
      szref::SzParams p;
      p.mode = ErrorBoundMode::kValueRangeRelative;
      p.error_bound = rel_eb;
      r.compress_s = TimeBest(
          reps, [&] { stream = szref::SzCompress(f.values, f.dims, p); });
      r.decompress_s =
          TimeBest(reps, [&] { recon = szref::SzDecompress(stream); });
      break;
    }
    case Codec::kSz2: {
      szref::Sz2Params p;
      p.mode = ErrorBoundMode::kValueRangeRelative;
      p.error_bound = rel_eb;
      r.compress_s = TimeBest(
          reps, [&] { stream = szref::Sz2Compress(f.values, f.dims, p); });
      r.decompress_s =
          TimeBest(reps, [&] { recon = szref::Sz2Decompress(stream); });
      break;
    }
    case Codec::kSzOmp: {
      szref::SzParams p;
      p.mode = ErrorBoundMode::kValueRangeRelative;
      p.error_bound = rel_eb;
      r.compress_s = TimeBest(reps, [&] {
        stream = szref::SzCompressOmp(f.values, f.dims, p, nullptr, threads);
      });
      r.decompress_s = TimeBest(
          reps, [&] { recon = szref::SzDecompressOmp(stream, threads); });
      break;
    }
    case Codec::kZfp: {
      zfpref::ZfpParams p;
      p.mode = ErrorBoundMode::kValueRangeRelative;
      p.error_bound = rel_eb;
      r.compress_s = TimeBest(
          reps, [&] { stream = zfpref::ZfpCompress(f.values, f.dims, p); });
      r.decompress_s =
          TimeBest(reps, [&] { recon = zfpref::ZfpDecompress(stream); });
      break;
    }
    case Codec::kZfpOmp: {
      zfpref::ZfpParams p;
      p.mode = ErrorBoundMode::kValueRangeRelative;
      p.error_bound = rel_eb;
      r.compress_s = TimeBest(reps, [&] {
        stream = zfpref::ZfpCompressOmp(f.values, f.dims, p, nullptr,
                                        threads);
      });
      // Like the paper's omp-ZFP there is no parallel decompressor.
      r.decompress_s =
          TimeBest(reps, [&] { recon = zfpref::ZfpDecompress(stream); });
      break;
    }
    case Codec::kLz: {
      r.compress_s =
          TimeBest(reps, [&] { stream = lzref::LzCompressFloats(f.values); });
      r.decompress_s =
          TimeBest(reps, [&] { recon = lzref::LzDecompressFloats(stream); });
      break;
    }
  }
  r.compressed_bytes = stream.size();
  r.ratio = static_cast<double>(f.size_bytes()) /
            static_cast<double>(stream.size());
  const auto dist = metrics::ComputeDistortion<float>(f.values, recon);
  r.max_err = dist.max_abs_error;
  r.psnr_db = dist.psnr_db;
  return r;
}

// --- JSON perf-regression grids -------------------------------------------
//
// The grid binaries (grid_codec, grid_threads, grid_container, grid_serve)
// each regenerate one committed BENCH_*.json record; scripts/bench.sh runs
// all four.  They share the pieces below: a trimmed-timing discipline
// (stabler than best-of for regression tracking), a dependency-free JSON
// builder, a minimal validator that gates the file before it is written
// (the bench-smoke ctest tier relies on a grid failing loudly on malformed
// output), and GridMain, the one skeleton every grid runs in.

/// One timing measurement under the trimmed discipline: a warm-up run, then
/// `reps` timed runs; the fastest and slowest quintile are dropped and the
/// rest averaged.  min/max are of the surviving (trimmed) runs.
struct TrimmedTiming {
  double mean_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  int reps = 0;
};

template <typename Fn>
TrimmedTiming TimeTrimmed(int reps, Fn&& fn) {
  fn();  // warm-up (first-touch, arena growth, branch training)
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (auto& ti : t) {
    const double t0 = NowSeconds();
    fn();
    ti = NowSeconds() - t0;
  }
  std::sort(t.begin(), t.end());
  const std::size_t trim = t.size() >= 5 ? t.size() / 5 : (t.size() >= 3 ? 1 : 0);
  const std::size_t lo = trim;
  const std::size_t hi = t.size() - trim;
  TrimmedTiming r;
  r.reps = reps;
  r.min_s = t[lo];
  r.max_s = t[hi - 1];
  for (std::size_t i = lo; i < hi; ++i) r.mean_s += t[i];
  r.mean_s /= static_cast<double>(hi - lo);
  return r;
}

/// Tiny append-only JSON document builder.  Scope balance is the caller's
/// job (ValidateJson is the backstop); commas and key quoting are handled
/// here.  Non-finite doubles are emitted as null, which keeps the document
/// parseable by strict readers.
class JsonWriter {
 public:
  void BeginObject() { Prefix(); out_ += '{'; fresh_.push_back(true); }
  void BeginObject(const char* key) { KeyPrefix(key); out_ += '{'; fresh_.push_back(true); }
  void EndObject() { out_ += '}'; fresh_.pop_back(); }
  void BeginArray(const char* key) { KeyPrefix(key); out_ += '['; fresh_.push_back(true); }
  void EndArray() { out_ += ']'; fresh_.pop_back(); }

  void Field(const char* key, const char* value) {
    KeyPrefix(key);
    AppendString(value);
  }
  void Field(const char* key, const std::string& value) { Field(key, value.c_str()); }
  void Field(const char* key, double value) {
    KeyPrefix(key);
    AppendNumber(value);
  }
  void Field(const char* key, std::size_t value) {
    KeyPrefix(key);
    out_ += std::to_string(value);
  }
  void Field(const char* key, int value) {
    KeyPrefix(key);
    out_ += std::to_string(value);
  }
  void Field(const char* key, bool value) {
    KeyPrefix(key);
    out_ += value ? "true" : "false";
  }

  const std::string& Str() const { return out_; }

 private:
  void Prefix() {
    if (!fresh_.empty()) {
      if (!fresh_.back()) out_ += ',';
      fresh_.back() = false;
    }
  }
  void KeyPrefix(const char* key) {
    Prefix();
    AppendString(key);
    out_ += ':';
  }
  void AppendString(const char* s) {
    out_ += '"';
    out_ += JsonEscape(s);
    out_ += '"';
  }
  void AppendNumber(double v) {
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
  }

  std::string out_;
  std::vector<bool> fresh_;
};

/// Minimal recursive-descent JSON syntax check (structure only, no schema).
/// Returns true iff `text` is exactly one valid JSON value.
[[nodiscard]] bool ValidateJson(std::string_view text);

namespace detail {

inline void JsonSkipWs(std::string_view t, std::size_t& i) {
  while (i < t.size() &&
         (t[i] == ' ' || t[i] == '\t' || t[i] == '\n' || t[i] == '\r')) {
    ++i;
  }
}

inline bool JsonValue(std::string_view t, std::size_t& i, int depth);

inline bool JsonString(std::string_view t, std::size_t& i) {
  if (i >= t.size() || t[i] != '"') return false;
  for (++i; i < t.size(); ++i) {
    if (t[i] == '\\') {
      ++i;  // skip the escaped character (\\uXXXX hex digits pass as-is)
    } else if (t[i] == '"') {
      ++i;
      return true;
    }
  }
  return false;
}

inline bool JsonNumber(std::string_view t, std::size_t& i) {
  const std::size_t start = i;
  if (i < t.size() && t[i] == '-') ++i;
  while (i < t.size() && (std::isdigit(static_cast<unsigned char>(t[i])) ||
                          t[i] == '.' || t[i] == 'e' || t[i] == 'E' ||
                          t[i] == '+' || t[i] == '-')) {
    ++i;
  }
  return i > start;
}

inline bool JsonValue(std::string_view t, std::size_t& i, int depth) {
  if (depth > 64) return false;
  JsonSkipWs(t, i);
  if (i >= t.size()) return false;
  const char c = t[i];
  if (c == '{') {
    ++i;
    JsonSkipWs(t, i);
    if (i < t.size() && t[i] == '}') { ++i; return true; }
    while (true) {
      JsonSkipWs(t, i);
      if (!JsonString(t, i)) return false;
      JsonSkipWs(t, i);
      if (i >= t.size() || t[i] != ':') return false;
      ++i;
      if (!JsonValue(t, i, depth + 1)) return false;
      JsonSkipWs(t, i);
      if (i < t.size() && t[i] == ',') { ++i; continue; }
      if (i < t.size() && t[i] == '}') { ++i; return true; }
      return false;
    }
  }
  if (c == '[') {
    ++i;
    JsonSkipWs(t, i);
    if (i < t.size() && t[i] == ']') { ++i; return true; }
    while (true) {
      if (!JsonValue(t, i, depth + 1)) return false;
      JsonSkipWs(t, i);
      if (i < t.size() && t[i] == ',') { ++i; continue; }
      if (i < t.size() && t[i] == ']') { ++i; return true; }
      return false;
    }
  }
  if (c == '"') return JsonString(t, i);
  if (t.substr(i, 4) == "true") { i += 4; return true; }
  if (t.substr(i, 5) == "false") { i += 5; return true; }
  if (t.substr(i, 4) == "null") { i += 4; return true; }
  return JsonNumber(t, i);
}

}  // namespace detail

[[nodiscard]] inline bool ValidateJson(std::string_view text) {
  std::size_t i = 0;
  if (!detail::JsonValue(text, i, 0)) return false;
  detail::JsonSkipWs(text, i);
  return i == text.size();
}

/// Keeps `value` observable so the optimizer cannot delete the work that
/// produced it (the empty-asm idiom; GCC and Clang).
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

template <typename T>
const char* DtypeName() {
  return sizeof(T) == 4 ? "float32" : "float64";
}

/// Writes the trimmed timing of one row: mean_s, min_s and max_s.
inline void WriteTiming(JsonWriter& w, const TrimmedTiming& t) {
  w.Field("mean_s", t.mean_s);
  w.Field("min_s", t.min_s);
  w.Field("max_s", t.max_s);
}

/// Input bytes one timed run processes, with its trimmed timing.
struct Throughput {
  std::size_t bytes = 0;
  TrimmedTiming timing;

  double Gbps() const {
    return static_cast<double>(bytes) / 1e9 / timing.mean_s;
  }
  /// Writes bytes, the timing and gbps into the open row object.
  void Write(JsonWriter& w) const {
    w.Field("bytes", bytes);
    WriteTiming(w, timing);
    w.Field("gbps", Gbps());
  }
};

/// Writes `rows` as the array `key`, one object per row via Row::Write.
template <typename Row>
void WriteRows(JsonWriter& w, const char* key, const std::vector<Row>& rows) {
  w.BeginArray(key);
  for (const Row& r : rows) {
    w.BeginObject();
    r.Write(w);
    w.EndObject();
  }
  w.EndArray();
}

/// Writes the ratio series `key`: one object for every (row, base) pair of
/// `rows` that `pair(row, base)` accepts, in row order; `emit(w, row, base)`
/// writes the object's labels and its ratio.
template <typename Row, typename Pair, typename Emit>
void WriteRatioSeries(JsonWriter& w, const char* key,
                      const std::vector<Row>& rows, Pair&& pair,
                      Emit&& emit) {
  w.BeginArray(key);
  for (const Row& r : rows) {
    for (const Row& base : rows) {
      if (!pair(r, base)) continue;
      w.BeginObject();
      emit(w, r, base);
      w.EndObject();
    }
  }
  w.EndArray();
}

/// How a grid sizes its run.  Every grid measures the CESM-ATM CLDHGH slice
/// so their numbers compare; --smoke shrinks the field and the rep count so
/// CI checks the JSON contract in milliseconds (no timing thresholds).
struct GridSpec {
  const char* schema;
  double scale_factor;  ///< full-run scale as a multiple of BenchScale()
  double smoke_scale;
  int min_reps;         ///< floor on SZX_BENCH_REPS for a full run
};

/// What a grid measures with.
struct GridRun {
  bool smoke = false;
  int reps = 0;
  double scale = 0.0;
  data::Field field;
};

/// A grid's document below the common header: its extra keys for the
/// "field" object, and a writer for its own top-level keys and arrays.
struct GridDoc {
  std::vector<std::pair<const char*, std::size_t>> field_extras;
  std::function<void(JsonWriter&)> body;
};

/// The hardware_threads an existing grid at `path` was recorded with; 0
/// when the file or the field is absent.
inline int RecordedHardwareThreads(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"hardware_threads\":";
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::atoi(text.c_str() + pos + key.size());
}

/// The skeleton every grid binary runs: parses `--out=PATH [--smoke]
/// [--force]`, applies the stale-bench trap, runs `measure(const GridRun&)
/// -> GridDoc`, writes the common header (schema, smoke, hardware_threads,
/// reps, field) and the grid's body, validates the document, and writes it.
///
/// Stale-bench trap: a grid regenerated on a smaller machine must not
/// silently replace one measured on a bigger machine, so an existing file
/// recording more hardware threads than this process may run on is refused
/// unless --force is given.  The count is the CPU affinity mask, the same
/// one the executor sizes its pool from, so a `taskset -c 0` run counts one.
template <typename Measure>
int GridMain(int argc, char** argv, const GridSpec& spec, Measure&& measure) {
  std::string out;
  bool smoke = false;
  bool force = false;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--out=")) {
      out = arg.substr(6);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--force") {
      force = true;
    } else {
      usage_error = true;
    }
  }
  if (usage_error || out.empty()) {
    std::fprintf(stderr, "usage: %s --out=PATH [--smoke] [--force]\n",
                 argv[0]);
    return 2;
  }
  const int hw = exec::AvailableCpus();
  const int recorded = RecordedHardwareThreads(out);
  if (!force && recorded > hw) {
    std::fprintf(stderr,
                 "%s: %s was measured on a machine with %d hardware threads "
                 "but this one has %d -- overwriting would make the grid "
                 "look like a regression.  Pass --force to overwrite "
                 "anyway.\n",
                 argv[0], out.c_str(), recorded, hw);
    return 1;
  }

  GridRun run;
  run.smoke = smoke;
  run.scale = smoke ? spec.smoke_scale : BenchScale() * spec.scale_factor;
  run.reps = smoke ? 2 : std::max(BenchReps(), spec.min_reps);
  run.field = data::GenerateField(data::App::kCesm, "CLDHGH", run.scale);
  JsonWriter w;
  try {
    const GridDoc doc = measure(std::as_const(run));
    w.BeginObject();
    w.Field("schema", spec.schema);
    w.Field("smoke", smoke);
    // Scaling beyond this count measures oversubscription, not parallelism;
    // readers must interpret any thread axis against it.
    w.Field("hardware_threads", hw);
    w.Field("reps", run.reps);
    w.BeginObject("field");
    w.Field("app", "CESM-ATM");
    w.Field("name", run.field.name);
    w.Field("elements", run.field.size());
    w.Field("scale", run.scale);
    for (const auto& [key, value] : doc.field_extras) w.Field(key, value);
    w.EndObject();
    doc.body(w);
    w.EndObject();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }

  if (!ValidateJson(w.Str())) {
    std::fprintf(stderr, "%s: generated JSON failed validation\n", argv[0]);
    return 1;
  }
  std::ofstream os(out, std::ios::binary);
  os << w.Str() << '\n';
  os.close();
  if (!os) {
    std::fprintf(stderr, "%s: cannot write %s\n", argv[0], out.c_str());
    return 1;
  }
  std::printf("wrote %s (reps=%d, %zu elements, %d hw threads)\n",
              out.c_str(), run.reps, run.field.size(), hw);
  return 0;
}

/// Prints a header line naming the paper artifact being reproduced.
inline void PrintBanner(const char* artifact, const char* description) {
  std::printf("==========================================================\n");
  std::printf("%s -- %s\n", artifact, description);
  std::printf("grid scale %.2f, best of %d reps (SZX_BENCH_SCALE/_REPS)\n",
              BenchScale(), BenchReps());
  std::printf("==========================================================\n");
}

}  // namespace szx::bench
