// roi_query: an analyst reading regions out of a format-v3 container.
// Ops are small and dispatch-bound: container lookup, the chunk cache and
// executor dispatch dominate, kernel bandwidth matters little.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "core/chunk_cache.hpp"
#include "core/compressor.hpp"
#include "core/container.hpp"
#include "data/datasets.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using szx::data::App;

struct RoiShape {
  std::size_t elems;  ///< per (field, timestep); a multiple of the chunk size
  std::size_t timesteps;
  std::size_t cache_bytes;  ///< below the decoded working set
};

// Full: 3 fields x 6 timesteps x 2^21 elements = 144 MiB decoded, against a
// 40 MiB cache.  The burst shape serves the layer suite of other workloads.
constexpr RoiShape kFull{std::size_t{1} << 21, 6, std::size_t{40} << 20};
constexpr RoiShape kBurst{std::size_t{1} << 20, 4, std::size_t{8} << 20};
constexpr RoiShape kTiny{std::size_t{1} << 18, 3, std::size_t{4} << 20};

// Drawn uniformly: no recorded traffic says which ROI size is common, so
// none is favoured.
constexpr std::array<double, 4> kRoiFrac = {0.01, 0.05, 0.10, 0.25};
constexpr double kZipfS = 1.2;
// ~1500 queries a second: p99 per 1-second window.
constexpr double kTailPct = 99;
constexpr double kTailWindowS = 1;

struct RoiSet {
  RoiShape shape;
  szx::Params params;
  std::vector<std::string> names;
  std::vector<std::vector<std::vector<float>>> raw;  ///< [field][timestep]
  std::uint64_t raw_bytes = 0;
};

// Timesteps are seeded rotations of each preset field.
RoiSet MakeRoiSet(const RoiShape& shape, std::uint64_t seed) {
  RoiSet s;
  s.shape = shape;
  Rng rng(seed ^ 0x8bb84b93962eacc9ull);
  const std::pair<App, const char*> presets[] = {
      {App::kNyx, "baryon_density"}, {App::kHurricane, "U"},
      {App::kMiranda, "density"}};
  const double scale = shape.elems > (std::size_t{1} << 20) ? 1.0 : 0.8;
  for (const auto& [app, name] : presets) {
    szx::data::Field f = szx::data::GenerateField(app, name, scale);
    f.values.resize(shape.elems);
    s.names.push_back(std::string(szx::data::AppName(app)) + "/" + name);
    auto& steps = s.raw.emplace_back();
    for (std::size_t t = 0; t < shape.timesteps; ++t) {
      std::vector<float> v(shape.elems);
      const std::size_t off = rng.Below(shape.elems);
      std::rotate_copy(f.values.begin(),
                       f.values.begin() + static_cast<std::ptrdiff_t>(off),
                       f.values.end(), v.begin());
      s.raw_bytes += v.size() * sizeof(float);
      steps.push_back(std::move(v));
    }
  }
  return s;
}

struct RoiSession {
  szx::ByteBuffer container;
  std::unique_ptr<szx::ChunkCache> cache;
  std::unique_ptr<szx::ContainerReader> reader;
  std::vector<std::vector<std::vector<float>>> ref;  ///< full decodes
  double pack_s = 0;
  double setup_s = 0;
};

// The program's set-up: pack every timestep, then open a cached reader.
void OpenRoi(const RoiSet& set, int threads, RoiSession& s) {
  const auto t0 = Clock::now();
  szx::ContainerWriter w;
  for (std::size_t f = 0; f < set.raw.size(); ++f) {
    szx::ContainerWriter::FieldSpec spec;
    spec.name = set.names[f];
    spec.params = set.params;
    spec.elements_per_timestep = set.shape.elems;
    (void)w.AddField(spec, szx::DataType::kFloat32);
  }
  for (std::size_t t = 0; t < set.shape.timesteps; ++t) {
    for (std::size_t f = 0; f < set.raw.size(); ++f) {
      trace::Scope span("container.AppendTimestep");
      w.AppendTimestep<float>(static_cast<std::uint32_t>(f), set.raw[f][t],
                              threads);
    }
  }
  s.container = w.Finish();
  s.pack_s = Sec(Clock::now() - t0);
  s.cache = std::make_unique<szx::ChunkCache>(set.shape.cache_bytes);
  {
    trace::Scope span("container.ContainerReader");
    s.reader = std::make_unique<szx::ContainerReader>(s.container,
                                                      s.cache.get());
  }
  s.setup_s = Sec(Clock::now() - t0);
}

// Untimed: the full decode every ROI result must match, itself checked
// against the raw data and the bound.
void BuildReference(const RoiSet& set, RoiSession& s, Result& r) {
  const szx::ContainerReader plain(s.container);
  s.ref.assign(set.raw.size(), {});
  for (std::size_t f = 0; f < set.raw.size(); ++f) {
    for (std::size_t t = 0; t < set.shape.timesteps; ++t) {
      s.ref[f].push_back(plain.DecompressTimestep<float>(
          static_cast<std::uint32_t>(f), t));
      const double bound =
          szx::ResolveAbsoluteBound<float>(set.raw[f][t], set.params);
      if (ExceedsBound(set.raw[f][t], s.ref[f].back(), bound)) {
        r.Fail("roi reference decode out of bound: " + set.names[f]);
      }
    }
  }
}

struct RoiStats {
  std::vector<double> lat_ms;
  std::vector<double> at_s;  ///< when each query ended, from loop start
  std::array<std::vector<double>, kRoiFrac.size()> class_ms;
  std::vector<double> hit_ms, miss_ms;
  double chunks = 0, requested = 0, decoded = 0;
  std::uint64_t attempted = 0, failed = 0;
  szx::ChunkCacheStats cache0, cache1;
};

// One caller, closed loop: the next query goes out when the last returns.
void RoiLoop(const RoiSet& set, RoiSession& s, Rng& rng, int threads,
             Clock::duration budget, Controls& controls, RoiStats& st) {
  const Zipf zipf(set.shape.timesteps, kZipfS);
  const std::size_t e = set.shape.elems;
  std::vector<float> out(static_cast<std::size_t>(kRoiFrac.back() * e) + 1);
  st.cache0 = s.cache->Stats();
  const auto start = Clock::now();
  const auto deadline = start + budget;
  while (Clock::now() < deadline) {
    const auto f = static_cast<std::uint32_t>(rng.Below(set.raw.size()));
    const std::size_t t = zipf.Draw(rng);
    const std::size_t c = rng.Below(kRoiFrac.size());
    const std::size_t len =
        std::max<std::size_t>(1, static_cast<std::size_t>(kRoiFrac[c] * e));
    const std::size_t first = rng.Below(e - len + 1);
    const std::span<float> dst(out.data(), len);

    trace::Scope op("roi_query.query", trace::NewRequest());
    const szx::ChunkCacheStats before = s.cache->Stats();
    Clock::time_point t0, t1;
    {
      trace::Scope span("container.DecompressRange");
      t0 = Clock::now();
      s.reader->DecompressRange<float>(f, t, first, dst, threads);
      t1 = Clock::now();
    }
    const szx::ChunkCacheStats after = s.cache->Stats();
    {
      trace::Scope span("bench.verify");
      ++st.attempted;
      if (std::memcmp(dst.data(), s.ref[f][t].data() + first,
                      len * sizeof(float)) != 0) {
        ++st.failed;
      }
    }
    const double ms = Ms(t1 - t0);
    const std::uint64_t ce = s.reader->field(f).chunk_elements;
    const std::uint64_t misses = after.misses - before.misses;
    st.lat_ms.push_back(ms);
    st.at_s.push_back(Sec(t1 - start));
    st.class_ms[c].push_back(ms);
    (misses == 0 ? st.hit_ms : st.miss_ms).push_back(ms);
    st.chunks += static_cast<double>((first + len - 1) / ce - first / ce + 1);
    st.requested += static_cast<double>(len);
    st.decoded += static_cast<double>(misses * ce);
    controls.MaybeRun();
  }
  st.cache1 = s.cache->Stats();
}

void Merge(RoiStats& into, const RoiStats& from) {
  auto app = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  app(into.lat_ms, from.lat_ms);
  app(into.at_s, from.at_s);
  for (std::size_t c = 0; c < into.class_ms.size(); ++c) {
    app(into.class_ms[c], from.class_ms[c]);
  }
  app(into.hit_ms, from.hit_ms);
  app(into.miss_ms, from.miss_ms);
  into.chunks += from.chunks;
  into.requested += from.requested;
  into.decoded += from.decoded;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.cache1.hits += from.cache1.hits - from.cache0.hits;
  into.cache1.misses += from.cache1.misses - from.cache0.misses;
  into.cache1.evictions += from.cache1.evictions - from.cache0.evictions;
}

// Container and chunk-cache layer metrics from one loop's statistics, plus
// the open / verify probes over the session's container.
void RoiLayerMetrics(const RoiSet& set, const RoiSession& s,
                     const std::vector<double>& pack_s, const RoiStats& st,
                     Result& r) {
  r.Set("container.pack_gbps",
        static_cast<double>(set.raw_bytes) / Median(pack_s) / 1e9, "GB/s");
  std::vector<double> open_ms, verify_ms;
  for (int i = 0; i < 20; ++i) {
    trace::Scope span("container.ContainerReader");
    const auto t0 = Clock::now();
    const szx::ContainerReader reader(s.container);
    open_ms.push_back(Ms(Clock::now() - t0));
  }
  for (int i = 0; i < 3; ++i) {
    trace::Scope span("container.VerifyChunk");
    const auto t0 = Clock::now();
    for (std::uint64_t e = 0; e < s.reader->num_entries(); ++e) {
      if (!s.reader->VerifyChunk(e)) r.Fail("container chunk checksum");
    }
    verify_ms.push_back(Ms(Clock::now() - t0));
  }
  r.Set("container.open_ms", Median(open_ms), "ms");
  r.Set("container.verify_gbps",
        static_cast<double>(s.container.size()) / Median(verify_ms) / 1e6,
        "GB/s");
  const double queries = static_cast<double>(std::max<std::uint64_t>(1, st.attempted));
  r.Set("container.chunks_per_query", st.chunks / queries, "chunks");
  r.Set("container.decode_amplification",
        st.requested > 0 ? st.decoded / st.requested : 0, "x");
  const double lookups =
      static_cast<double>(st.cache1.hits + st.cache1.misses);
  r.Set("chunk_cache.hit_ratio",
        lookups > 0 ? static_cast<double>(st.cache1.hits) / lookups : 0,
        "fraction");
  r.Set("chunk_cache.evictions", static_cast<double>(st.cache1.evictions),
        "count");
  r.Set("chunk_cache.hit_op_ms", Median(st.hit_ms), "ms");
  r.Set("chunk_cache.miss_op_ms", Median(st.miss_ms), "ms");
}

std::vector<double> SetUp(const RoiSet& set, int threads, int reps,
                          RoiSession& s, std::vector<double>* setup_s) {
  std::vector<double> pack_s;
  for (int rep = 0; rep < reps; ++rep) {
    s = RoiSession{};
    OpenRoi(set, threads, s);
    pack_s.push_back(s.pack_s);
    if (setup_s != nullptr) setup_s->push_back(s.setup_s);
  }
  return pack_s;
}

}  // namespace

void RoiLayerBurst(const Options& opts, double seconds, Result& out) {
  trace::Scope root("probe.roi_burst", trace::NewRequest());
  const RoiSet set =
      MakeRoiSet(opts.size == Size::kTiny ? kTiny : kBurst, opts.seed);
  const int threads = Nproc();
  RoiSession s;
  const std::vector<double> pack_s = SetUp(set, threads, 3, s, nullptr);
  BuildReference(set, s, out);
  Rng rng(opts.seed ^ 0x1b873593ull);
  Controls controls;
  RoiStats st;
  RoiLoop(set, s, rng, threads,
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(seconds)),
          controls, st);
  RoiStats merged;
  Merge(merged, st);
  out.attempted += merged.attempted;
  out.failed += merged.failed;
  RoiLayerMetrics(set, s, pack_s, merged, out);
}

Result RunRoiQuery(const Options& opts) {
  Result r;
  const int threads = Nproc();
  const RoiSet set = MakeRoiSet(opts.size == Size::kTiny ? kTiny : kFull,
                                opts.seed);
  RoiSession s;
  std::vector<double> setup_s;
  const std::vector<double> pack_s = SetUp(set, threads, 15, s, &setup_s);
  BuildReference(set, s, r);

  Rng rng(opts.seed);
  Controls controls;
  controls.RunNow();
  RoiStats all, untraced, traced;
  const CpuTimes cpu0 = ReadCpuTimes();
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opts.seconds));
  if (!opts.trace) {
    RoiStats st;
    RoiLoop(set, s, rng, threads, budget, controls, st);
    Merge(all, st);
  } else {
    for (int q = 0; q < 4; ++q) {
      trace::Enable(q % 2 == 1);
      RoiStats st;
      RoiLoop(set, s, rng, threads, budget / 4, controls, st);
      trace::Enable(false);
      Merge(q % 2 == 1 ? traced : untraced, st);
      Merge(all, st);
    }
  }
  r.Note("cpu_steal_frac", StealFrac(cpu0, ReadCpuTimes()));
  r.attempted = all.attempted;
  r.failed = all.failed;

  const Tail tail =
      WindowTail(all.at_s, all.lat_ms, opts.seconds, kTailWindowS, kTailPct);
  r.Note("fields", static_cast<double>(set.raw.size()));
  r.Note("timesteps", static_cast<double>(set.shape.timesteps));
  r.Note("field_elements", static_cast<double>(set.shape.elems));
  r.Note("input_bytes", static_cast<double>(set.raw_bytes));
  r.Note("working_set_bytes", static_cast<double>(set.raw_bytes));
  r.Note("cache_bytes", static_cast<double>(set.shape.cache_bytes));
  r.Note("container_bytes", static_cast<double>(s.container.size()));
  r.Note("threads", threads);
  NoteTail(r, tail);
  r.Note("memcpy_gbps", controls.MemcpyGbps());
  r.Note("compute_probe_ms", controls.ComputeMs());

  if (!opts.trace) {
    // Throughputs at the per-class median latencies; with a uniform mix,
    // ops_per_s is one over the mean of those medians.
    double bytes = 0, ms = 0;
    for (std::size_t c = 0; c < kRoiFrac.size(); ++c) {
      bytes += kRoiFrac[c] * static_cast<double>(set.shape.elems * sizeof(float));
      ms += Median(all.class_ms[c]);
    }
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("compress_gbps",
          static_cast<double>(set.raw_bytes) / Median(pack_s) / 1e9, "GB/s");
    r.Set("decompress_gbps", bytes / ms / 1e6, "GB/s");
    r.Set("ratio",
          static_cast<double>(set.raw_bytes) /
              static_cast<double>(s.container.size()),
          "x");
    r.Set("op_p50_ms", Median(all.lat_ms), "ms");
    r.Set("op_tail_ms", tail.value, "ms");
    r.Set("ops_per_s", 1e3 * static_cast<double>(kRoiFrac.size()) / ms,
          "1/s");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }

  NoteTraceOverhead(Median(untraced.lat_ms), Median(traced.lat_ms), r);
  trace::Enable(true);
  RoiLayerMetrics(set, s, pack_s, all, r);
  trace::Enable(false);
  LayerSuiteSpec spec;
  for (const auto& f : set.raw) spec.core_fields.emplace_back(f.front());
  spec.own_roi_loop = true;
  RunLayerSuite(opts, spec, r);
  r.Set("machine.memcpy_gbps", controls.MemcpyGbps(), "GB/s");
  r.Set("machine.compute_probe_ms", controls.ComputeMs(), "ms");
  FinishTrace(opts, r);
  return r;
}

}  // namespace pb
