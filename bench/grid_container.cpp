// Container ROI + cache grid (BENCH_container.json, schema
// szx-bench-container-v1):
//   grid_container --out=PATH [--smoke] [--force]
//
// Format-v3 container: full-timestep decode vs centered ROI decodes at
// 1/5/10/25% of the field x 1/2/4/8 threads, cold (uncached) and warm
// (decoded-chunk LRU cache hit path), with the derived roi_cost_vs_full and
// warm_speedup_vs_cold series -- the seekability and cache acceptance bars
// read by docs/performance.md.  Row timings are per query.
#include "bench_util.hpp"
#include "core/chunk_cache.hpp"
#include "core/container.hpp"

namespace {

using namespace szx;
using bench::DoNotOptimize;
using bench::JsonWriter;
using bench::Throughput;
using bench::TimeTrimmed;
using bench::TrimmedTiming;

constexpr double kRelEb = 1e-2;
constexpr std::uint64_t kTimesteps = 2;

// The queries run from ~0.2 µs (a warm 1% ROI) to a fraction of a ms (a
// full decode), too short for one timed call to resolve: the same row
// spread 8-82% of its median across runs.  So each timed repetition runs
// as many queries as last >= kMinRepSeconds, the rule grid_codec's
// kBlockPasses/kRangeSlabs keep, and the row reports the time per query.
constexpr double kMinRepSeconds = 1e-3;

struct QueryTiming {
  int queries_per_rep = 1;
  TrimmedTiming per_query;
};

template <typename Fn>
QueryTiming TimeQuery(int reps, Fn&& query) {
  query();  // warm-up
  double fastest = 1e30;
  for (int i = 0; i < 3; ++i) {
    const double t0 = bench::NowSeconds();
    query();
    fastest = std::min(fastest, bench::NowSeconds() - t0);
  }
  QueryTiming q;
  q.queries_per_rep = static_cast<int>(
      std::max(1.0, std::ceil(kMinRepSeconds / std::max(fastest, 1e-9))));
  q.per_query = TimeTrimmed(reps, [&] {
    for (int i = 0; i < q.queries_per_rep; ++i) query();
  });
  q.per_query.mean_s /= q.queries_per_rep;
  q.per_query.min_s /= q.queries_per_rep;
  q.per_query.max_s /= q.queries_per_rep;
  return q;
}

struct ContainerRow {
  std::string bench;       // full_decode | roi_cold | roi_warm
  double roi_fraction;     // 1.0 for full_decode
  int threads;
  std::uint64_t elements;  // elements the query decodes
  int queries_per_rep;     // queries in one timed repetition
  Throughput t;            // bytes: decoded output bytes of one query

  void Write(JsonWriter& w) const {
    w.Field("bench", bench);
    w.Field("roi_fraction", roi_fraction);
    w.Field("threads", threads);
    w.Field("elements", elements);
    w.Field("queries_per_rep", queries_per_rep);
    t.Write(w);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::GridSpec spec{"szx-bench-container-v1", 1.0, 0.02, 5};
  return bench::GridMain(argc, argv, spec, [](const bench::GridRun& run) {
    const std::vector<float>& vf = run.field.values;
    const std::uint64_t ept = vf.size();
    // ~64 chunks per timestep regardless of --smoke scaling, so the
    // smallest ROI fraction below still covers at least one whole chunk and
    // the cost ratios stay comparable across scales.
    const std::uint64_t chunk_elements =
        std::max<std::uint64_t>(256, (ept + 63) / 64);

    ContainerWriter cw;
    ContainerWriter::FieldSpec fspec;
    fspec.name = run.field.name;
    fspec.params.mode = ErrorBoundMode::kValueRangeRelative;
    fspec.params.error_bound = kRelEb;
    fspec.elements_per_timestep = ept;
    fspec.chunk_elements = chunk_elements;
    const std::uint32_t fid = cw.AddField(fspec, DataType::kFloat32);
    for (std::uint64_t ts = 0; ts < kTimesteps; ++ts) {
      cw.AppendTimestep<float>(fid, std::span<const float>(vf));
    }
    const ByteBuffer container = cw.Finish();

    const ContainerReader cold_reader(container);
    // Sized for every decoded chunk of the queried timestep, single shard
    // so the capacity bound is exact (with N shards each gets capacity/N,
    // which could evict a hot chunk): the warm rows then measure pure cache
    // hits.
    ChunkCache cache(static_cast<std::size_t>(ept) * sizeof(float) * 2, 1);
    const ContainerReader warm_reader(container, &cache);

    constexpr double kRoiFractions[] = {0.01, 0.05, 0.10, 0.25};
    std::vector<float> out(vf.size());
    std::vector<ContainerRow> rows;
    for (const int threads : {1, 2, 4, 8}) {
      const QueryTiming ft = TimeQuery(run.reps, [&] {
        cold_reader.DecompressRange<float>(fid, 0, 0, std::span<float>(out),
                                           threads);
        DoNotOptimize(out.data());
      });
      rows.push_back({"full_decode", 1.0, threads, ept, ft.queries_per_rep,
                      {ept * sizeof(float), ft.per_query}});
      for (const double frac : kRoiFractions) {
        const std::uint64_t count = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(ept) * frac));
        const std::uint64_t first = (ept - count) / 2;  // center the ROI
        const std::span<float> roi(out.data(), count);
        const QueryTiming ct = TimeQuery(run.reps, [&] {
          cold_reader.DecompressRange<float>(fid, 0, first, roi, threads);
          DoNotOptimize(out.data());
        });
        rows.push_back({"roi_cold", frac, threads, count, ct.queries_per_rep,
                        {count * sizeof(float), ct.per_query}});
        // Populate the cache outside the timed region; every timed rep then
        // exercises the hit path (probe + bounds-checked copy).
        warm_reader.DecompressRange<float>(fid, 0, first, roi, threads);
        const QueryTiming wt = TimeQuery(run.reps, [&] {
          warm_reader.DecompressRange<float>(fid, 0, first, roi, threads);
          DoNotOptimize(out.data());
        });
        rows.push_back({"roi_warm", frac, threads, count, wt.queries_per_rep,
                        {count * sizeof(float), wt.per_query}});
      }
    }
    const ChunkCacheStats cs = cache.Stats();

    bench::GridDoc doc;
    doc.field_extras = {{"timesteps", kTimesteps},
                        {"chunk_elements", chunk_elements},
                        {"container_bytes", container.size()}};
    doc.body = [rows = std::move(rows), cs,
                capacity = cache.capacity_bytes()](JsonWriter& w) {
      w.Field("rel_eb", kRelEb);
      w.BeginObject("cache");
      w.Field("capacity_bytes", capacity);
      w.Field("hits", cs.hits);
      w.Field("misses", cs.misses);
      w.Field("insertions", cs.insertions);
      w.Field("evictions", cs.evictions);
      w.EndObject();
      bench::WriteRows(w, "results", rows);
      // ROI cost relative to decoding the whole timestep at the same thread
      // count -- the seekability acceptance bar: an ROI covering <=10% of
      // the container must cost <=25% of the full decode.
      bench::WriteRatioSeries(
          w, "roi_cost_vs_full", rows,
          [](const ContainerRow& r, const ContainerRow& b) {
            return r.bench == "roi_cold" && b.bench == "full_decode" &&
                   b.threads == r.threads;
          },
          [](JsonWriter& o, const ContainerRow& r, const ContainerRow& b) {
            o.Field("roi_fraction", r.roi_fraction);
            o.Field("threads", r.threads);
            o.Field("cost", r.t.timing.mean_s / b.t.timing.mean_s);
          });
      // Warm-cache repeat query over the identical cold query -- the cache
      // acceptance bar: a repeat query over hot chunks must run >=5x faster.
      bench::WriteRatioSeries(
          w, "warm_speedup_vs_cold", rows,
          [](const ContainerRow& r, const ContainerRow& b) {
            return r.bench == "roi_warm" && b.bench == "roi_cold" &&
                   b.threads == r.threads &&
                   b.roi_fraction == r.roi_fraction;
          },
          [](JsonWriter& o, const ContainerRow& r, const ContainerRow& b) {
            o.Field("roi_fraction", r.roi_fraction);
            o.Field("threads", r.threads);
            o.Field("speedup", b.t.timing.mean_s / r.t.timing.mean_s);
          });
    };
    return doc;
  });
}
