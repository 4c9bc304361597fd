// dump_large: a simulation dumping and reloading a snapshot.  Bandwidth
// bound: the codec kernels do almost all the work.
#include <algorithm>
#include <cstring>
#include <thread>

#include "core/executor.hpp"
#include "core/omp_codec.hpp"
#include "data/datasets.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using szx::data::App;

struct PresetField {
  App app;
  const char* name;
  double scale;  ///< full size: every field >= 1e7 elements
};

// Constant (sparse density/cloud fields), smooth (U, temperature) and rough
// (velocities) blocks all occur; 7 x ~64 MiB cycles >= 4x a 105 MiB LLC.
constexpr PresetField kSnapshot[] = {
    {App::kNyx, "baryon_density", 2.0},  {App::kNyx, "temperature", 2.0},
    {App::kNyx, "velocity_x", 2.0},      {App::kHurricane, "QCLOUD", 1.75},
    {App::kHurricane, "U", 1.75},        {App::kMiranda, "density", 1.44},
    {App::kMiranda, "velocity-x", 1.44},
};
constexpr double kTinyScale = 0.2;

struct SnapField {
  std::string label;
  std::vector<float> raw;
  double bound = 0;
  szx::ByteBuffer stream;  ///< reference stream from set-up
};

// Seeded snapshot: each preset field is rotated by a seeded offset, so the
// block boundaries (and with them every block's statistics) move with the
// seed while the field's character stays.  Generation is never timed.
std::vector<SnapField> MakeSnapshot(const Options& opts) {
  std::vector<SnapField> fields(std::size(kSnapshot));
  Rng rng(opts.seed ^ 0xd1b54a32d192ed03ull);
  std::vector<std::uint64_t> rot(fields.size());
  for (auto& r : rot) r = rng.Next();
  const std::size_t width = static_cast<std::size_t>(Nproc());
  for (std::size_t b = 0; b < fields.size(); b += width) {
    std::vector<std::thread> gen;
    for (std::size_t i = b; i < std::min(fields.size(), b + width); ++i) {
      gen.emplace_back([&, i] {
        const PresetField& p = kSnapshot[i];
        const double scale = opts.size == Size::kTiny ? kTinyScale : p.scale;
        szx::data::Field f = szx::data::GenerateField(p.app, p.name, scale);
        const std::size_t off = rot[i] % f.values.size();
        std::rotate(f.values.begin(),
                    f.values.begin() + static_cast<std::ptrdiff_t>(off),
                    f.values.end());
        fields[i].label = std::string(szx::data::AppName(p.app)) + "/" + p.name;
        fields[i].raw = std::move(f.values);
      });
    }
    for (auto& t : gen) t.join();
  }
  return fields;
}

struct PairSamples {
  std::vector<std::vector<double>> compress_ms;    ///< per field
  std::vector<std::vector<double>> decompress_ms;  ///< per field
  std::vector<double> pair_ms;  ///< compress + decompress of one field
  std::vector<double> pair_at_s;  ///< when each pair ended, from loop start
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Ops alternate CompressOmp / DecompressOmpInto field by field, so drift in
// the host hits both halves alike; the deadline is checked only at whole
// cycles so every field gets the same number of samples.
void DumpLoop(std::vector<SnapField>& fields, std::span<float> out,
              const szx::Params& params, int threads, Clock::duration budget,
              Controls& controls, PairSamples& s) {
  s.compress_ms.resize(fields.size());
  s.decompress_ms.resize(fields.size());
  const auto start = Clock::now();
  const auto deadline = start + budget;
  while (Clock::now() < deadline) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      SnapField& f = fields[i];
      const std::span<float> dst = out.subspan(0, f.raw.size());
      trace::Scope op("dump_large.roundtrip", trace::NewRequest());
      Clock::time_point t0, t1, t2, t3;
      szx::ByteBuffer stream;
      {
        trace::Scope span("core.CompressOmp");
        t0 = Clock::now();
        stream = szx::CompressOmp<float>(f.raw, params, nullptr, threads);
        t1 = Clock::now();
      }
      {
        trace::Scope span("core.DecompressOmpInto");
        t2 = Clock::now();
        szx::DecompressOmpInto<float>(stream, dst, threads);
        t3 = Clock::now();
      }
      {
        trace::Scope span("bench.verify");
        s.attempted += 2;
        if (stream != f.stream) ++s.failed;  // parallel == serial bytes
        if (ExceedsBound(f.raw, dst, f.bound)) ++s.failed;
      }
      s.compress_ms[i].push_back(Ms(t1 - t0));
      s.decompress_ms[i].push_back(Ms(t3 - t2));
      s.pair_ms.push_back(Ms(t1 - t0) + Ms(t3 - t2));
      s.pair_at_s.push_back(Sec(t3 - start));
      controls.MaybeRun();
    }
  }
}

void Merge(PairSamples& into, const PairSamples& from) {
  into.compress_ms.resize(from.compress_ms.size());
  into.decompress_ms.resize(from.decompress_ms.size());
  for (std::size_t i = 0; i < from.compress_ms.size(); ++i) {
    auto& c = into.compress_ms[i];
    c.insert(c.end(), from.compress_ms[i].begin(), from.compress_ms[i].end());
    auto& d = into.decompress_ms[i];
    d.insert(d.end(), from.decompress_ms[i].begin(),
             from.decompress_ms[i].end());
  }
  into.pair_ms.insert(into.pair_ms.end(), from.pair_ms.begin(),
                      from.pair_ms.end());
  into.pair_at_s.insert(into.pair_at_s.end(), from.pair_at_s.begin(),
                        from.pair_at_s.end());
  into.attempted += from.attempted;
  into.failed += from.failed;
}

// ~9 round trips a second, too few for windows with >= 10 samples beyond
// p90: p90 over the whole run.
constexpr double kTailPct = 90;

}  // namespace

Result RunDumpLarge(const Options& opts) {
  Result r;
  // Half the cores: a fork-join over every vCPU of a shared guest waits out
  // whichever vCPU the hypervisor has preempted, so at nproc threads the
  // run-to-run spread followed the host's steal time (README.md).
  const int threads = std::max(1, Nproc() / 2);
  szx::Params params;  // REL 1e-3, block 128, solution C
  // Executor start: the first parallel call starts the process-wide pool
  // every CompressOmp / DecompressOmpInto below runs on.  It happens once
  // per process, so it is one cold sample, reported as context.
  const auto pool_t0 = Clock::now();
  szx::exec::ParallelFor(static_cast<std::uint64_t>(threads), threads,
                         [](std::uint64_t) {});
  const double executor_start_ms = Ms(Clock::now() - pool_t0);
  std::vector<SnapField> fields = MakeSnapshot(opts);
  std::uint64_t raw_bytes = 0;
  std::size_t max_n = 0;
  for (auto& f : fields) {
    raw_bytes += f.raw.size() * sizeof(float);
    max_n = std::max(max_n, f.raw.size());
    f.bound = szx::ResolveAbsoluteBound<float>(f.raw, params);
  }
  // The benchmark's own output buffer, allocated and touched once, so its
  // page faults are in neither set-up nor the ops.
  std::vector<float> out(max_n, 0.0f);

  // Set-up: one warm-up dump + reload of every field, repeated; setup_s is
  // the median.  The bound checks between the warm-up ops are not timed.
  std::vector<double> setup_s;
  for (int rep = 0; rep < 7; ++rep) {
    Clock::duration spent{};
    for (SnapField& f : fields) {
      const std::span<float> dst = std::span<float>(out).subspan(0, f.raw.size());
      const auto t0 = Clock::now();
      szx::ByteBuffer stream =
          szx::CompressOmp<float>(f.raw, params, nullptr, threads);
      szx::DecompressOmpInto<float>(stream, dst, threads);
      spent += Clock::now() - t0;
      if (ExceedsBound(f.raw, dst, f.bound)) {
        r.Fail("dump_large warm-up decode out of bound: " + f.label);
      }
      if (rep > 0 && stream != f.stream) {
        r.Fail("dump_large stream not deterministic: " + f.label);
      }
      f.stream = std::move(stream);
    }
    setup_s.push_back(Sec(spent));
  }
  const szx::ByteBuffer serial = szx::Compress<float>(fields[0].raw, params);
  if (serial != fields[0].stream) r.Fail("CompressOmp != serial Compress");

  std::uint64_t z_bytes = 0;
  for (const auto& f : fields) z_bytes += f.stream.size();
  Controls controls;
  controls.RunNow();

  PairSamples all, untraced, traced;
  const CpuTimes cpu0 = ReadCpuTimes();
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opts.seconds));
  if (!opts.trace) {
    DumpLoop(fields, out, params, threads, budget, controls, all);
  } else {
    for (int q = 0; q < 4; ++q) {
      trace::Enable(q % 2 == 1);
      DumpLoop(fields, out, params, threads, budget / 4, controls,
               q % 2 == 1 ? traced : untraced);
      trace::Enable(false);
    }
    Merge(all, untraced);
    Merge(all, traced);
  }
  r.Note("cpu_steal_frac", StealFrac(cpu0, ReadCpuTimes()));
  r.attempted = all.attempted;
  r.failed = all.failed;

  double c_ms = 0, d_ms = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    c_ms += Median(all.compress_ms[i]);
    d_ms += Median(all.decompress_ms[i]);
  }
  const Tail tail =
      WindowTail(all.pair_at_s, all.pair_ms, opts.seconds, opts.seconds,
                 kTailPct);
  r.Note("fields", static_cast<double>(fields.size()));
  r.Note("field_elements_min",
         static_cast<double>(std::min_element(fields.begin(), fields.end(),
                                              [](auto& a, auto& b) {
                                                return a.raw.size() <
                                                       b.raw.size();
                                              })
                                 ->raw.size()));
  r.Note("input_bytes", static_cast<double>(raw_bytes));
  r.Note("working_set_bytes",
         static_cast<double>(raw_bytes + z_bytes + max_n * sizeof(float)));
  r.Note("working_set_over_llc",
         static_cast<double>(raw_bytes) / static_cast<double>(LlcBytes() + 1));
  r.Note("threads", threads);
  r.Note("executor_start_ms", executor_start_ms);
  std::string reps = "[";
  for (double v : setup_s) reps += (reps.size() > 1 ? "," : "") + JsonNumber(v);
  r.Note("setup_s_reps", reps + "]");
  r.Note("op", "\"one field: CompressOmp + DecompressOmpInto\"");
  NoteTail(r, tail);
  // Drift inside an untraced run: median round trip per 5-second window.
  std::string windows = "[";
  for (double w = 0; w < opts.seconds; w += 5) {
    std::vector<double> v;
    for (std::size_t j = 0; j < all.pair_ms.size(); ++j) {
      if (all.pair_at_s[j] >= w && all.pair_at_s[j] < w + 5) v.push_back(all.pair_ms[j]);
    }
    windows += (windows.size() > 1 ? "," : "") + JsonNumber(Median(v));
  }
  if (!opts.trace) r.Note("op_p50_ms_by_5s", windows + "]");
  r.Note("memcpy_gbps", controls.MemcpyGbps());
  r.Note("compute_probe_ms", controls.ComputeMs());

  const double compress_gbps = static_cast<double>(raw_bytes) / c_ms / 1e6;
  const double decompress_gbps = static_cast<double>(raw_bytes) / d_ms / 1e6;
  if (!opts.trace) {
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("compress_gbps", compress_gbps, "GB/s");
    r.Set("decompress_gbps", decompress_gbps, "GB/s");
    r.Set("ratio", static_cast<double>(raw_bytes) / static_cast<double>(z_bytes),
          "x");
    r.Set("op_p50_ms", Median(all.pair_ms), "ms");
    r.Set("op_tail_ms", tail.value, "ms");
    // Ops per second at the per-field median op times, like the GB/s.
    r.Set("ops_per_s", 2e3 * static_cast<double>(fields.size()) / (c_ms + d_ms),
          "1/s");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }

  r.Note("traced_compress_gbps", compress_gbps);
  r.Note("traced_decompress_gbps", decompress_gbps);
  NoteTraceOverhead(Median(untraced.pair_ms), Median(traced.pair_ms), r);
  LayerSuiteSpec spec;
  spec.threads = threads;
  for (const auto& f : fields) spec.core_fields.emplace_back(f.raw);
  RunLayerSuite(opts, spec, r);
  r.Set("machine.memcpy_gbps", controls.MemcpyGbps(), "GB/s");
  r.Set("machine.compute_probe_ms", controls.ComputeMs(), "ms");
  FinishTrace(opts, r);
  return r;
}

}  // namespace pb
