// Per-layer probes of the traced run.  Each layer is measured from outside
// by timing calls into its public functions.
#include <algorithm>
#include <cstdio>

#include "core/block_plan.hpp"
#include "core/block_stats.hpp"
#include "core/encode.hpp"
#include "core/executor.hpp"
#include "core/kernels/kernels.hpp"
#include "core/omp_codec.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kReps = 3;
constexpr double kBurstSeconds = 2;

template <typename F>
double TimeMs(F&& f) {
  const auto t0 = Clock::now();
  f();
  return Ms(Clock::now() - t0);
}

template <typename F>
double MedianMs(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(TimeMs(f));
  return Median(v);
}

struct CoreTotals {
  double raw_bytes = 0;
  double range_ms = 0, stats_ms = 0;
  double enc_bytes = 0, enc_ms = 0, dec_ms = 0;
  double ser_c_ms = 0, ser_d_ms = 0, omp_c_ms = 0;
  double z_bytes = 0;
  std::uint64_t blocks = 0, const_blocks = 0;
};

// Serial calls on one field: the plain single-thread baseline, stage by
// stage (global range, block stats, Solution-C encode, decode) and whole.
void ProbeField(std::span<const float> data, int threads, CoreTotals& t,
                Result& out) {
  const szx::Params params;
  const std::uint32_t bs = params.block_size;
  const std::size_t n = data.size();
  const std::size_t nb = (n + bs - 1) / bs;
  t.raw_bytes += static_cast<double>(n * sizeof(float));

  double sink = 0;
  t.range_ms += MedianMs(kReps, [&] {
    trace::Scope s("core.ComputeGlobalRange");
    sink += szx::ComputeGlobalRange<float>(data).max;
  });
  t.stats_ms += MedianMs(kReps, [&] {
    trace::Scope s("core.ComputeBlockStats");
    for (std::size_t k = 0; k < nb; ++k) {
      const auto b = data.subspan(k * bs, std::min<std::size_t>(bs, n - k * bs));
      sink += szx::ComputeBlockStats<float>(b).radius;
    }
  });

  // Untimed: the per-block decisions the encoder consumes.
  const double bound = szx::ResolveAbsoluteBound<float>(data, params);
  const int eb_expo = szx::BoundExponent(bound);
  std::vector<szx::BlockDecision<float>> dec(nb);
  std::size_t enc_elems = 0;
  for (std::size_t k = 0; k < nb; ++k) {
    const auto b = data.subspan(k * bs, std::min<std::size_t>(bs, n - k * bs));
    dec[k] = szx::DecideBlock<float>(b, szx::ComputeBlockStats<float>(b),
                                     params.mode, params.error_bound, bound,
                                     eb_expo);
    if (!dec[k].is_constant) enc_elems += b.size();
  }
  std::vector<std::byte> payload(szx::kernels::FramePayloadCapacity(
      nb, bs, n * sizeof(float)));
  std::vector<std::size_t> off(nb + 1, 0);
  t.enc_bytes += static_cast<double>(enc_elems * sizeof(float));
  t.enc_ms += MedianMs(kReps, [&] {
    trace::Scope s("core.EncodeBlockInto");
    std::size_t pos = 0;
    for (std::size_t k = 0; k < nb; ++k) {
      off[k] = pos;
      if (dec[k].is_constant) continue;
      const auto b = data.subspan(k * bs, std::min<std::size_t>(bs, n - k * bs));
      pos += szx::EncodeBlockInto<float>(szx::CommitSolution::kC, b, dec[k].mu,
                                         dec[k].plan, payload.data() + pos);
    }
    off[nb] = pos;
  });
  std::vector<float> recon(n);
  t.dec_ms += MedianMs(kReps, [&] {
    trace::Scope s("core.DecodeBlockC");
    for (std::size_t k = 0; k < nb; ++k) {
      if (dec[k].is_constant) continue;
      const std::size_t len = std::min<std::size_t>(bs, n - k * bs);
      szx::DecodeBlockC<float>(
          szx::ByteSpan(payload.data() + off[k], off[k + 1] - off[k]),
          dec[k].mu, dec[k].plan, std::span<float>(recon).subspan(k * bs, len));
    }
  });
  for (std::size_t k = 0; k < nb; ++k) {
    if (!dec[k].is_constant) continue;
    const std::size_t len = std::min<std::size_t>(bs, n - k * bs);
    std::fill_n(recon.begin() + static_cast<std::ptrdiff_t>(k * bs), len,
                dec[k].mu);
  }
  if (ExceedsBound(data, recon, bound)) {
    out.Fail("block encode/decode probe out of bound");
  }

  szx::CompressionStats st;
  szx::ByteBuffer stream;
  t.ser_c_ms += MedianMs(kReps, [&] {
    trace::Scope s("core.Compress");
    stream = szx::Compress<float>(data, params, &st);
  });
  t.ser_d_ms += MedianMs(kReps, [&] {
    trace::Scope s("core.DecompressInto");
    szx::DecompressInto<float>(stream, std::span<float>(recon));
  });
  if (ExceedsBound(data, recon, bound)) out.Fail("serial decode out of bound");
  t.omp_c_ms += MedianMs(kReps, [&] {
    trace::Scope s("core.CompressOmp");
    sink += static_cast<double>(
        szx::CompressOmp<float>(data, params, nullptr, threads).size());
  });
  t.z_bytes += static_cast<double>(stream.size());
  t.blocks += st.num_blocks;
  t.const_blocks += st.num_constant_blocks;
  if (sink == -1) std::fprintf(stderr, "perfbench: probe sink\n");
}

void ProbeCore(std::span<const std::span<const float>> fields, int threads,
               Result& out) {
  trace::Scope root("probe.core", trace::NewRequest());
  CoreTotals t;
  for (const auto& f : fields) ProbeField(f, threads, t, out);
  const auto gbps = [](double bytes, double ms) { return bytes / ms / 1e6; };
  out.Set("core.global_range.gbps", gbps(t.raw_bytes, t.range_ms), "GB/s");
  out.Set("core.block_stats.gbps", gbps(t.raw_bytes, t.stats_ms), "GB/s");
  out.Set("core.encode.gbps", gbps(t.enc_bytes, t.enc_ms), "GB/s");
  out.Set("core.decode.gbps", gbps(t.enc_bytes, t.dec_ms), "GB/s");
  out.Set("core.serial_compress_gbps", gbps(t.raw_bytes, t.ser_c_ms), "GB/s");
  out.Set("core.serial_decompress_gbps", gbps(t.raw_bytes, t.ser_d_ms),
          "GB/s");
  out.Set("core.parallel_efficiency", t.ser_c_ms / (threads * t.omp_c_ms),
          "fraction");
  out.Set("core.const_block_frac",
          static_cast<double>(t.const_blocks) / static_cast<double>(t.blocks),
          "fraction");
  // Computed, not measured: one serial compression reads the input twice
  // (global-range pass, then the block pass) and writes the stream once.
  out.Set("core.bytes_moved", 2 * t.raw_bytes + t.z_bytes, "bytes");
}

void ProbeExec(std::span<const float> sample, int threads, Result& out) {
  trace::Scope root("probe.exec", trace::NewRequest());
  std::vector<double> us;
  const auto until = Clock::now() + std::chrono::milliseconds(500);
  while (Clock::now() < until || us.size() < 2000) {
    const auto t0 = Clock::now();
    szx::exec::ParallelFor(static_cast<std::uint64_t>(threads), threads,
                           [](std::uint64_t) {});
    us.push_back(Ms(Clock::now() - t0) * 1e3);
  }
  out.Set("exec.dispatch_us", Median(us), "us");
  out.Set("exec.dispatch_p99_us", Percentile(us, 0.99), "us");

  const auto small = sample.subspan(0, std::min<std::size_t>(100000, sample.size()));
  const szx::Params params;
  std::vector<double> c_us;
  for (int i = 0; i < 300; ++i) {
    trace::Scope s("core.CompressOmp.small");
    const auto t0 = Clock::now();
    const auto z = szx::CompressOmp<float>(small, params, nullptr, threads);
    c_us.push_back(Ms(Clock::now() - t0) * 1e3);
    if (z.empty()) out.Fail("empty small stream");
  }
  out.Set("exec.small_compress_us", Median(c_us), "us");
}

}  // namespace

void RunLayerSuite(const Options& opts, const LayerSuiteSpec& spec,
                   Result& out) {
  // Parallel efficiency at the workload's own width; executor dispatch at
  // nproc, the width of the dispatch-bound workloads it should move.
  const int threads = spec.threads > 0 ? spec.threads : Nproc();
  out.Note("parallel_efficiency_threads", threads);
  out.Note("exec_probe_threads", Nproc());
  trace::Enable(true);
  ProbeCore(spec.core_fields, threads, out);
  ProbeExec(spec.core_fields.front(), Nproc(), out);
  if (!spec.own_roi_loop) RoiLayerBurst(opts, kBurstSeconds, out);
  if (!spec.own_serve_loop) ServeLayerBurst(opts, kBurstSeconds, out);
  trace::Enable(false);
}

void NoteTraceOverhead(double untraced_p50_ms, double traced_p50_ms,
                       Result& out) {
  out.Note("untraced_op_p50_ms", untraced_p50_ms);
  out.Note("traced_op_p50_ms", traced_p50_ms);
  out.Set("trace.overhead_pct",
          (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0, "%");
}

void FinishTrace(const Options& opts, Result& out) {
  const std::vector<trace::Span> spans = trace::Collect();
  if (!opts.trace_out.empty()) {
    trace::WriteChromeJson(opts.trace_out, spans);
    out.Note("trace_file", JsonString(opts.trace_out));
  }
  std::string self = "{";
  for (const auto& [name, st] : trace::SelfTimes(spans)) {
    if (self.size() > 1) self += ",";
    self += JsonString(name) + ":{\"self_ms\":" + JsonNumber(st.self_ms) +
            ",\"total_ms\":" + JsonNumber(st.total_ms) +
            ",\"count\":" + std::to_string(st.count) + "}";
  }
  out.Note("trace_spans", static_cast<double>(spans.size()));
  out.Note("trace_self_time", self + "}");
}

}  // namespace pb
