// Thread-scaling grid (BENCH_omp.json, schema szx-bench-omp-v3; the file
// keeps its historical name):
//   grid_threads --out=PATH [--smoke] [--force]
//
// The paper's Fig. 13 axes: parallel compress and decompress on the
// executor pool at 1/2/4/8 threads x kernel x dtype, plus the serial
// decoder as reference, with speedup-vs-1-thread and decode-vs-serial
// series.  Read the thread axis against the recorded hardware_threads.
#include "bench_util.hpp"
#include "core/kernels/kernels.hpp"

namespace {

using namespace szx;
using bench::DoNotOptimize;
using bench::DtypeName;
using bench::JsonWriter;
using bench::Throughput;
using bench::TimeTrimmed;

constexpr double kRelEb = 1e-2;

struct ThreadRow {
  std::string bench;
  std::string kernel;
  std::string dtype;
  int threads;
  double rel_eb;
  Throughput t;

  void Write(JsonWriter& w) const {
    w.Field("bench", bench);
    w.Field("kernel", kernel);
    w.Field("dtype", dtype);
    w.Field("threads", threads);
    w.Field("rel_eb", rel_eb);
    t.Write(w);
  }
};

// Thread-scaling measurements for one dtype under one kernel implementation
// (the caller installs it via SetActiveKind so the whole process runs the
// kernel named in the rows), plus the serial decoder as reference.
template <typename T>
void RunForType(std::vector<ThreadRow>& rows, const char* kernel_name,
                const std::vector<T>& v, int reps) {
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = kRelEb;
  const std::size_t bytes = v.size() * sizeof(T);
  const ByteBuffer stream = Compress<T>(v, p);

  // Serial decoder reference for the parallel-decode speedup figures.
  std::vector<T> out(v.size());
  const auto st = TimeTrimmed(reps, [&] {
    DecompressInto<T>(stream, std::span<T>(out));
    DoNotOptimize(out.data());
  });
  rows.push_back({"serial_decompress", kernel_name, DtypeName<T>(), 1, kRelEb,
                  {bytes, st}});

  for (const int threads : {1, 2, 4, 8}) {
    const auto ct = TimeTrimmed(reps, [&] {
      auto s = CompressOmp<T>(v, p, nullptr, threads);
      DoNotOptimize(s.data());
    });
    rows.push_back({"omp_compress", kernel_name, DtypeName<T>(), threads,
                    kRelEb, {bytes, ct}});
    const auto dt = TimeTrimmed(reps, [&] {
      DecompressOmpInto<T>(stream, std::span<T>(out), threads);
      DoNotOptimize(out.data());
    });
    rows.push_back({"omp_decompress", kernel_name, DtypeName<T>(), threads,
                    kRelEb, {bytes, dt}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::GridSpec spec{"szx-bench-omp-v3", 1.0, 0.02, 5};
  return bench::GridMain(argc, argv, spec, [](const bench::GridRun& run) {
    const std::vector<float>& vf = run.field.values;
    const std::vector<double> vd(vf.begin(), vf.end());
    const kernels::Kind prior = kernels::ActiveKind();
    std::vector<kernels::Kind> kinds = {kernels::Kind::kScalar};
    if (kernels::Avx2Supported()) kinds.push_back(kernels::Kind::kAvx2);
    std::vector<ThreadRow> rows;
    for (const kernels::Kind kind : kinds) {
      kernels::SetActiveKind(kind);
      const char* kname = kernels::KindName(kind);
      RunForType<float>(rows, kname, vf, run.reps);
      RunForType<double>(rows, kname, vd, run.reps);
    }
    kernels::SetActiveKind(prior);

    bench::GridDoc doc;
    doc.body = [rows = std::move(rows)](JsonWriter& w) {
      w.Field("avx2_supported", kernels::Avx2Supported());
      w.Field("rel_eb", kRelEb);
      bench::WriteRows(w, "results", rows);
      // Thread-scaling series (the paper's Fig. 13 y-axis): each parallel
      // row over the same bench/kernel/dtype at 1 thread.
      bench::WriteRatioSeries(
          w, "speedup_vs_1thread", rows,
          [](const ThreadRow& r, const ThreadRow& b) {
            return r.threads != 1 && r.bench != "serial_decompress" &&
                   b.bench == r.bench && b.kernel == r.kernel &&
                   b.dtype == r.dtype && b.threads == 1;
          },
          [](JsonWriter& o, const ThreadRow& r, const ThreadRow& b) {
            o.Field("bench", r.bench);
            o.Field("kernel", r.kernel);
            o.Field("dtype", r.dtype);
            o.Field("threads", r.threads);
            o.Field("speedup", r.t.Gbps() / b.t.Gbps());
          });
      // Parallel decode at each thread count over the serial decoder -- the
      // end-to-end figure the parallel-decode acceptance bar reads.
      bench::WriteRatioSeries(
          w, "decode_speedup_vs_serial", rows,
          [](const ThreadRow& r, const ThreadRow& b) {
            return r.bench == "omp_decompress" &&
                   b.bench == "serial_decompress" && b.kernel == r.kernel &&
                   b.dtype == r.dtype;
          },
          [](JsonWriter& o, const ThreadRow& r, const ThreadRow& b) {
            o.Field("kernel", r.kernel);
            o.Field("dtype", r.dtype);
            o.Field("threads", r.threads);
            o.Field("speedup", r.t.Gbps() / b.t.Gbps());
          });
    };
    return doc;
  });
}
