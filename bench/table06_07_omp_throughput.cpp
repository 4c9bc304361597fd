// Tables 6-7 reproduction: multicore compression/decompression throughput
// for omp-SZx, omp-ZFP (compression only, like the paper) and omp-SZ (3-D
// data only, like the paper's omp-SZ which lacks 2-D support).  The paper
// ran these on OpenMP; here every chunk-parallel codec runs on the
// executor pool behind exec::ParallelFor.
//
// The thread count is exec::DefaultThreads(): SZX_THREADS if set, else the
// CPUs in the affinity mask.  Ratios between codecs hold on any host;
// absolute GB/s scale with the core count.
#include "bench_util.hpp"
#include "core/executor.hpp"

namespace {

using namespace szx;
using szx::bench::Codec;

struct AppThroughput {
  double compress_gbps = 0.0;
  double decompress_gbps = 0.0;
  bool available = true;
};

AppThroughput MeasureApp(Codec codec, data::App app, double rel_eb,
                         int threads) {
  // The paper's omp-SZ does not support 2-D (CESM) data.
  if (codec == Codec::kSzOmp && app == data::App::kCesm) {
    return {0, 0, false};
  }
  double total_bytes = 0.0, total_cs = 0.0, total_ds = 0.0;
  for (const auto& f : bench::AppFields(app)) {
    const auto r = szx::bench::MeasureCodec(codec, f, rel_eb, threads);
    total_bytes += static_cast<double>(f.size_bytes());
    total_cs += r.compress_s;
    total_ds += r.decompress_s;
  }
  return {total_bytes / 1e9 / total_cs, total_bytes / 1e9 / total_ds};
}

void PrintTable(bool decompress, int threads) {
  const auto apps = data::AllApps();
  std::printf("\n%s throughput with %d threads (GB/s)\n",
              decompress ? "Decompression (Table 7)"
                         : "Compression (Table 6)",
              threads);
  std::printf("%-8s %-6s", "codec", "REL");
  for (const auto app : apps) std::printf(" %11s", data::AppName(app));
  std::printf("\n");
  for (const Codec codec :
       {Codec::kSzxOmp, Codec::kZfpOmp, Codec::kSzOmp}) {
    // Like the paper, omp-ZFP has no parallel decompressor: Table 7 rows
    // for ZFP are n/a.
    if (decompress && codec == Codec::kZfpOmp) {
      for (const double eb : {1e-2, 1e-3, 1e-4}) {
        std::printf("%-8s %-6.0e", szx::bench::CodecName(codec), eb);
        for (std::size_t a = 0; a < apps.size(); ++a) {
          std::printf(" %11s", "n/a");
        }
        std::printf("\n");
      }
      continue;
    }
    for (const double eb : {1e-2, 1e-3, 1e-4}) {
      std::printf("%-8s %-6.0e", szx::bench::CodecName(codec), eb);
      for (const auto app : apps) {
        const auto t = MeasureApp(codec, app, eb, threads);
        if (!t.available) {
          std::printf(" %11s", "n/a");
        } else {
          std::printf(" %11.3f", decompress ? t.decompress_gbps
                                            : t.compress_gbps);
        }
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main() {
  const int threads = szx::exec::DefaultThreads();
  szx::bench::PrintBanner("Tables 6 and 7",
                          "multicore throughput, all applications");
  PrintTable(/*decompress=*/false, threads);
  PrintTable(/*decompress=*/true, threads);
  std::printf(
      "\nPaper shape (64 threads): omp-SZx 3.4-6.8x over omp-ZFP and\n"
      "2.4-4.8x over omp-SZ in compression; 2.3-4.6x over omp-SZ in\n"
      "decompression; omp-ZFP decompression and omp-SZ-on-2D are n/a.\n"
      "This run used %d thread(s): ratios between codecs hold, "
      "absolute\nGB/s scale with core count.\n",
      threads);
  return 0;
}
