// Sec. 6 ablation: (a) scalar vs AVX2 block-statistics kernels -- the
// per-block min/max scan is SZx's single hottest loop; (b) serial decode vs
// the cuSZx kernel-schedule decode executed on CPU, to expose the cost
// structure of the GPU algorithm's extra collectives (prefix scans, index
// propagation) when run without massive parallelism.
#include "bench_util.hpp"
#include "core/block_stats.hpp"
#include "core/kernels/kernels.hpp"
#include "cusim/cusim_codec.hpp"

namespace {

using namespace szx;

void BlockStatsAblation(const data::Field& f) {
  const int reps = szx::bench::BenchReps();
  const double mb = static_cast<double>(f.size_bytes()) / 1e6;
  for (const std::size_t bs : {32u, 128u, 1024u}) {
    std::vector<BlockStats<float>> out((f.size() + bs - 1) / bs);
    // One multi-block call over the whole field, as the encoder's stats
    // pass makes per chunk.
    auto pass = [&](const kernels::BlockOps<float>& ops) {
      volatile float sink = 0.0f;
      const double s = szx::bench::TimeBest(reps, [&] {
        sink = ops.block_stats(f.values.data(), f.size(), bs, out.data()).max;
      });
      (void)sink;
      return s;
    };
    const double scalar_s = pass(kernels::ScalarOps<float>());
    const double simd_s = pass(kernels::Avx2Ops<float>());
    std::printf("  blocksize %-5zu scalar %8.1f MB/s   avx2 %8.1f MB/s   "
                "speedup %.2fx\n",
                bs, mb / scalar_s, mb / simd_s, scalar_s / simd_s);
  }
}

void DecodeScheduleAblation(const data::Field& f) {
  const int reps = szx::bench::BenchReps();
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  const auto stream = Compress<float>(f.values, p);
  std::vector<float> recon;
  const double serial_s =
      szx::bench::TimeBest(reps, [&] { recon = Decompress<float>(stream); });
  const double cuda_s = szx::bench::TimeBest(
      reps, [&] { recon = cusim::DecompressCuda<float>(stream); });
  const double mb = static_cast<double>(f.size_bytes()) / 1e6;
  std::printf(
      "  serial decode %8.1f MB/s   cuSZx-schedule-on-CPU %8.1f MB/s\n"
      "  (the GPU schedule trades redundant work -- scans, index\n"
      "   propagation -- for parallelism; on one core it is expected to\n"
      "   be slower, on a GPU it is the enabler of 446 GB/s.)\n",
      mb / serial_s, mb / cuda_s);
}

}  // namespace

int main() {
  szx::bench::PrintBanner("Ablation (Sec. 6)",
                          "SIMD block stats + GPU-schedule decode cost");
  const data::Field f = data::GenerateField(data::App::kMiranda, "density",
                                            szx::bench::BenchScale());
  std::printf("\nBlock min/max kernel (Miranda density, %.1f MB):\n",
              static_cast<double>(f.size_bytes()) / 1e6);
  BlockStatsAblation(f);
  std::printf("\nDecode schedule (same field):\n");
  DecodeScheduleAblation(f);
  return 0;
}
