// Fig. 16 reproduction: data dumping/loading time breakdown
// (compression/decompression vs PFS write/read) on 64..1024 simulated
// ranks, Nyx dataset, REL bounds {1e-2, 1e-3, 1e-4}.  Compression
// throughput and ratio are *measured* from this repository's codecs on the
// Nyx preset; the PFS is the documented bandwidth-sharing model
// (src/iosim).  Shape targets: SZx takes ~1/3-1/2 the time of SZ/ZFP at
// these scales because compression dominates when the PFS is fast.
#include "bench_util.hpp"
#include "iosim/event_sim.hpp"
#include "iosim/pfs_sim.hpp"
#include "iosim/retry_sim.hpp"

namespace {

using namespace szx;
using szx::bench::Codec;

struct CodecRates {
  double compress_gbps = 0.0;
  double decompress_gbps = 0.0;
  double ratio = 0.0;
};

CodecRates MeasureNyx(Codec codec, double rel_eb) {
  double bytes = 0.0, cs = 0.0, ds = 0.0, zbytes = 0.0;
  for (const auto& f : bench::AppFields(data::App::kNyx)) {
    const auto r = szx::bench::MeasureCodec(codec, f, rel_eb);
    bytes += static_cast<double>(f.size_bytes());
    zbytes += static_cast<double>(r.compressed_bytes);
    cs += r.compress_s;
    ds += r.decompress_s;
  }
  return {bytes / 1e9 / cs, bytes / 1e9 / ds, bytes / zbytes};
}

void OneBound(double rel_eb) {
  const iosim::PfsSpec pfs;  // ThetaGPU-like Lustre model
  // Per-rank payload: the paper's Nyx snapshot share per rank.
  const std::uint64_t bytes_per_rank = 768ull << 20;  // 768 MB

  std::printf("\nREL e = %.0e   (per-rank raw data: %.0f MB, PFS: %s)\n",
              rel_eb, static_cast<double>(bytes_per_rank) / 1e6,
              pfs.name.c_str());
  std::printf("%-8s %-10s", "ranks", "codec");
  std::printf(" %9s %9s %9s | %9s %9s %9s\n", "comp(s)", "write(s)",
              "dump(s)", "read(s)", "decomp(s)", "load(s)");
  const Codec codecs[] = {Codec::kSzx, Codec::kSz, Codec::kZfp};
  for (const int ranks : {64, 128, 256, 512, 1024}) {
    for (const Codec codec : codecs) {
      const CodecRates rates = MeasureNyx(codec, rel_eb);
      iosim::RankWorkload w;
      w.bytes_per_rank = bytes_per_rank;
      w.compress_gbps = rates.compress_gbps;
      w.decompress_gbps = rates.decompress_gbps;
      w.compression_ratio = rates.ratio;
      const auto dump = iosim::SimulateDump(pfs, ranks, w);
      const auto load = iosim::SimulateLoad(pfs, ranks, w);
      std::printf("%-8d %-10s %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n",
                  ranks, szx::bench::CodecName(codec), dump.compute_s,
                  dump.io_s, dump.total(), load.io_s, load.compute_s,
                  load.total());
    }
  }
}

void JitterSensitivity() {
  // Discrete-event extension: real jobs have compute jitter, which
  // staggers PFS arrivals.  The makespan barely moves (the paper's
  // synchronized-rank model is a good approximation) while peak
  // contention drops.
  const iosim::PfsSpec pfs;
  const CodecRates rates = MeasureNyx(szx::bench::Codec::kSzx, 1e-3);
  iosim::RankWorkload w;
  w.bytes_per_rank = 768ull << 20;
  w.compress_gbps = rates.compress_gbps;
  w.decompress_gbps = rates.decompress_gbps;
  w.compression_ratio = rates.ratio;
  std::printf("\nJitter sensitivity (SZx, 512 ranks, discrete-event "
              "fair-share PFS):\n");
  std::printf("%-10s %12s %14s %14s\n", "jitter", "makespan(s)",
              "mean finish(s)", "max IO wait(s)");
  for (const double jitter : {0.0, 0.1, 0.3, 0.5}) {
    const auto r = iosim::SimulateJitteredDump(pfs, 512, w, jitter);
    std::printf("%-10.1f %12.2f %14.2f %14.3f\n", jitter, r.makespan_s,
                r.mean_finish_s, r.max_io_wait_s);
  }
}

void FaultTolerance() {
  // Robustness extension (docs/resilience.md): transient per-rank write
  // failures with bounded exponential backoff + jitter retries.  At fault
  // rate 0 the result collapses bit-exactly to the fair-share makespan
  // (asserted here, not just eyeballed); rising fault rates stretch the
  // makespan sublinearly because retries overlap with still-running ranks.
  const iosim::PfsSpec pfs;
  const CodecRates rates = MeasureNyx(szx::bench::Codec::kSzx, 1e-3);
  iosim::RankWorkload w;
  w.bytes_per_rank = 768ull << 20;
  w.compress_gbps = rates.compress_gbps;
  w.decompress_gbps = rates.decompress_gbps;
  w.compression_ratio = rates.ratio;
  const int ranks = 512;
  const double jitter = 0.1;
  const iosim::RetryPolicy policy;
  const auto ref = iosim::SimulateJitteredDump(pfs, ranks, w, jitter);

  std::printf("\nFault-injected dump (SZx, %d ranks, transient write "
              "failures,\nretry: %d attempts, %.0f ms base backoff x%.1f "
              "capped at %.1f s):\n",
              ranks, policy.max_attempts, policy.base_backoff_s * 1e3,
              policy.multiplier, policy.max_backoff_s);
  std::printf("%-12s %12s %10s %10s %12s\n", "fault rate", "makespan(s)",
              "attempts", "retries", "slowdown");
  for (const double rate : {0.0, 0.01, 0.05, 0.1, 0.2, 0.4}) {
    iosim::WriteFaultModel faults;
    faults.transient_failure_prob = rate;
    const auto r =
        iosim::SimulateFaultyDump(pfs, ranks, w, jitter, faults, policy);
    if (rate == 0.0 && r.makespan_s != ref.makespan_s) {
      std::printf("ERROR: zero-fault makespan diverged from fair-share "
                  "(%.17g vs %.17g)\n",
                  r.makespan_s, ref.makespan_s);
      std::exit(1);
    }
    std::printf("%-12.2f %12.2f %10llu %10llu %11.2fx\n", rate,
                r.makespan_s,
                static_cast<unsigned long long>(r.attempts),
                static_cast<unsigned long long>(r.retries),
                r.makespan_s / ref.makespan_s);
  }
}

void PipelinedOverlap() {
  // Compute/I-O overlap extension (iosim::SimulatePipelinedDump): a rank
  // that chunks its buffer and overlaps chunk k's write with chunk k+1's
  // compression turns the Fig. 16 serial-sum makespan into a baseline it
  // must beat.
  // The model guarantees pipelined <= serial with equality only at one
  // chunk; that inequality is asserted here, not just printed.
  const iosim::PfsSpec pfs;
  const CodecRates rates = MeasureNyx(szx::bench::Codec::kSzx, 1e-3);
  iosim::RankWorkload w;
  w.bytes_per_rank = 768ull << 20;
  w.compress_gbps = rates.compress_gbps;
  w.decompress_gbps = rates.decompress_gbps;
  w.compression_ratio = rates.ratio;
  std::printf("\nPipelined dump, compute/write overlap (SZx, REL 1e-3; "
              "serial sum = Fig. 16 model):\n");
  std::printf("%-8s %-8s %12s %14s %10s\n", "ranks", "chunks", "serial(s)",
              "pipelined(s)", "speedup");
  for (const int ranks : {64, 256, 1024}) {
    for (const std::uint32_t chunks : {1U, 4U, 16U, 64U}) {
      const auto t = iosim::SimulatePipelinedDump(pfs, ranks, w, chunks);
      if (t.pipelined_s > t.serial_s * (1.0 + 1e-12)) {
        std::printf("ERROR: pipelined makespan exceeds the serial sum "
                    "(%.17g vs %.17g, ranks=%d chunks=%u)\n",
                    t.pipelined_s, t.serial_s, ranks, chunks);
        std::exit(1);
      }
      std::printf("%-8d %-8u %12.2f %14.2f %9.2fx\n", ranks, chunks,
                  t.serial_s, t.pipelined_s, t.speedup());
    }
  }
}

}  // namespace

int main() {
  szx::bench::PrintBanner(
      "Figure 16",
      "data dumping/loading on 64-1024 simulated ranks (Nyx dataset)");
  for (const double eb : {1e-2, 1e-3, 1e-4}) {
    OneBound(eb);
  }
  JitterSensitivity();
  FaultTolerance();
  PipelinedOverlap();
  std::printf(
      "\nPaper shape: the SZx solution dumps/loads in ~1/3-1/2 the time of\n"
      "SZ and ZFP at most scales because compression time dominates while\n"
      "the PFS share per rank is still generous; at very large rank counts\n"
      "the I/O term grows and the gap narrows (SZ's higher ratio pays).\n");
  return 0;
}
