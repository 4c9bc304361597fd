// google-benchmark micro-benchmarks of the hot loops in every codec:
// block statistics, SZx block encode/decode, full-stream (de)compression,
// the SZ baseline's Huffman stages, the ZFP baseline's transform, and the
// LZ matcher.  Complements the table benches with per-kernel numbers.
//
// Two entry modes (scripts/bench.sh, docs/performance.md):
//   micro_codec [gbench flags]            google-benchmark suite (default)
//   micro_codec --bench_json=PATH [--smoke] [--force]
//       machine-readable perf-regression grid: GB/s for each kernel
//       implementation x dtype x error bound on a CESM-like field, plus a
//       re-implementation of the pre-vectorization byte-wise encode loop as
//       the fixed reference the speedup figures are measured against.
//       Since schema v2 the grid also carries the baseline-codec axis:
//       szref/sz2/zfpref compress+decompress per kernel tier with the
//       parallel chunked-Huffman decode at 1/2/4/8 threads, and the fused
//       Lorenzo predict+quantize kernel row whose speedup-vs-scalar series
//       records the vectorization acceptance bar.  Like the omp grid, it
//       refuses to overwrite a grid recorded on a machine with more
//       hardware threads unless --force is given (stale-bench trap).
//       --smoke shrinks the field and rep count so CI can assert the JSON
//       contract in milliseconds (no timing thresholds).
//   micro_codec --bench_omp_json=PATH [--smoke] [--force]
//       thread-scaling grid (the paper's Fig. 13 axes): parallel compress
//       and decompress on the work-stealing pool at 1/2/4/8 threads x
//       kernel x dtype, plus the serial decoder as reference, with
//       speedup-vs-1-thread series and the detected hardware thread count
//       recorded alongside the numbers.
//       Refuses to overwrite a grid recorded on a machine with more
//       hardware threads unless --force is given (stale-bench trap).
//   micro_codec --bench_container_json=PATH [--smoke] [--force]
//       format-v3 container grid: full-timestep decode vs centered ROI
//       decodes at 1/5/10/25% of the field x 1/2/4/8 threads, cold
//       (uncached) and warm (decoded-chunk LRU cache hit path), with
//       derived roi_cost_vs_full and warm_speedup_vs_cold series -- the
//       seekability and cache acceptance bars read by docs/performance.md.
//       Shares the stale-bench overwrite trap with the other grids.
//   micro_codec --bench_serve_json=PATH [--smoke] [--force]
//       szx-serve service grid: an in-process Server over MemoryTransport
//       pairs (the real frame codec and admission path, no kernel sockets)
//       driven by 1/2/4 concurrent client connections x compress and
//       decompress jobs x 1/2/4 workers, reporting requests/s and payload
//       GB/s per cell.  Same stale-bench overwrite trap.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "core/arena.hpp"
#include "core/block_plan.hpp"
#include "core/block_stats.hpp"
#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/kernels/kernels.hpp"
#include "core/random_access.hpp"
#include "hybrid/hybrid.hpp"
#include "core/encode.hpp"
#include "cusim/cusim_codec.hpp"
#include "data/datasets.hpp"
#include "lzref/lzref.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "szref/huffman.hpp"
#include "szref/sz2.hpp"
#include "szref/szref.hpp"
#include "zfpref/zfp_block.hpp"
#include "zfpref/zfpref.hpp"

namespace {

using namespace szx;

const data::Field& MirandaDensity() {
  static const data::Field f =
      data::GenerateField(data::App::kMiranda, "density", 0.25);
  return f;
}

void BM_BlockStatsScalar(benchmark::State& state) {
  const auto& f = MirandaDensity();
  const std::size_t bs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < f.size(); i += bs) {
      acc += ComputeBlockStatsScalar<float>(
                 std::span<const float>(f.values).subspan(
                     i, std::min(bs, f.size() - i)))
                 .radius;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_BlockStatsScalar)->Arg(128);

void BM_BlockStatsSimd(benchmark::State& state) {
  const auto& f = MirandaDensity();
  const std::size_t bs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < f.size(); i += bs) {
      acc += ComputeBlockStatsSimd<float>(
                 std::span<const float>(f.values).subspan(
                     i, std::min(bs, f.size() - i)))
                 .radius;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_BlockStatsSimd)->Arg(128);

void BM_SzxCompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  for (auto _ : state) {
    auto stream = Compress<float>(f.values, p);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_SzxCompress);

void BM_SzxDecompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  const auto stream = Compress<float>(f.values, p);
  for (auto _ : state) {
    auto recon = Decompress<float>(stream);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_SzxDecompress);

void BM_SzCompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  szref::SzParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  for (auto _ : state) {
    auto stream = szref::SzCompress(f.values, f.dims, p);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_SzCompress);

void BM_ZfpCompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  zfpref::ZfpParams p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  for (auto _ : state) {
    auto stream = zfpref::ZfpCompress(f.values, f.dims, p);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_ZfpCompress);

void BM_LzCompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  for (auto _ : state) {
    auto stream = lzref::LzCompressFloats(f.values);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_LzCompress);

void BM_HuffmanEncode(benchmark::State& state) {
  std::vector<std::uint16_t> codes(1 << 20);
  std::uint64_t s = 1;
  for (auto& c : codes) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<std::uint16_t>(32768 + static_cast<int>(s % 17) - 8);
  }
  szref::HuffmanCodec codec;
  codec.BuildFromSymbols(codes);
  for (auto _ : state) {
    ByteBuffer bits;
    BitWriter bw(bits);
    codec.Encode(codes, bw);
    bw.Flush();
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_HuffmanEncode);

void BM_ZfpXform3D(benchmark::State& state) {
  std::array<zfpref::Int, 64> block;
  std::uint64_t s = 7;
  for (auto& x : block) {
    s = s * 6364136223846793005ull + 1;
    x = static_cast<zfpref::Int>(s % (1u << 28));
  }
  for (auto _ : state) {
    auto copy = block;
    zfpref::FwdXform(copy.data(), 3);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ZfpXform3D);

void BM_CusimDecompressSchedule(benchmark::State& state) {
  const auto& f = MirandaDensity();
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  const auto stream = Compress<float>(f.values, p);
  for (auto _ : state) {
    auto recon = cusim::DecompressCuda<float>(stream);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_CusimDecompressSchedule);

void BM_SzxPointwiseRelCompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  Params p;
  p.mode = ErrorBoundMode::kPointwiseRelative;
  p.error_bound = 1e-3;
  for (auto _ : state) {
    auto stream = Compress<float>(f.values, p);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_SzxPointwiseRelCompress);

void BM_HybridCompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  for (auto _ : state) {
    auto stream = hybrid::Compress<float>(f.values, p);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_HybridCompress);

void BM_RandomAccessSlab(benchmark::State& state) {
  const auto& f = MirandaDensity();
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = 1e-3;
  const auto stream = Compress<float>(f.values, p);
  const std::size_t count = 1 << 14;
  std::size_t offset = 0;
  for (auto _ : state) {
    auto slab = DecompressRange<float>(stream, offset, count);
    benchmark::DoNotOptimize(slab.data());
    offset = (offset + count) % (f.size() - count);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * sizeof(float)));
}
BENCHMARK(BM_RandomAccessSlab);

void BM_ZfpFixedRateCompress(benchmark::State& state) {
  const auto& f = MirandaDensity();
  for (auto _ : state) {
    auto stream = zfpref::ZfpCompressFixedRate(f.values, f.dims, 8.0);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.size_bytes()));
}
BENCHMARK(BM_ZfpFixedRateCompress);

// ---------------------------------------------------------------------------
// --bench_json mode: the perf-regression grid.
// ---------------------------------------------------------------------------

// Re-implementation of the pre-vectorization Solution-C encode loop (byte-at-
// a-time commits through an incrementing pointer).  This is the fixed
// reference the regression JSON reports speedups against; it must NOT be
// "improved", only kept faithful to the old EncodeBlockC inner loop.
template <typename T>
std::size_t BytewiseEncodeReference(std::span<const T> block, T mu,
                                    const ReqPlan& plan, std::byte* dst) {
  using Bits = typename FloatTraits<T>::Bits;
  const std::size_t n = block.size();
  const int nb = plan.num_bytes;
  const int s = plan.shift;
  const Bits keep = KeepMask<T>(nb);
  const std::size_t lead_bytes = LeadArrayBytes(n);
  std::fill_n(dst, lead_bytes, std::byte{0});
  std::byte* mid = dst + lead_bytes;
  Bits prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const T delta = mu == T(0) ? block[i] : static_cast<T>(block[i] - mu);
    const Bits t = static_cast<Bits>((std::bit_cast<Bits>(delta) >> s) & keep);
    const Bits x = t ^ prev;
    int lead;
    if (x == 0) {
      lead = 3;
    } else {
      lead = std::countl_zero(x) >> 3;
      if (lead > 3) lead = 3;
    }
    const int copy = lead < nb ? lead : nb;
    const int shift2 = 6 - 2 * static_cast<int>(i & 3);
    dst[i >> 2] |= std::byte{static_cast<std::uint8_t>(lead << shift2)};
    for (int j = copy; j < nb; ++j) {
      *mid++ = std::byte{TopByte<T>(t, j)};
    }
    prev = t;
  }
  return static_cast<std::size_t>(mid - dst);
}

// One non-constant block's precomputed inputs (stats/planning happen outside
// the timed region so the grid isolates kernel throughput).
template <typename T>
struct BlockWork {
  std::span<const T> values;
  T mu;
  ReqPlan plan;
  std::size_t payload_offset = 0;  // into the shared encoded buffer
  std::size_t payload_size = 0;
};

template <typename T>
std::vector<BlockWork<T>> PlanBlocks(const std::vector<T>& v, double rel_eb,
                                     std::uint32_t bs) {
  const auto range = ComputeGlobalRange<T>(v);
  const double bound =
      range.any_finite
          ? rel_eb * (static_cast<double>(range.max) -
                      static_cast<double>(range.min))
          : 0.0;
  const int eb_expo = BoundExponent(bound);
  std::vector<BlockWork<T>> work;
  for (std::size_t i = 0; i < v.size(); i += bs) {
    const auto block =
        std::span<const T>(v).subspan(i, std::min<std::size_t>(bs, v.size() - i));
    const auto st = ComputeBlockStatsSimd<T>(block);
    const auto d = DecideBlock<T>(block, st, ErrorBoundMode::kValueRangeRelative,
                                  rel_eb, bound, eb_expo);
    if (d.is_constant) continue;
    work.push_back({block, d.mu, d.plan, 0, 0});
  }
  return work;
}

struct GridRow {
  std::string bench;
  std::string kernel;
  std::string dtype;
  double rel_eb;
  std::size_t bytes;
  szx::bench::TrimmedTiming timing;

  double Gbps() const {
    return static_cast<double>(bytes) / 1e9 / timing.mean_s;
  }
};

template <typename T>
const char* DtypeName() {
  return sizeof(T) == 4 ? "float32" : "float64";
}

// Measures block-level encode throughput of one kernel table over the
// precomputed work list.  Returns input bytes processed per run.
template <typename T>
GridRow MeasureBlockEncode(const char* kernel_name,
                           const kernels::BlockOps<T>& ops,
                           const std::vector<BlockWork<T>>& work,
                           std::uint32_t bs, int reps, double rel_eb) {
  std::vector<std::byte> dst(kernels::EncodeCapacity<T>(bs));
  std::size_t bytes = 0;
  for (const auto& w : work) bytes += w.values.size() * sizeof(T);
  const auto timing = szx::bench::TimeTrimmed(reps, [&] {
    std::size_t acc = 0;
    for (const auto& w : work) {
      acc += ops.encode_c(w.values.data(), w.values.size(), w.mu, w.plan,
                          dst.data());
    }
    benchmark::DoNotOptimize(acc);
  });
  return {"block_encode", kernel_name, DtypeName<T>(), rel_eb, bytes, timing};
}

template <typename T>
GridRow MeasureBlockDecode(const char* kernel_name,
                           const kernels::BlockOps<T>& ops,
                           std::vector<BlockWork<T>>& work,
                           const std::vector<std::byte>& payloads,
                           std::uint32_t bs, int reps, double rel_eb) {
  std::vector<T> out(bs);
  std::size_t bytes = 0;
  for (const auto& w : work) bytes += w.values.size() * sizeof(T);
  const auto timing = szx::bench::TimeTrimmed(reps, [&] {
    for (const auto& w : work) {
      // szx-lint: allow(ptr-arith) -- payload_offset/payload_size were recorded while filling `payloads` above; decode_c bounds-checks against payload_size
      ops.decode_c(payloads.data() + w.payload_offset, w.payload_size, w.mu,
                   w.plan, out.data(), w.values.size());
    }
    benchmark::DoNotOptimize(out.data());
  });
  return {"block_decode", kernel_name, DtypeName<T>(), rel_eb, bytes, timing};
}

template <typename T>
GridRow MeasureBaseline(const std::vector<BlockWork<T>>& work,
                        std::uint32_t bs, int reps, double rel_eb) {
  std::vector<std::byte> dst(kernels::EncodeCapacity<T>(bs));
  std::size_t bytes = 0;
  for (const auto& w : work) bytes += w.values.size() * sizeof(T);
  const auto timing = szx::bench::TimeTrimmed(reps, [&] {
    std::size_t acc = 0;
    for (const auto& w : work) {
      acc += BytewiseEncodeReference<T>(w.values, w.mu, w.plan, dst.data());
    }
    benchmark::DoNotOptimize(acc);
  });
  return {"baseline_bytewise_encode", "pre-vectorization", DtypeName<T>(),
          rel_eb, bytes, timing};
}

template <typename T>
void MeasureFullPath(std::vector<GridRow>& rows, const std::vector<T>& v,
                     double rel_eb, int reps) {
  const char* active = kernels::KindName(kernels::ActiveKind());
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = rel_eb;
  ScratchArena arena;
  const std::size_t bytes = v.size() * sizeof(T);
  ByteSpan frame;
  const auto ct = szx::bench::TimeTrimmed(reps, [&] {
    frame = CompressInto<T>(v, p, arena);
    benchmark::DoNotOptimize(frame.data());
  });
  rows.push_back({"full_compress", active, DtypeName<T>(), rel_eb, bytes, ct});
  const ByteBuffer stream(frame.begin(), frame.end());
  const auto dt = szx::bench::TimeTrimmed(reps, [&] {
    auto recon = Decompress<T>(stream);
    benchmark::DoNotOptimize(recon.data());
  });
  rows.push_back({"full_decompress", active, DtypeName<T>(), rel_eb, bytes, dt});
}

template <typename T>
void RunGridForType(std::vector<GridRow>& rows, const std::vector<T>& v,
                    int reps) {
  constexpr std::uint32_t kBs = 128;
  for (const double rel_eb : {1e-2, 1e-3, 1e-4}) {
    auto work = PlanBlocks<T>(v, rel_eb, kBs);
    if (work.empty()) continue;
    rows.push_back(MeasureBlockEncode<T>("scalar", kernels::ScalarOps<T>(),
                                         work, kBs, reps, rel_eb));
    if (kernels::Avx2Supported()) {
      rows.push_back(MeasureBlockEncode<T>("avx2", kernels::Avx2Ops<T>(), work,
                                           kBs, reps, rel_eb));
    }
    rows.push_back(MeasureBaseline<T>(work, kBs, reps, rel_eb));

    // Encode once (scalar; both kernels are byte-identical) to set up the
    // decode measurements.
    std::vector<std::byte> payloads;
    std::vector<std::byte> dst(kernels::EncodeCapacity<T>(kBs));
    for (auto& w : work) {
      const std::size_t sz = kernels::ScalarOps<T>().encode_c(
          w.values.data(), w.values.size(), w.mu, w.plan, dst.data());
      w.payload_offset = payloads.size();
      w.payload_size = sz;
      payloads.insert(payloads.end(), dst.begin(),
                      dst.begin() + static_cast<std::ptrdiff_t>(sz));
    }
    rows.push_back(MeasureBlockDecode<T>("scalar", kernels::ScalarOps<T>(),
                                         work, payloads, kBs, reps, rel_eb));
    if (kernels::Avx2Supported()) {
      rows.push_back(MeasureBlockDecode<T>("avx2", kernels::Avx2Ops<T>(), work,
                                           payloads, kBs, reps, rel_eb));
    }
    MeasureFullPath<T>(rows, v, rel_eb, reps);
  }
}

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc != 0 ? static_cast<int>(hc) : 1;
}

// Stale-grid trap shared by both JSON modes: a grid regenerated on a laptop
// must not silently replace one measured on a bigger machine.  Reads the
// hardware_threads field of an existing grid; returns 0 when absent.
int RecordedHardwareThreads(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return 0;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"hardware_threads\":";
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::atoi(text.c_str() + pos + key.size());
}

bool RefuseStaleOverwrite(const std::string& path, bool force) {
  const int recorded = RecordedHardwareThreads(path);
  if (!force && recorded > HardwareThreads()) {
    std::fprintf(stderr,
                 "micro_codec: %s was measured on a machine with %d hardware "
                 "threads but this one has %d -- overwriting would make the "
                 "grid look like a regression.  Pass --force to overwrite "
                 "anyway.\n",
                 path.c_str(), recorded, HardwareThreads());
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Baseline-codec rows (szref / sz2 / zfpref) for the --bench_json grid.
// ---------------------------------------------------------------------------

// One end-to-end baseline-codec measurement: codec x kernel tier x thread
// count (threads matter only for the parallel chunked-Huffman decode; the
// compress rows and the serial zfp decoder carry threads=1).
struct BaselineCodecRow {
  std::string bench;
  std::string kernel;
  int threads;
  double rel_eb;
  std::size_t bytes;
  szx::bench::TrimmedTiming timing;

  double Gbps() const {
    return static_cast<double>(bytes) / 1e9 / timing.mean_s;
  }
};

// The kernel tiers worth measuring on this machine: scalar plus every
// vectorized tier the CPU actually runs (forced fallbacks would just
// re-measure scalar under another name).
std::vector<kernels::Kind> MeasurableKinds() {
  std::vector<kernels::Kind> kinds;
  for (const kernels::TierInfo& t : kernels::KernelTiers()) {
    if (!t.supported) continue;
    if (t.kind != kernels::Kind::kScalar &&
        &kernels::BaselineOpsFor(t.kind) ==
            &kernels::ScalarBaselineOps()) {
      continue;  // alias tier (e.g. neon on x86): nothing new to measure
    }
    kinds.push_back(t.kind);
  }
  return kinds;
}

// Measures one codec under the *currently installed* kernel tier.  The
// decode closure receives the thread count for the parallel Huffman stage.
template <typename CompressFn, typename DecompressFn>
void MeasureBaselineCodec(std::vector<BaselineCodecRow>& rows,
                          const char* codec_name, const char* kernel_name,
                          std::size_t bytes, double rel_eb, int reps,
                          bool threaded_decode, CompressFn&& compress,
                          DecompressFn&& decompress) {
  const auto ct = szx::bench::TimeTrimmed(reps, [&] {
    auto stream = compress();
    benchmark::DoNotOptimize(stream.data());
  });
  rows.push_back({std::string(codec_name) + "_compress", kernel_name, 1,
                  rel_eb, bytes, ct});
  const ByteBuffer stream = compress();
  for (const int threads : {1, 2, 4, 8}) {
    const auto dt = szx::bench::TimeTrimmed(reps, [&] {
      auto recon = decompress(stream, threads);
      benchmark::DoNotOptimize(recon.data());
    });
    rows.push_back({std::string(codec_name) + "_decompress", kernel_name,
                    threads, rel_eb, bytes, dt});
    if (!threaded_decode) break;  // serial decoder: one row is the truth
  }
}

// Fused Lorenzo predict+quantize (prequant then row-wise integer delta over
// the full 2-D grid) -- the kernel-level row behind the vectorization
// acceptance bar: each vector tier's speedup over scalar is recorded in
// predict_quantize_speedup_vs_scalar.
void MeasurePredictQuantize(std::vector<BaselineCodecRow>& rows,
                            const std::vector<float>& v, std::size_t ny,
                            std::size_t nx, double rel_eb, int reps) {
  const double eb = rel_eb;  // the row is a kernel microbench; scale is moot
  const double half_inv = 1.0 / (2.0 * eb);
  std::vector<std::int32_t> q(v.size());
  std::vector<std::int32_t> delta(v.size());
  for (const kernels::Kind kind : MeasurableKinds()) {
    const kernels::BaselineOps& ops = kernels::BaselineOpsFor(kind);
    const auto t = szx::bench::TimeTrimmed(reps, [&] {
      ops.prequant_f32(v.data(), v.size(), half_inv, q.data());
      for (std::size_t y = 0; y < ny; ++y) {
        const std::size_t row = y * nx;
        // szx-lint: allow(ptr-arith) -- row < ny*nx == v.size() by loop bounds; the kernel ABI takes raw row pointers
        const std::int32_t* qrow = q.data() + row;
        const std::int32_t* qy = y > 0 ? qrow - nx : nullptr;
        // szx-lint: allow(ptr-arith) -- same row offset into the delta grid of identical size
        std::int32_t* drow = delta.data() + row;
        ops.lorenzo_delta_i32(qrow, qy, nullptr, nullptr,
                              /*has_left=*/false, nx, drow);
      }
      benchmark::DoNotOptimize(delta.data());
    });
    rows.push_back({"predict_quantize", kernels::KindName(kind), 1, rel_eb,
                    v.size() * sizeof(float), t});
  }
}

void RunBaselineGrid(std::vector<BaselineCodecRow>& rows,
                     const data::Field& field, int reps) {
  constexpr double kRelEb = 1e-3;
  const std::vector<float>& v = field.values;
  const std::size_t bytes = v.size() * sizeof(float);
  const std::vector<std::size_t> dims = field.dims;

  szref::SzParams szp;
  szp.mode = ErrorBoundMode::kValueRangeRelative;
  szp.error_bound = kRelEb;
  szref::Sz2Params sz2p;
  sz2p.mode = ErrorBoundMode::kValueRangeRelative;
  sz2p.error_bound = kRelEb;
  zfpref::ZfpParams zp;
  zp.mode = ErrorBoundMode::kValueRangeRelative;
  zp.error_bound = kRelEb;

  const kernels::Kind prior = kernels::ActiveKind();
  for (const kernels::Kind kind : MeasurableKinds()) {
    kernels::SetActiveKind(kind);
    const char* kname = kernels::KindName(kind);
    MeasureBaselineCodec(
        rows, "szref", kname, bytes, kRelEb, reps, /*threaded_decode=*/true,
        [&] { return szref::SzCompress(v, dims, szp); },
        [&](ByteSpan s, int threads) {
          return szref::SzDecompress(s, threads);
        });
    MeasureBaselineCodec(
        rows, "sz2", kname, bytes, kRelEb, reps, /*threaded_decode=*/true,
        [&] { return szref::Sz2Compress(v, dims, sz2p); },
        [&](ByteSpan s, int threads) {
          return szref::Sz2Decompress(s, threads);
        });
    MeasureBaselineCodec(
        rows, "zfpref", kname, bytes, kRelEb, reps,
        /*threaded_decode=*/false,
        [&] { return zfpref::ZfpCompress(v, dims, zp); },
        [&](ByteSpan s, int) { return zfpref::ZfpDecompress(s); });
  }
  kernels::SetActiveKind(prior);

  // The field is 2-D (CESM slice): ny x nx for the kernel-level row.
  const std::size_t nx = dims.back();
  MeasurePredictQuantize(rows, v, v.size() / nx, nx, kRelEb, reps);
}

int RunBenchJson(const std::string& path, bool smoke, bool force) {
  if (RefuseStaleOverwrite(path, force)) {
    return 1;
  }
  using szx::bench::JsonWriter;
  const double scale = smoke ? 0.02 : szx::bench::BenchScale();
  const int reps = smoke ? 2 : std::max(szx::bench::BenchReps(), 7);
  const data::Field field = data::GenerateField(data::App::kCesm, "CLDHGH",
                                                scale);
  const std::vector<float>& vf = field.values;
  std::vector<double> vd(vf.begin(), vf.end());

  std::vector<GridRow> rows;
  RunGridForType<float>(rows, vf, reps);
  RunGridForType<double>(rows, vd, reps);
  std::vector<BaselineCodecRow> baseline_rows;
  RunBaselineGrid(baseline_rows, field, reps);

  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "szx-bench-codec-v2");
  w.Field("smoke", smoke);
  w.Field("active_kernel", kernels::KindName(kernels::ActiveKind()));
  w.Field("avx2_supported", kernels::Avx2Supported());
  w.Field("avx512_supported", kernels::Avx512Supported());
  w.Field("neon_supported", kernels::NeonSupported());
  w.Field("hardware_threads", HardwareThreads());
  w.Field("reps", reps);
  w.BeginObject("field");
  w.Field("app", "CESM-ATM");
  w.Field("name", field.name);
  w.Field("elements", vf.size());
  w.Field("scale", scale);
  w.EndObject();
  w.BeginArray("results");
  for (const auto& r : rows) {
    w.BeginObject();
    w.Field("bench", r.bench);
    w.Field("kernel", r.kernel);
    w.Field("dtype", r.dtype);
    w.Field("rel_eb", r.rel_eb);
    w.Field("bytes", r.bytes);
    w.Field("mean_s", r.timing.mean_s);
    w.Field("min_s", r.timing.min_s);
    w.Field("max_s", r.timing.max_s);
    w.Field("gbps", r.Gbps());
    w.EndObject();
  }
  w.EndArray();
  // Speedup of each vectorized block encode over the byte-wise reference at
  // the same dtype/bound -- the number the 1.5x acceptance bar reads.
  w.BeginArray("encode_speedup_vs_bytewise");
  for (const auto& r : rows) {
    if (r.bench != "block_encode") continue;
    for (const auto& b : rows) {
      if (b.bench == "baseline_bytewise_encode" && b.dtype == r.dtype &&
          b.rel_eb == r.rel_eb) {
        w.BeginObject();
        w.Field("kernel", r.kernel);
        w.Field("dtype", r.dtype);
        w.Field("rel_eb", r.rel_eb);
        w.Field("speedup", r.Gbps() / b.Gbps());
        w.EndObject();
      }
    }
  }
  w.EndArray();
  // Baseline-codec axis: end-to-end szref/sz2/zfpref throughput per kernel
  // tier, with the parallel chunked-Huffman decode swept over 1/2/4/8
  // threads, plus the fused predict+quantize kernel row.
  w.BeginArray("baseline_results");
  for (const auto& r : baseline_rows) {
    w.BeginObject();
    w.Field("bench", r.bench);
    w.Field("kernel", r.kernel);
    w.Field("threads", r.threads);
    w.Field("rel_eb", r.rel_eb);
    w.Field("bytes", r.bytes);
    w.Field("mean_s", r.timing.mean_s);
    w.Field("min_s", r.timing.min_s);
    w.Field("max_s", r.timing.max_s);
    w.Field("gbps", r.Gbps());
    w.EndObject();
  }
  w.EndArray();
  // Vectorized Lorenzo predict+quantize over the scalar kernel at one
  // thread -- the number the >= 1.5x vectorization acceptance bar reads.
  w.BeginArray("predict_quantize_speedup_vs_scalar");
  for (const auto& r : baseline_rows) {
    if (r.bench != "predict_quantize" || r.kernel == "scalar") continue;
    for (const auto& base : baseline_rows) {
      if (base.bench == "predict_quantize" && base.kernel == "scalar") {
        w.BeginObject();
        w.Field("kernel", r.kernel);
        w.Field("speedup", r.Gbps() / base.Gbps());
        w.EndObject();
      }
    }
  }
  w.EndArray();
  w.EndObject();

  if (!szx::bench::ValidateJson(w.Str())) {
    std::fprintf(stderr, "micro_codec: generated JSON failed validation\n");
    return 1;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "micro_codec: cannot open %s\n", path.c_str());
    return 1;
  }
  out << w.Str() << '\n';
  out.close();
  std::printf("wrote %s (%zu results, reps=%d, %zu elements)\n", path.c_str(),
              rows.size() + baseline_rows.size(), reps, vf.size());
  return out.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --bench_omp_json mode: the thread-scaling grid (paper Fig. 13 axes).
// ---------------------------------------------------------------------------

struct OmpRow {
  std::string bench;
  std::string kernel;
  std::string dtype;
  int threads;
  double rel_eb;
  std::size_t bytes;
  szx::bench::TrimmedTiming timing;

  double Gbps() const {
    return static_cast<double>(bytes) / 1e9 / timing.mean_s;
  }
};

// Thread-scaling measurements for one dtype under one kernel implementation
// (the caller installs it via SetActiveKind so the whole process runs the
// kernel named in the rows), plus the serial decoder as reference.
template <typename T>
void RunOmpGridForType(std::vector<OmpRow>& rows, const char* kernel_name,
                       const std::vector<T>& v, int reps, double rel_eb) {
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = rel_eb;
  const std::size_t bytes = v.size() * sizeof(T);
  const ByteBuffer stream = Compress<T>(v, p);

  // Serial decoder reference for the parallel-decode speedup figures.
  std::vector<T> out(v.size());
  const auto st = szx::bench::TimeTrimmed(reps, [&] {
    DecompressInto<T>(stream, std::span<T>(out));
    benchmark::DoNotOptimize(out.data());
  });
  rows.push_back(
      {"serial_decompress", kernel_name, DtypeName<T>(), 1, rel_eb, bytes, st});

  for (const int threads : {1, 2, 4, 8}) {
    const auto ct = szx::bench::TimeTrimmed(reps, [&] {
      auto s = CompressOmp<T>(v, p, nullptr, threads);
      benchmark::DoNotOptimize(s.data());
    });
    rows.push_back({"omp_compress", kernel_name, DtypeName<T>(), threads,
                    rel_eb, bytes, ct});
    const auto dt = szx::bench::TimeTrimmed(reps, [&] {
      DecompressOmpInto<T>(stream, std::span<T>(out), threads);
      benchmark::DoNotOptimize(out.data());
    });
    rows.push_back({"omp_decompress", kernel_name, DtypeName<T>(), threads,
                    rel_eb, bytes, dt});
  }
}

int RunBenchOmpJson(const std::string& path, bool smoke, bool force) {
  using szx::bench::JsonWriter;
  if (RefuseStaleOverwrite(path, force)) {
    return 1;
  }
  const double scale = smoke ? 0.02 : szx::bench::BenchScale();
  const int reps = smoke ? 2 : std::max(szx::bench::BenchReps(), 5);
  constexpr double kRelEb = 1e-2;
  const data::Field field = data::GenerateField(data::App::kCesm, "CLDHGH",
                                                scale);
  const std::vector<float>& vf = field.values;
  std::vector<double> vd(vf.begin(), vf.end());

  const kernels::Kind prior_kind = kernels::ActiveKind();
  std::vector<kernels::Kind> kinds = {kernels::Kind::kScalar};
  if (kernels::Avx2Supported()) kinds.push_back(kernels::Kind::kAvx2);
  std::vector<OmpRow> rows;
  for (const kernels::Kind kind : kinds) {
    kernels::SetActiveKind(kind);
    const char* kname = kernels::KindName(kind);
    RunOmpGridForType<float>(rows, kname, vf, reps, kRelEb);
    RunOmpGridForType<double>(rows, kname, vd, reps, kRelEb);
  }
  kernels::SetActiveKind(prior_kind);

  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "szx-bench-omp-v3");
  w.Field("smoke", smoke);
  w.Field("avx2_supported", kernels::Avx2Supported());
  // Scaling beyond this count measures oversubscription, not parallelism;
  // readers of the grid must interpret the thread axis against it, and the
  // overwrite trap above compares it before replacing an existing grid.
  w.Field("hardware_threads", HardwareThreads());
  w.Field("reps", reps);
  w.Field("rel_eb", kRelEb);
  w.BeginObject("field");
  w.Field("app", "CESM-ATM");
  w.Field("name", field.name);
  w.Field("elements", vf.size());
  w.Field("scale", scale);
  w.EndObject();
  w.BeginArray("results");
  for (const auto& r : rows) {
    w.BeginObject();
    w.Field("bench", r.bench);
    w.Field("kernel", r.kernel);
    w.Field("dtype", r.dtype);
    w.Field("threads", r.threads);
    w.Field("rel_eb", r.rel_eb);
    w.Field("bytes", r.bytes);
    w.Field("mean_s", r.timing.mean_s);
    w.Field("min_s", r.timing.min_s);
    w.Field("max_s", r.timing.max_s);
    w.Field("gbps", r.Gbps());
    w.EndObject();
  }
  w.EndArray();
  // Thread-scaling series (the paper's Fig. 13 y-axis): each parallel row
  // over the same bench/kernel/dtype at 1 thread.
  w.BeginArray("speedup_vs_1thread");
  for (const auto& r : rows) {
    if (r.threads == 1 || r.bench == "serial_decompress") continue;
    for (const auto& base : rows) {
      if (base.bench == r.bench && base.kernel == r.kernel &&
          base.dtype == r.dtype && base.threads == 1) {
        w.BeginObject();
        w.Field("bench", r.bench);
        w.Field("kernel", r.kernel);
        w.Field("dtype", r.dtype);
        w.Field("threads", r.threads);
        w.Field("speedup", r.Gbps() / base.Gbps());
        w.EndObject();
      }
    }
  }
  w.EndArray();
  // Parallel decode at each thread count over the serial decoder -- the
  // end-to-end figure the DecompressOmp acceptance bar reads.
  w.BeginArray("decode_speedup_vs_serial");
  for (const auto& r : rows) {
    if (r.bench != "omp_decompress") continue;
    for (const auto& base : rows) {
      if (base.bench == "serial_decompress" && base.kernel == r.kernel &&
          base.dtype == r.dtype) {
        w.BeginObject();
        w.Field("kernel", r.kernel);
        w.Field("dtype", r.dtype);
        w.Field("threads", r.threads);
        w.Field("speedup", r.Gbps() / base.Gbps());
        w.EndObject();
      }
    }
  }
  w.EndArray();
  w.EndObject();

  if (!szx::bench::ValidateJson(w.Str())) {
    std::fprintf(stderr, "micro_codec: generated JSON failed validation\n");
    return 1;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "micro_codec: cannot open %s\n", path.c_str());
    return 1;
  }
  out << w.Str() << '\n';
  out.close();
  std::printf("wrote %s (%zu results, reps=%d, %zu elements, %d hw threads)\n",
              path.c_str(), rows.size(), reps, vf.size(), HardwareThreads());
  return out.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --bench_container_json mode: ROI seek + decoded-chunk cache grid.
// ---------------------------------------------------------------------------

struct ContainerRow {
  std::string bench;    // full_decode | roi_cold | roi_warm
  double roi_fraction;  // 1.0 for full_decode
  int threads;
  std::uint64_t elements;  // elements the query decodes
  std::size_t bytes;       // decoded output bytes of the query
  szx::bench::TrimmedTiming timing;

  double Gbps() const {
    return static_cast<double>(bytes) / 1e9 / timing.mean_s;
  }
};

int RunBenchContainerJson(const std::string& path, bool smoke, bool force) {
  using szx::bench::JsonWriter;
  if (RefuseStaleOverwrite(path, force)) {
    return 1;
  }
  const double scale = smoke ? 0.02 : szx::bench::BenchScale();
  const int reps = smoke ? 2 : std::max(szx::bench::BenchReps(), 5);
  constexpr double kRelEb = 1e-2;
  constexpr std::uint64_t kTimesteps = 2;
  const data::Field field = data::GenerateField(data::App::kCesm, "CLDHGH",
                                                scale);
  const std::vector<float>& vf = field.values;
  const std::uint64_t ept = vf.size();
  // ~64 chunks per timestep regardless of --smoke scaling, so the smallest
  // ROI fraction below still covers at least one whole chunk and the cost
  // ratios stay comparable across scales.
  const std::uint64_t chunk_elements =
      std::max<std::uint64_t>(256, (ept + 63) / 64);

  ContainerWriter cw;
  ContainerWriter::FieldSpec spec;
  spec.name = field.name;
  spec.params.mode = ErrorBoundMode::kValueRangeRelative;
  spec.params.error_bound = kRelEb;
  spec.elements_per_timestep = ept;
  spec.chunk_elements = chunk_elements;
  const std::uint32_t fid = cw.AddField(spec, DataType::kFloat32);
  for (std::uint64_t ts = 0; ts < kTimesteps; ++ts) {
    cw.AppendTimestep<float>(fid, std::span<const float>(vf));
  }
  const ByteBuffer container = cw.Finish();

  const ContainerReader cold_reader(container);
  // Sized for every decoded chunk of the queried timestep, single shard so
  // the capacity bound is exact (with N shards each gets capacity/N, which
  // could evict a hot chunk): the warm rows then measure pure cache hits.
  ChunkCache cache(static_cast<std::size_t>(ept) * sizeof(float) * 2, 1);
  const ContainerReader warm_reader(container, &cache);

  constexpr double kRoiFractions[] = {0.01, 0.05, 0.10, 0.25};
  std::vector<float> out(vf.size());
  std::vector<ContainerRow> rows;
  for (const int threads : {1, 2, 4, 8}) {
    const auto ft = szx::bench::TimeTrimmed(reps, [&] {
      cold_reader.DecompressRange<float>(fid, 0, 0, std::span<float>(out),
                                         threads);
      benchmark::DoNotOptimize(out.data());
    });
    rows.push_back(
        {"full_decode", 1.0, threads, ept, ept * sizeof(float), ft});
    for (const double frac : kRoiFractions) {
      const std::uint64_t count = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(ept) * frac));
      const std::uint64_t first = (ept - count) / 2;  // center the ROI
      const std::span<float> roi(out.data(), count);
      const auto ct = szx::bench::TimeTrimmed(reps, [&] {
        cold_reader.DecompressRange<float>(fid, 0, first, roi, threads);
        benchmark::DoNotOptimize(out.data());
      });
      rows.push_back(
          {"roi_cold", frac, threads, count, count * sizeof(float), ct});
      // Populate the cache outside the timed region; every timed rep then
      // exercises the hit path (probe + bounds-checked copy).
      warm_reader.DecompressRange<float>(fid, 0, first, roi, threads);
      const auto wt = szx::bench::TimeTrimmed(reps, [&] {
        warm_reader.DecompressRange<float>(fid, 0, first, roi, threads);
        benchmark::DoNotOptimize(out.data());
      });
      rows.push_back(
          {"roi_warm", frac, threads, count, count * sizeof(float), wt});
    }
  }
  const ChunkCacheStats cs = cache.Stats();

  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "szx-bench-container-v1");
  w.Field("smoke", smoke);
  // Scaling beyond this count measures oversubscription, not parallelism;
  // the overwrite trap above compares it before replacing an existing grid.
  w.Field("hardware_threads", HardwareThreads());
  w.Field("reps", reps);
  w.Field("rel_eb", kRelEb);
  w.BeginObject("field");
  w.Field("app", "CESM-ATM");
  w.Field("name", field.name);
  w.Field("elements", vf.size());
  w.Field("scale", scale);
  w.Field("timesteps", kTimesteps);
  w.Field("chunk_elements", chunk_elements);
  w.Field("container_bytes", container.size());
  w.EndObject();
  w.BeginObject("cache");
  w.Field("capacity_bytes", cache.capacity_bytes());
  w.Field("hits", cs.hits);
  w.Field("misses", cs.misses);
  w.Field("insertions", cs.insertions);
  w.Field("evictions", cs.evictions);
  w.EndObject();
  w.BeginArray("results");
  for (const auto& r : rows) {
    w.BeginObject();
    w.Field("bench", r.bench);
    w.Field("roi_fraction", r.roi_fraction);
    w.Field("threads", r.threads);
    w.Field("elements", r.elements);
    w.Field("bytes", r.bytes);
    w.Field("mean_s", r.timing.mean_s);
    w.Field("min_s", r.timing.min_s);
    w.Field("max_s", r.timing.max_s);
    w.Field("gbps", r.Gbps());
    w.EndObject();
  }
  w.EndArray();
  // ROI cost relative to decoding the whole timestep at the same thread
  // count -- the seekability acceptance bar: an ROI covering <=10% of the
  // container must cost <=25% of the full decode.
  w.BeginArray("roi_cost_vs_full");
  for (const auto& r : rows) {
    if (r.bench != "roi_cold") continue;
    for (const auto& base : rows) {
      if (base.bench == "full_decode" && base.threads == r.threads) {
        w.BeginObject();
        w.Field("roi_fraction", r.roi_fraction);
        w.Field("threads", r.threads);
        w.Field("cost", r.timing.mean_s / base.timing.mean_s);
        w.EndObject();
      }
    }
  }
  w.EndArray();
  // Warm-cache repeat query over the identical cold query -- the cache
  // acceptance bar: a repeat query over hot chunks must run >=5x faster.
  w.BeginArray("warm_speedup_vs_cold");
  for (const auto& r : rows) {
    if (r.bench != "roi_warm") continue;
    for (const auto& base : rows) {
      if (base.bench == "roi_cold" && base.threads == r.threads &&
          base.roi_fraction == r.roi_fraction) {
        w.BeginObject();
        w.Field("roi_fraction", r.roi_fraction);
        w.Field("threads", r.threads);
        w.Field("speedup", base.timing.mean_s / r.timing.mean_s);
        w.EndObject();
      }
    }
  }
  w.EndArray();
  w.EndObject();

  if (!szx::bench::ValidateJson(w.Str())) {
    std::fprintf(stderr, "micro_codec: generated JSON failed validation\n");
    return 1;
  }
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "micro_codec: cannot open %s\n", path.c_str());
    return 1;
  }
  os << w.Str() << '\n';
  os.close();
  std::printf("wrote %s (%zu results, reps=%d, %zu elements, %d hw threads)\n",
              path.c_str(), rows.size(), reps, vf.size(), HardwareThreads());
  return os.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --bench_serve_json mode: in-process szx-serve throughput grid.
// ---------------------------------------------------------------------------

struct ServeRow {
  std::string bench;  // compress | decompress
  int connections;
  int workers;
  std::uint64_t requests;       // requests completed per timed rep
  std::uint64_t payload_bytes;  // uncompressed payload moved per rep
  szx::bench::TrimmedTiming timing;

  double Rps() const { return static_cast<double>(requests) / timing.mean_s; }
  double Gbps() const {
    return static_cast<double>(payload_bytes) / 1e9 / timing.mean_s;
  }
};

// One grid cell: `connections` concurrent clients, each on its own
// MemoryTransport pair with its own server-side connection thread, each
// issuing `reqs` synchronous Calls.  Every response must be kOk -- this is
// a throughput bench, shedding or degradation in the middle would silently
// time a different code path.
szx::bench::TrimmedTiming TimeServeCell(serve::Server& server,
                                        int connections, int reqs,
                                        serve::Opcode op,
                                        const ByteBuffer& body, int reps) {
  return szx::bench::TimeTrimmed(reps, [&] {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&server, reqs, op, &body] {
        serve::TransportPair pair = serve::MakeMemoryTransportPair();
        std::thread conn([&server, &pair] {
          server.ServeConnection(*pair.server);
        });
        serve::Client client(*pair.client);
        for (int r = 0; r < reqs; ++r) {
          const serve::ClientResponse rsp = client.Call(op, body);
          if (rsp.header.status != serve::Status::kOk) {
            pair.client->Close();
            conn.join();
            throw std::runtime_error("serve bench: non-OK response");
          }
        }
        pair.client->ShutdownWrite();  // drain to EOF, not a hard close
        conn.join();
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  });
}

int RunBenchServeJson(const std::string& path, bool smoke, bool force) {
  using szx::bench::JsonWriter;
  if (RefuseStaleOverwrite(path, force)) {
    return 1;
  }
  const double scale = smoke ? 0.01 : szx::bench::BenchScale() * 0.25;
  const int reps = smoke ? 2 : std::max(szx::bench::BenchReps(), 5);
  const int reqs_per_conn = smoke ? 2 : 8;
  constexpr double kRelEb = 1e-3;
  const data::Field field = data::GenerateField(data::App::kCesm, "CLDHGH",
                                                scale);
  const std::vector<float>& vf = field.values;
  const std::uint64_t raw_bytes = vf.size() * sizeof(float);

  // Request bodies: a compress job is spec + raw elements; a decompress
  // job is the compressed stream a compress job answers with.
  serve::CompressSpec spec;
  spec.error_bound = kRelEb;
  ByteBuffer compress_body;
  serve::AppendCompressSpec(compress_body, spec);
  const auto raw = std::as_bytes(std::span<const float>(vf));
  compress_body.insert(compress_body.end(), raw.begin(), raw.end());

  ByteBuffer decompress_body;
  {
    serve::Server bootstrap;
    serve::TransportPair pair = serve::MakeMemoryTransportPair();
    std::thread conn([&bootstrap, &pair] {
      bootstrap.ServeConnection(*pair.server);
    });
    serve::Client client(*pair.client);
    serve::ClientResponse rsp =
        client.Call(serve::Opcode::kCompress, compress_body);
    pair.client->ShutdownWrite();
    conn.join();
    if (rsp.header.status != serve::Status::kOk) {
      std::fprintf(stderr, "micro_codec: serve bootstrap compress failed\n");
      return 1;
    }
    decompress_body = std::move(rsp.body);
  }

  struct OpCase {
    const char* name;
    serve::Opcode op;
    const ByteBuffer* body;
  };
  const OpCase cases[] = {
      {"compress", serve::Opcode::kCompress, &compress_body},
      {"decompress", serve::Opcode::kDecompress, &decompress_body},
  };

  std::vector<ServeRow> rows;
  for (const int workers : {1, 2, 4}) {
    serve::ServerConfig config;
    config.workers = workers;
    // Room for every client's synchronous window: the grid measures job
    // throughput, never the shed path (kBusy would be a different bench).
    config.queue_capacity = 64;
    serve::Server server(config);
    for (const int connections : {1, 2, 4}) {
      for (const OpCase& oc : cases) {
        const auto t = TimeServeCell(server, connections, reqs_per_conn,
                                     oc.op, *oc.body, reps);
        const auto total_reqs =
            static_cast<std::uint64_t>(connections) *
            static_cast<std::uint64_t>(reqs_per_conn);
        rows.push_back({oc.name, connections, workers, total_reqs,
                        total_reqs * raw_bytes, t});
      }
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "szx-bench-serve-v1");
  w.Field("smoke", smoke);
  // The overwrite trap compares this before replacing an existing grid: a
  // 1-core rerun must not silently replace a multi-core record.
  w.Field("hardware_threads", HardwareThreads());
  w.Field("reps", reps);
  w.Field("requests_per_connection", reqs_per_conn);
  w.Field("rel_eb", kRelEb);
  w.BeginObject("field");
  w.Field("app", "CESM-ATM");
  w.Field("name", field.name);
  w.Field("elements", vf.size());
  w.Field("raw_bytes", raw_bytes);
  w.Field("compressed_bytes", decompress_body.size());
  w.Field("scale", scale);
  w.EndObject();
  w.BeginArray("results");
  for (const ServeRow& r : rows) {
    w.BeginObject();
    w.Field("bench", r.bench);
    w.Field("connections", r.connections);
    w.Field("workers", r.workers);
    w.Field("requests", r.requests);
    w.Field("payload_bytes", r.payload_bytes);
    w.Field("mean_s", r.timing.mean_s);
    w.Field("min_s", r.timing.min_s);
    w.Field("max_s", r.timing.max_s);
    w.Field("rps", r.Rps());
    w.Field("gbps", r.Gbps());
    w.EndObject();
  }
  w.EndArray();
  // Throughput at N connections over the same cell at 1 connection -- how
  // much service-level concurrency the admission path actually converts
  // into work instead of queueing.
  w.BeginArray("conn_scaling");
  for (const ServeRow& r : rows) {
    if (r.connections == 1) continue;
    for (const ServeRow& base : rows) {
      if (base.connections == 1 && base.bench == r.bench &&
          base.workers == r.workers) {
        w.BeginObject();
        w.Field("bench", r.bench);
        w.Field("connections", r.connections);
        w.Field("workers", r.workers);
        w.Field("speedup", r.Rps() / base.Rps());
        w.EndObject();
      }
    }
  }
  w.EndArray();
  w.EndObject();

  if (!szx::bench::ValidateJson(w.Str())) {
    std::fprintf(stderr, "micro_codec: generated JSON failed validation\n");
    return 1;
  }
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "micro_codec: cannot open %s\n", path.c_str());
    return 1;
  }
  os << w.Str() << '\n';
  os.close();
  std::printf("wrote %s (%zu results, reps=%d, %zu elements, %d hw threads)\n",
              path.c_str(), rows.size(), reps, vf.size(), HardwareThreads());
  return os.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string omp_json_path;
  std::string container_json_path;
  std::string serve_json_path;
  bool smoke = false;
  bool force = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bench_json=", 13) == 0) {
      json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--bench_omp_json=", 17) == 0) {
      omp_json_path = argv[i] + 17;
    } else if (std::strncmp(argv[i], "--bench_container_json=", 23) == 0) {
      container_json_path = argv[i] + 23;
    } else if (std::strncmp(argv[i], "--bench_serve_json=", 19) == 0) {
      serve_json_path = argv[i] + 19;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--force") == 0) {
      force = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!serve_json_path.empty()) {
    return RunBenchServeJson(serve_json_path, smoke, force);
  }
  if (!container_json_path.empty()) {
    return RunBenchContainerJson(container_json_path, smoke, force);
  }
  if (!omp_json_path.empty()) {
    return RunBenchOmpJson(omp_json_path, smoke, force);
  }
  if (!json_path.empty()) {
    return RunBenchJson(json_path, smoke, force);
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
