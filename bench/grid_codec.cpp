// Codec grid (BENCH_codec.json, schema szx-bench-codec-v4):
//   grid_codec --out=PATH [--smoke] [--force]
//
// GB/s for each kernel implementation x dtype x error bound on a CESM-like
// field: block-level encode and decode for both kernel tables, the full
// CompressInto/Decompress path for the active kernel, and a re-implementation
// of the pre-vectorization byte-wise encode loop as the fixed reference the
// speedup figures are measured against.  The baseline-codec axis
// (baseline_results) adds szref/sz2/zfpref compress+decompress per kernel
// tier with the parallel chunked-Huffman decode at 1/2/4/8 threads, and the
// fused Lorenzo predict+quantize kernel row whose speedup-vs-scalar series
// records the vectorization acceptance bar.  Since v3 both arrays also carry
// one row per stage no other grid times: SZx pointwise-REL compress and the
// DecompressRange slab (results); the LZ matcher, the SZ Huffman encoder,
// the ZFP 3-D forward transform and ZFP fixed-rate compress
// (baseline_results).
#include <algorithm>
#include <bit>

#include "bench_util.hpp"
#include "core/arena.hpp"
#include "core/block_plan.hpp"
#include "core/block_stats.hpp"
#include "core/compressor.hpp"
#include "core/encode.hpp"
#include "core/kernels/kernels.hpp"
#include "core/random_access.hpp"
#include "szref/huffman.hpp"
#include "zfpref/zfp_block.hpp"

namespace {

using namespace szx;
using bench::DoNotOptimize;
using bench::DtypeName;
using bench::JsonWriter;
using bench::Throughput;
using bench::TimeTrimmed;

constexpr double kBaselineRelEb = 1e-3;

// One pass of a block kernel over the grid field's work list takes
// 0.1-0.3 ms on the avx2 tier, and one DecompressRange slab tens of µs:
// too short for one grid run to resolve.  So each timed repetition of a
// block_encode/block_decode cell makes kBlockPasses passes, and each
// range_decompress repetition decodes kRangeSlabs consecutive slabs, which
// keeps every repetition at >= 1 ms on a 4-vCPU x86-64 host.
constexpr int kBlockPasses = 16;
constexpr int kRangeSlabs = 64;

// Re-implementation of the pre-vectorization Solution-C encode loop (byte-at-
// a-time commits through an incrementing pointer).  This is the fixed
// reference the grid reports speedups against; it must NOT be "improved",
// only kept faithful to the old EncodeBlockC inner loop.
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
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = rel_eb;
  const double bound = ResolveAbsoluteBound<T>(v, p);
  const int eb_expo = BoundExponent(bound);
  std::vector<BlockWork<T>> work;
  for (std::size_t i = 0; i < v.size(); i += bs) {
    const auto block =
        std::span<const T>(v).subspan(i, std::min<std::size_t>(bs, v.size() - i));
    const auto st = ComputeBlockStats<T>(block);
    const auto d = DecideBlock<T>(block, st, ErrorBoundMode::kValueRangeRelative,
                                  rel_eb, bound, eb_expo);
    if (d.is_constant) continue;
    work.push_back({block, d.mu, d.plan, 0, 0});
  }
  return work;
}

// One SZx row of `results`.
struct CodecRow {
  std::string bench;
  std::string kernel;
  std::string dtype;
  double rel_eb;
  Throughput t;

  void Write(JsonWriter& w) const {
    w.Field("bench", bench);
    w.Field("kernel", kernel);
    w.Field("dtype", dtype);
    w.Field("rel_eb", rel_eb);
    t.Write(w);
  }
};

// One baseline-codec row of `baseline_results`: codec x kernel tier x
// thread count (threads matter only for the parallel chunked-Huffman
// decode; every other row carries threads=1).  rel_eb 0 marks a row that
// takes no error bound (lossless LZ, the Huffman stage, the transform,
// fixed-rate ZFP).
struct BaselineRow {
  std::string bench;
  std::string kernel;
  int threads;
  double rel_eb;
  Throughput t;

  void Write(JsonWriter& w) const {
    w.Field("bench", bench);
    w.Field("kernel", kernel);
    w.Field("threads", threads);
    w.Field("rel_eb", rel_eb);
    t.Write(w);
  }
};

template <typename T>
std::size_t WorkBytes(const std::vector<BlockWork<T>>& work) {
  std::size_t bytes = 0;
  for (const auto& w : work) bytes += w.values.size() * sizeof(T);
  return bytes;
}

// Block-level encode throughput over `passes` passes of the work list;
// `encode(w, dst)` encodes one block and returns its payload size.
template <typename T, typename EncodeFn>
CodecRow MeasureEncode(const char* bench, const char* kernel_name,
                       const std::vector<BlockWork<T>>& work, std::uint32_t bs,
                       int reps, int passes, double rel_eb,
                       EncodeFn&& encode) {
  std::vector<std::byte> dst(kernels::EncodeCapacity<T>(bs));
  const auto timing = TimeTrimmed(reps, [&] {
    std::size_t acc = 0;
    for (int pass = 0; pass < passes; ++pass) {
      for (const auto& w : work) acc += encode(w, dst.data());
    }
    DoNotOptimize(acc);
  });
  return {bench, kernel_name, DtypeName<T>(), rel_eb,
          {passes * WorkBytes(work), timing}};
}

template <typename T>
CodecRow MeasureBlockEncode(const char* kernel_name,
                            const kernels::BlockOps<T>& ops,
                            const std::vector<BlockWork<T>>& work,
                            std::uint32_t bs, int reps, double rel_eb) {
  return MeasureEncode<T>(
      "block_encode", kernel_name, work, bs, reps, kBlockPasses, rel_eb,
      [&](const BlockWork<T>& w, std::byte* dst) {
        return ops.encode_c(w.values.data(), w.values.size(), w.mu, w.plan,
                            dst);
      });
}

template <typename T>
CodecRow MeasureBlockDecode(const char* kernel_name,
                            const kernels::BlockOps<T>& ops,
                            const std::vector<BlockWork<T>>& work,
                            const std::vector<std::byte>& payloads,
                            std::uint32_t bs, int reps, double rel_eb) {
  std::vector<T> out(bs);
  const auto timing = TimeTrimmed(reps, [&] {
    for (int pass = 0; pass < kBlockPasses; ++pass) {
      for (const auto& w : work) {
        // As in a frame decode, the kernel may read on to the end of
        // `payloads`, the concatenated payloads of every block.
        // szx-lint: allow(ptr-arith) -- payload_offset/payload_size were recorded while filling `payloads` above; decode_c bounds-checks against payload_size and reads at most the payloads.size() - payload_offset bytes passed as readable
        ops.decode_c(payloads.data() + w.payload_offset, w.payload_size,
                     payloads.size() - w.payload_offset, w.mu, w.plan,
                     out.data(), w.values.size());
      }
    }
    DoNotOptimize(out.data());
  });
  return {"block_decode", kernel_name, DtypeName<T>(), rel_eb,
          {kBlockPasses * WorkBytes(work), timing}};
}

template <typename T>
void MeasureFullPath(std::vector<CodecRow>& rows, const std::vector<T>& v,
                     double rel_eb, int reps) {
  const char* active = kernels::KindName(kernels::ActiveKind());
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = rel_eb;
  ScratchArena arena;
  const std::size_t bytes = v.size() * sizeof(T);
  ByteSpan frame;
  const auto ct = TimeTrimmed(reps, [&] {
    frame = CompressInto<T>(v, p, arena);
    DoNotOptimize(frame.data());
  });
  rows.push_back({"full_compress", active, DtypeName<T>(), rel_eb, {bytes, ct}});
  const ByteBuffer stream(frame.begin(), frame.end());
  const auto dt = TimeTrimmed(reps, [&] {
    auto recon = Decompress<T>(stream);
    DoNotOptimize(recon.data());
  });
  rows.push_back(
      {"full_decompress", active, DtypeName<T>(), rel_eb, {bytes, dt}});
}

template <typename T>
void RunGridForType(std::vector<CodecRow>& rows, const std::vector<T>& v,
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
    rows.push_back(MeasureEncode<T>(
        "baseline_bytewise_encode", "pre-vectorization", work, kBs, reps,
        /*passes=*/1, rel_eb, [](const BlockWork<T>& w, std::byte* dst) {
          return BytewiseEncodeReference<T>(w.values, w.mu, w.plan, dst);
        }));

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

// SZx stages beyond the value-range-relative full path, float32 at 1e-3:
// pointwise-REL compress, and DecompressRange slabs walking the stream
// (kRangeSlabs consecutive slabs per timed run; the offset moves on, so
// runs touch fresh blocks).
void MeasureSzxStages(std::vector<CodecRow>& rows, const std::vector<float>& v,
                      int reps) {
  constexpr double kRelEb = 1e-3;
  const char* active = kernels::KindName(kernels::ActiveKind());
  Params pw;
  pw.mode = ErrorBoundMode::kPointwiseRelative;
  pw.error_bound = kRelEb;
  const auto pt = TimeTrimmed(reps, [&] {
    auto stream = Compress<float>(v, pw);
    DoNotOptimize(stream.data());
  });
  rows.push_back({"full_pwrel_compress", active, "float32", kRelEb,
                  {v.size() * sizeof(float), pt}});

  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.error_bound = kRelEb;
  const ByteBuffer stream = Compress<float>(v, p);
  const std::size_t count =
      std::max<std::size_t>(1, std::min<std::size_t>(1 << 14, v.size() / 4));
  std::size_t offset = 0;
  const auto rt = TimeTrimmed(reps, [&] {
    for (int i = 0; i < kRangeSlabs; ++i) {
      auto slab = DecompressRange<float>(stream, offset, count);
      DoNotOptimize(slab.data());
      offset = (offset + count) % (v.size() - count + 1);
    }
  });
  rows.push_back({"range_decompress", active, "float32", kRelEb,
                  {kRangeSlabs * count * sizeof(float), rt}});
}

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
void MeasureBaselineCodec(std::vector<BaselineRow>& rows,
                          const char* codec_name, const char* kernel_name,
                          std::size_t bytes, int reps, bool threaded_decode,
                          CompressFn&& compress, DecompressFn&& decompress) {
  const auto ct = TimeTrimmed(reps, [&] {
    auto stream = compress();
    DoNotOptimize(stream.data());
  });
  rows.push_back({std::string(codec_name) + "_compress", kernel_name, 1,
                  kBaselineRelEb, {bytes, ct}});
  const ByteBuffer stream = compress();
  for (const int threads : {1, 2, 4, 8}) {
    const auto dt = TimeTrimmed(reps, [&] {
      auto recon = decompress(stream, threads);
      DoNotOptimize(recon.data());
    });
    rows.push_back({std::string(codec_name) + "_decompress", kernel_name,
                    threads, kBaselineRelEb, {bytes, dt}});
    if (!threaded_decode) break;  // serial decoder: one row is the truth
  }
}

// Fused Lorenzo predict+quantize (prequant then row-wise integer delta over
// the full 2-D grid) -- the kernel-level row behind the vectorization
// acceptance bar: each vector tier's speedup over scalar is recorded in
// predict_quantize_speedup_vs_scalar.
void MeasurePredictQuantize(std::vector<BaselineRow>& rows,
                            const std::vector<float>& v, std::size_t ny,
                            std::size_t nx, int reps) {
  // The row is a kernel microbench; the bound's scale is moot.
  const double half_inv = 1.0 / (2.0 * kBaselineRelEb);
  std::vector<std::int32_t> q(v.size());
  std::vector<std::int32_t> delta(v.size());
  for (const kernels::Kind kind : MeasurableKinds()) {
    const kernels::BaselineOps& ops = kernels::BaselineOpsFor(kind);
    const auto t = TimeTrimmed(reps, [&] {
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
      DoNotOptimize(delta.data());
    });
    rows.push_back({"predict_quantize", kernels::KindName(kind), 1,
                    kBaselineRelEb, {v.size() * sizeof(float), t}});
  }
}

// Baseline-codec stages timed nowhere else, under the active kernel tier:
// the LZ matcher, the SZ canonical-Huffman encoder (a 17-symbol code
// stream centred on the zero-residual code, one symbol per field element),
// the ZFP 3-D forward transform over 4x4x4 integer blocks, and ZFP
// fixed-rate compress at 8 bits per value.
void MeasureBaselineStages(std::vector<BaselineRow>& rows,
                           const data::Field& field, int reps) {
  const char* active = kernels::KindName(kernels::ActiveKind());
  const std::vector<float>& v = field.values;
  const std::size_t bytes = v.size() * sizeof(float);

  const auto lz = TimeTrimmed(reps, [&] {
    auto stream = lzref::LzCompressFloats(v);
    DoNotOptimize(stream.data());
  });
  rows.push_back({"lzref_compress", active, 1, 0.0, {bytes, lz}});

  std::vector<std::uint16_t> codes(v.size());
  std::uint64_t s = 1;
  for (auto& c : codes) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<std::uint16_t>(32768 + static_cast<int>(s % 17) - 8);
  }
  szref::HuffmanCodec codec;
  codec.BuildFromSymbols(codes);
  const auto ht = TimeTrimmed(reps, [&] {
    ByteBuffer bits;
    BitWriter bw(bits);
    codec.Encode(codes, bw);
    bw.Flush();
    DoNotOptimize(bits.data());
  });
  rows.push_back({"huffman_encode", active, 1, 0.0,
                  {codes.size() * sizeof(std::uint16_t), ht}});

  constexpr std::size_t kBlock = 64;  // one 4x4x4 block
  std::vector<zfpref::Int> ints(std::max(kBlock, v.size() / kBlock * kBlock));
  s = 7;
  for (auto& x : ints) {
    s = s * 6364136223846793005ull + 1;
    x = static_cast<zfpref::Int>(s % (1u << 28));
  }
  std::vector<zfpref::Int> work(ints.size());
  const auto xt = TimeTrimmed(reps, [&] {
    work = ints;
    for (std::size_t b = 0; b < work.size(); b += kBlock) {
      zfpref::FwdXform(std::span<zfpref::Int>(work).subspan(b, kBlock).data(),
                       3);
    }
    DoNotOptimize(work.data());
  });
  rows.push_back({"zfpref_fwd_xform", active, 1, 0.0,
                  {ints.size() * sizeof(zfpref::Int), xt}});

  const auto ft = TimeTrimmed(reps, [&] {
    auto stream = zfpref::ZfpCompressFixedRate(v, field.dims, 8.0);
    DoNotOptimize(stream.data());
  });
  rows.push_back({"zfpref_fixed_rate_compress", active, 1, 0.0, {bytes, ft}});
}

void RunBaselineGrid(std::vector<BaselineRow>& rows, const data::Field& field,
                     int reps) {
  const std::vector<float>& v = field.values;
  const std::size_t bytes = v.size() * sizeof(float);
  const std::vector<std::size_t>& dims = field.dims;

  szref::SzParams szp;
  szp.mode = ErrorBoundMode::kValueRangeRelative;
  szp.error_bound = kBaselineRelEb;
  szref::Sz2Params sz2p;
  sz2p.mode = ErrorBoundMode::kValueRangeRelative;
  sz2p.error_bound = kBaselineRelEb;
  zfpref::ZfpParams zp;
  zp.mode = ErrorBoundMode::kValueRangeRelative;
  zp.error_bound = kBaselineRelEb;

  const kernels::Kind prior = kernels::ActiveKind();
  for (const kernels::Kind kind : MeasurableKinds()) {
    kernels::SetActiveKind(kind);
    const char* kname = kernels::KindName(kind);
    MeasureBaselineCodec(
        rows, "szref", kname, bytes, reps, /*threaded_decode=*/true,
        [&] { return szref::SzCompress(v, dims, szp); },
        [&](ByteSpan s, int threads) {
          return szref::SzDecompress(s, threads);
        });
    MeasureBaselineCodec(
        rows, "sz2", kname, bytes, reps, /*threaded_decode=*/true,
        [&] { return szref::Sz2Compress(v, dims, sz2p); },
        [&](ByteSpan s, int threads) {
          return szref::Sz2Decompress(s, threads);
        });
    MeasureBaselineCodec(
        rows, "zfpref", kname, bytes, reps, /*threaded_decode=*/false,
        [&] { return zfpref::ZfpCompress(v, dims, zp); },
        [&](ByteSpan s, int) { return zfpref::ZfpDecompress(s); });
  }
  kernels::SetActiveKind(prior);

  // The field is 2-D (CESM slice): ny x nx for the kernel-level row.
  const std::size_t nx = dims.back();
  MeasurePredictQuantize(rows, v, v.size() / nx, nx, reps);
  MeasureBaselineStages(rows, field, reps);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::GridSpec spec{"szx-bench-codec-v4", 1.0, 0.02, 7};
  return bench::GridMain(argc, argv, spec, [](const bench::GridRun& run) {
    const std::vector<float>& vf = run.field.values;
    const std::vector<double> vd(vf.begin(), vf.end());
    std::vector<CodecRow> rows;
    RunGridForType<float>(rows, vf, run.reps);
    RunGridForType<double>(rows, vd, run.reps);
    MeasureSzxStages(rows, vf, run.reps);
    std::vector<BaselineRow> baseline_rows;
    RunBaselineGrid(baseline_rows, run.field, run.reps);

    bench::GridDoc doc;
    doc.body = [rows = std::move(rows),
                baseline_rows = std::move(baseline_rows)](JsonWriter& w) {
      w.Field("active_kernel", kernels::KindName(kernels::ActiveKind()));
      w.Field("avx2_supported", kernels::Avx2Supported());
      w.Field("neon_supported", kernels::NeonSupported());
      bench::WriteRows(w, "results", rows);
      // Speedup of each vectorized block encode over the byte-wise
      // reference at the same dtype/bound -- the number the 1.5x acceptance
      // bar reads.
      bench::WriteRatioSeries(
          w, "encode_speedup_vs_bytewise", rows,
          [](const CodecRow& r, const CodecRow& b) {
            return r.bench == "block_encode" &&
                   b.bench == "baseline_bytewise_encode" &&
                   b.dtype == r.dtype && b.rel_eb == r.rel_eb;
          },
          [](JsonWriter& o, const CodecRow& r, const CodecRow& b) {
            o.Field("kernel", r.kernel);
            o.Field("dtype", r.dtype);
            o.Field("rel_eb", r.rel_eb);
            o.Field("speedup", r.t.Gbps() / b.t.Gbps());
          });
      bench::WriteRows(w, "baseline_results", baseline_rows);
      // Vectorized Lorenzo predict+quantize over the scalar kernel at one
      // thread -- the number the >= 1.5x vectorization acceptance bar reads.
      bench::WriteRatioSeries(
          w, "predict_quantize_speedup_vs_scalar", baseline_rows,
          [](const BaselineRow& r, const BaselineRow& b) {
            return r.bench == "predict_quantize" && r.kernel != "scalar" &&
                   b.bench == "predict_quantize" && b.kernel == "scalar";
          },
          [](JsonWriter& o, const BaselineRow& r, const BaselineRow& b) {
            o.Field("kernel", r.kernel);
            o.Field("speedup", r.t.Gbps() / b.t.Gbps());
          });
    };
    return doc;
  });
}
