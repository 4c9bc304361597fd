// Two-phase frame encoder: the bound every encoder resolves from its merged
// block-stats ranges equals ResolveAbsoluteBound bit for bit, the stream is
// the same for every chunk count, the stats and finite-range passes run the
// selected kernel table, both tables' finite ranges give one bound, and the
// frame assemblers write every byte of the frame they are handed (this
// binary owns the global operator new to prefill the buffers a codec sizes
// for itself, so it must stay separate from other suites).
#include "core/frame_encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/frame_index.hpp"
#include "core/kernels/kernels.hpp"
#include "core/omp_codec.hpp"
#include "cusim/cusim_codec.hpp"

// GCC's -Wmismatched-new-delete pairs the inlined free() in the operator
// delete below with calls to the operator new it did not inline.  Both
// funnel through malloc/free, so silence the false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

// The byte every operator new fills its memory with, or -1 for none.
std::atomic<int> g_heap_fill{-1};

}  // namespace

// Prefilling replacements for the global allocator: while a HeapFill is
// alive, a ByteBuffer a codec grows without a value starts as the fill
// byte, like a dst passed in prefilled.
void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  const int fill = g_heap_fill.load(std::memory_order_relaxed);  // szx-mo: relaxed; HeapFill stores on the test thread before the codec call, and the pool's task handoff orders that store before any worker allocates
  if (fill >= 0) std::memset(p, fill, size);
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace szx {
namespace {

using testing::Rng;

template <typename T>
using Bits = typename FloatTraits<T>::Bits;

template <typename T>
Bits<T> B(T v) {
  return std::bit_cast<Bits<T>>(v);
}

std::uint64_t B64(double v) { return std::bit_cast<std::uint64_t>(v); }

// Small blocks give enough blocks for 8 chunks of >= 8 blocks each.
constexpr std::uint32_t kBs = 16;
// 65 blocks, the last one short (n is not a multiple of the block size).
constexpr std::size_t kRagged = kBs * 64 + 5;

template <typename T>
struct EdgeField {
  std::string name;
  std::vector<T> v;
};

// Element index where chunk c of `chunks` starts, for a kRagged field.
std::size_t ChunkStart(std::size_t chunks, std::size_t c) {
  std::vector<ChunkRef> refs(chunks);
  SetChunkBounds((kRagged + kBs - 1) / kBs, std::span<ChunkRef>(refs));
  return static_cast<std::size_t>(refs[c].first_block) * kBs;
}

template <typename T>
std::vector<EdgeField<T>> EdgeFields() {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  std::vector<EdgeField<T>> f;
  // Fields of +0 and -0 only, with the sign pattern arranged so that chunks
  // and vector lanes meet opposite zero signs first.
  f.push_back({"all_pos_zero", std::vector<T>(kRagged, T(0))});
  f.push_back({"all_neg_zero", std::vector<T>(kRagged, -T(0))});
  {
    std::vector<T> v(kRagged);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 2 ? -T(0) : T(0);
    f.push_back({"alternating_zeros_pos_first", v});
    for (T& x : v) x = -x;
    f.push_back({"alternating_zeros_neg_first", v});
  }
  {
    std::vector<T> v(kRagged, T(0));
    for (std::size_t i = v.size() / 2; i < v.size(); ++i) v[i] = -T(0);
    f.push_back({"pos_then_neg_zeros", v});
    for (T& x : v) x = -x;
    f.push_back({"neg_then_pos_zeros", v});
  }
  Rng rng(2024);
  std::vector<T> smooth(kRagged);
  for (std::size_t i = 0; i < smooth.size(); ++i) {
    smooth[i] = static_cast<T>(std::sin(0.01 * static_cast<double>(i)) * 50 +
                               rng.Uniform(-0.5, 0.5));
  }
  f.push_back({"smooth_ragged", smooth});
  {
    // A zero extreme: min is -0 / +0 in different blocks.
    std::vector<T> v = smooth;
    for (T& x : v) x = x < T(0) ? -x : x;
    v[3] = -T(0);
    v[kRagged - 2] = T(0);
    f.push_back({"zero_min_mixed_sign", v});
  }
  {
    std::vector<T> v = smooth;
    v[kBs * 5 + 7] = nan;
    v[kBs * 9 + 3] = inf;
    v[kBs * 20 + 1] = -inf;
    f.push_back({"nonfinite_inside_blocks", v});
  }
  for (std::size_t chunks : {2u, 3u, 4u, 8u}) {
    // NaN/Inf on both sides of every chunk boundary of this chunk count.
    std::vector<T> v = smooth;
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t at = ChunkStart(chunks, c);
      v[at] = nan;
      v[at - 1] = c % 2 ? inf : -inf;
    }
    f.push_back({"nonfinite_on_boundaries_" + std::to_string(chunks), v});
  }
  {
    // The extremes themselves sit next to non-finite values.
    std::vector<T> v = smooth;
    const std::size_t at = ChunkStart(4, 2);
    v[at] = nan;
    v[at + 1] = T(1e6);
    v[at - 1] = T(-1e6);
    f.push_back({"extremes_beside_nan", v});
  }
  {
    std::vector<T> v(kRagged);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
    }
    f.push_back({"all_nonfinite", v});
  }
  f.push_back({"empty", {}});
  f.push_back({"single", {T(3.25)}});
  f.push_back({"single_neg_zero", {-T(0)}});
  f.push_back({"single_nan", {nan}});
  return f;
}

template <typename T>
std::vector<T> FieldNamed(const std::string& name) {
  const std::vector<EdgeField<T>> all = EdgeFields<T>();
  const auto it = std::find_if(all.begin(), all.end(), [&](const auto& f) {
    return f.name == name;
  });
  return it == all.end() ? std::vector<T>{} : it->v;
}

std::vector<Params> Modes() {
  std::vector<Params> ps;
  for (ErrorBoundMode m :
       {ErrorBoundMode::kValueRangeRelative, ErrorBoundMode::kAbsolute,
        ErrorBoundMode::kPointwiseRelative}) {
    Params p;
    p.mode = m;
    p.error_bound = 1e-3;
    p.block_size = kBs;
    ps.push_back(p);
  }
  return ps;
}

// Every byte operator new returns while this is alive holds `fill`.
class HeapFill {
 public:
  explicit HeapFill(std::byte fill) {
    g_heap_fill.store(static_cast<int>(fill), std::memory_order_relaxed);  // szx-mo: relaxed; only the test thread stores, see operator new
  }
  ~HeapFill() { g_heap_fill.store(-1, std::memory_order_relaxed); }  // szx-mo: relaxed; as the constructor's store
  HeapFill(const HeapFill&) = delete;
  HeapFill& operator=(const HeapFill&) = delete;
};

// `make()`'s frame with the heap prefilled with 0x00, then with 0xFF.  A
// byte the codec never writes differs between the two.
template <typename Make>
std::pair<ByteBuffer, ByteBuffer> UnderBothFills(Make&& make) {
  std::pair<ByteBuffer, ByteBuffer> out;
  {
    const HeapFill fill(std::byte{0x00});
    out.first = make();
  }
  {
    const HeapFill fill(std::byte{0xFF});
    out.second = make();
  }
  return out;
}

// EncodeFrame at `width` chunks into a dst prefilled with `fill`.
template <typename T>
ByteBuffer EncodeIntoFilled(std::span<const T> data, const Params& p,
                            std::size_t width, std::byte fill) {
  std::vector<ScratchArena> arenas(width);
  ByteBuffer dst;
  (void)EncodeFrame(data, p, std::span<ScratchArena>(arenas),
                    [&dst, fill](std::size_t n) {
                      dst.assign(n, fill);
                      return std::span<std::byte>(dst);
                    },
                    nullptr);
  return dst;
}

// The edge fields plus a noise field no bound can shrink, so some frames
// are raw passthrough.
template <typename T>
std::vector<EdgeField<T>> FramingFields() {
  std::vector<EdgeField<T>> f = EdgeFields<T>();
  Rng rng(77);
  std::vector<T> noise(kRagged);
  for (T& x : noise) x = static_cast<T>(rng.Uniform(-1e6, 1e6));
  f.push_back({"incompressible_noise", noise});
  return f;
}

template <typename T>
class FrameEncoderTypedTest : public ::testing::Test {};
using FloatTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(FrameEncoderTypedTest, FloatTypes);

TYPED_TEST(FrameEncoderTypedTest, EncodersResolveTheBoundBitForBit) {
  using T = TypeParam;
  for (const EdgeField<T>& f : EdgeFields<T>()) {
    for (const Params& p : Modes()) {
      const std::string what =
          f.name + " mode " + std::to_string(static_cast<int>(p.mode));
      const std::span<const T> data(f.v);
      const std::uint64_t want = B64(ResolveAbsoluteBound<T>(data, p));
      CompressionStats st;
      const ByteBuffer serial = Compress<T>(data, p, &st);
      EXPECT_EQ(B64(st.absolute_bound), want) << what;
      EXPECT_EQ(B64(PeekHeader(serial).error_bound_abs), want) << what;
      for (int chunks : {1, 2, 3, 4, 8}) {
        CompressionStats ost;
        const ByteBuffer par = CompressOmp<T>(data, p, &ost, chunks);
        EXPECT_EQ(B64(ost.absolute_bound), want) << what << " x" << chunks;
        EXPECT_EQ(par, serial) << what << " x" << chunks;
      }
    }
  }
}

// The reduce step: merging the per-chunk ranges in any order yields the
// same bound bits, including when only zeros of both signs are present.
TYPED_TEST(FrameEncoderTypedTest, MergeOrderNeverChangesTheBound) {
  using T = TypeParam;
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  p.block_size = kBs;
  for (const EdgeField<T>& f : EdgeFields<T>()) {
    const std::span<const T> data(f.v);
    const std::uint64_t nb = FrameBlockCount(data.size(), p);
    const std::uint64_t want = B64(ResolveAbsoluteBound<T>(data, p));
    for (std::size_t chunks : {1u, 2u, 3u, 4u, 8u}) {
      if (chunks > MaxUsefulChunks(nb)) continue;
      std::vector<ChunkRef> refs(chunks);
      SetChunkBounds(nb, std::span<ChunkRef>(refs));
      ScratchArena arena;
      std::vector<GlobalRange<T>> parts;
      for (const ChunkRef& c : refs) {
        parts.push_back(
            ScanBlockRange(data, kBs, c.first_block, c.last_block, arena)
                .range);
      }
      GlobalRange<T> fwd, rev;
      for (const auto& r : parts) fwd.Merge(r);
      for (auto it = parts.rbegin(); it != parts.rend(); ++it) rev.Merge(*it);
      EXPECT_EQ(fwd.any_finite, rev.any_finite) << f.name;
      EXPECT_EQ(B64(AbsoluteBoundOf(p, fwd)), want) << f.name << " x" << chunks;
      EXPECT_EQ(B64(AbsoluteBoundOf(p, rev)), want) << f.name << " x" << chunks;
    }
  }
}

template <typename T>
void ExpectSameStats(const BlockStats<T>& a, const BlockStats<T>& b,
                     const std::string& what) {
  EXPECT_EQ(B(a.min), B(b.min)) << what;
  EXPECT_EQ(B(a.max), B(b.max)) << what;
  EXPECT_EQ(B(a.mu), B(b.mu)) << what;
  EXPECT_EQ(B64(a.radius), B64(b.radius)) << what;
  EXPECT_EQ(a.all_finite, b.all_finite) << what;
}

TYPED_TEST(FrameEncoderTypedTest, ScalarAndAvx2StatsAgreeBitwiseOnEdgeBlocks) {
  using T = TypeParam;
  const kernels::BlockOps<T>& scalar = kernels::ScalarOps<T>();
  const kernels::BlockOps<T>& avx2 = kernels::Avx2Ops<T>();
  for (const EdgeField<T>& f : EdgeFields<T>()) {
    for (std::size_t bs : {std::size_t{4}, std::size_t{7}, std::size_t{kBs},
                           std::size_t{33}, std::size_t{128}}) {
      const std::size_t nb = (f.v.size() + bs - 1) / bs;
      std::vector<BlockStats<T>> a(nb), b(nb);
      const GlobalRange<T> ra =
          scalar.block_stats(f.v.data(), f.v.size(), bs, a.data());
      const GlobalRange<T> rb =
          avx2.block_stats(f.v.data(), f.v.size(), bs, b.data());
      const std::string what = f.name + " bs " + std::to_string(bs);
      ASSERT_EQ(ra.any_finite, rb.any_finite) << what;
      if (ra.any_finite) {
        EXPECT_EQ(B(ra.min), B(rb.min)) << what;
        EXPECT_EQ(B(ra.max), B(rb.max)) << what;
      }
      for (std::size_t k = 0; k < nb; ++k) {
        ExpectSameStats(a[k], b[k], what + " block " + std::to_string(k));
      }
    }
  }
}

// The range a stats pass returns is the finite range of its elements.
TYPED_TEST(FrameEncoderTypedTest, StatsPassRangeIsTheFiniteRange) {
  using T = TypeParam;
  for (const EdgeField<T>& f : EdgeFields<T>()) {
    std::vector<BlockStats<T>> out((f.v.size() + kBs - 1) / kBs);
    const GlobalRange<T> want = ScanFiniteRange(f.v.data(), f.v.size());
    for (const kernels::BlockOps<T>* ops :
         {&kernels::ScalarOps<T>(), &kernels::Avx2Ops<T>()}) {
      const GlobalRange<T> r =
          ops->block_stats(f.v.data(), f.v.size(), kBs, out.data());
      ASSERT_EQ(r.any_finite, want.any_finite) << f.name;
      if (want.any_finite) {
        EXPECT_EQ(r.min, want.min) << f.name;
        EXPECT_EQ(r.max, want.max) << f.name;
      }
    }
  }
}

// The finite-range entry of both tables (the pass behind
// ComputeGlobalRange) yields the same bound bits on every edge field: the
// +-0 fields, NaN/Inf inside blocks and on chunk boundaries, and the
// all-non-finite field.  The tables may pick different zero signs for an
// endpoint; the bound never depends on it.
TYPED_TEST(FrameEncoderTypedTest, FiniteRangeTablesGiveTheSameBound) {
  using T = TypeParam;
  Params p;
  p.mode = ErrorBoundMode::kValueRangeRelative;
  for (const EdgeField<T>& f : EdgeFields<T>()) {
    const GlobalRange<T> want = ScanFiniteRange(f.v.data(), f.v.size());
    for (const kernels::BlockOps<T>* ops :
         {&kernels::ScalarOps<T>(), &kernels::Avx2Ops<T>()}) {
      const GlobalRange<T> r = ops->finite_range(f.v.data(), f.v.size());
      ASSERT_EQ(r.any_finite, want.any_finite) << f.name;
      if (want.any_finite) {
        EXPECT_EQ(r.min, want.min) << f.name;
        EXPECT_EQ(r.max, want.max) << f.name;
      }
      EXPECT_EQ(B64(AbsoluteBoundOf(p, r)), B64(AbsoluteBoundOf(p, want)))
          << f.name;
    }
  }
}

// Restores the process-wide kernel selection when a test ends.
class KernelKindGuard {
 public:
  KernelKindGuard() : saved_(kernels::ActiveKind()) {}
  ~KernelKindGuard() { kernels::SetActiveKind(saved_); }
  KernelKindGuard(const KernelKindGuard&) = delete;
  KernelKindGuard& operator=(const KernelKindGuard&) = delete;

 private:
  kernels::Kind saved_;
};

TYPED_TEST(FrameEncoderTypedTest, StatsPassRunsTheSelectedKernelTable) {
  using T = TypeParam;
  const KernelKindGuard guard;
  ASSERT_EQ(kernels::SetActiveKind(kernels::Kind::kScalar),
            kernels::Kind::kScalar);
  EXPECT_EQ(kernels::ActiveOps<T>().block_stats,
            kernels::ScalarOps<T>().block_stats);
  EXPECT_EQ(kernels::ActiveOps<T>().finite_range,
            kernels::ScalarOps<T>().finite_range);
  if (kernels::Avx2Supported()) {
    EXPECT_NE(kernels::ActiveOps<T>().block_stats,
              kernels::Avx2Ops<T>().block_stats);
    EXPECT_NE(kernels::ActiveOps<T>().finite_range,
              kernels::Avx2Ops<T>().finite_range);
  }
  // The encoder's stats pass and the per-block wrapper produce the scalar
  // table's stats.
  const std::vector<T> v = FieldNamed<T>("smooth_ragged");
  ASSERT_EQ(v.size(), kRagged);
  const std::size_t nb = (v.size() + kBs - 1) / kBs;
  std::vector<BlockStats<T>> want(nb);
  (void)kernels::ScalarOps<T>().block_stats(v.data(), v.size(), kBs,
                                            want.data());
  ScratchArena arena;
  const RangeStats<T> got =
      ScanBlockRange(std::span<const T>(v), kBs, 0, nb, arena);
  ASSERT_EQ(got.blocks.size(), nb);
  for (std::size_t k = 0; k < nb; ++k) {
    ExpectSameStats(got.blocks[k], want[k], "block " + std::to_string(k));
  }
  ExpectSameStats(
      ComputeBlockStats<T>(std::span<const T>(v).first(kBs)), want[0],
      "ComputeBlockStats");

  if (kernels::Avx2Supported()) {
    ASSERT_EQ(kernels::SetActiveKind(kernels::Kind::kAvx2),
              kernels::Kind::kAvx2);
    EXPECT_EQ(kernels::ActiveOps<T>().block_stats,
              kernels::Avx2Ops<T>().block_stats);
  }
}

// ---- every frame byte written ----------------------------------------------
//
// ByteBuffer does not zero what it grows, so the frame assemblers must
// write every byte of the frame: the same input gives the same frame into
// a dst prefilled with 0x00 and with 0xFF, in every mode, at widths 1-4,
// for raw-passthrough and v2 integrity-footer frames, through EncodeFrame,
// CompressOmp, the cusim assembler and ContainerWriter::Finish.

TYPED_TEST(FrameEncoderTypedTest, EncodersWriteEveryFrameByte) {
  using T = TypeParam;
  bool saw_raw = false;
  bool saw_v2 = false;
  for (const EdgeField<T>& f : FramingFields<T>()) {
    const std::span<const T> data(f.v);
    for (Params p : Modes()) {
      p.error_bound = f.name == "incompressible_noise" ? 1e-300 : 1e-3;
      for (const bool integrity : {false, true}) {
        p.integrity = integrity;
        const std::string what = f.name + " mode " +
                                 std::to_string(static_cast<int>(p.mode)) +
                                 (integrity ? " v2" : " v1");
        const ByteBuffer want = Compress<T>(data, p);
        const Header h = PeekHeader(want);
        saw_raw = saw_raw || (h.flags & kFlagRawPassthrough) != 0;
        saw_v2 = saw_v2 || h.version == kFormatVersionIntegrity;
        const std::uint64_t nb = FrameBlockCount(data.size(), p);
        for (std::size_t width = 1; width <= 4; ++width) {
          if (width > MaxUsefulChunks(nb)) break;
          const std::string at = what + " x" + std::to_string(width);
          const ByteBuffer zeros =
              EncodeIntoFilled<T>(data, p, width, std::byte{0x00});
          const ByteBuffer ones =
              EncodeIntoFilled<T>(data, p, width, std::byte{0xFF});
          EXPECT_EQ(zeros, ones) << at;
          EXPECT_EQ(zeros, want) << at;
          const auto [z, o] = UnderBothFills([&] {
            return CompressOmp<T>(data, p, nullptr, static_cast<int>(width));
          });
          EXPECT_EQ(z, o) << at;
          EXPECT_EQ(z, want) << at;
        }
        const auto [z, o] =
            UnderBothFills([&] { return cusim::CompressCuda<T>(data, p); });
        EXPECT_EQ(z, o) << what << " cusim";
        EXPECT_EQ(z, want) << what << " cusim";
      }
    }
  }
  EXPECT_TRUE(saw_raw);
  EXPECT_TRUE(saw_v2);
}

TYPED_TEST(FrameEncoderTypedTest, ContainerFinishWritesEveryByte) {
  using T = TypeParam;
  const std::vector<T> smooth = FieldNamed<T>("smooth_ragged");
  ASSERT_EQ(smooth.size(), kRagged);
  for (const bool integrity : {false, true}) {
    const auto [z, o] = UnderBothFills([&] {
      ContainerWriter w;
      ContainerWriter::FieldSpec spec;
      spec.name = "smooth";
      spec.params.block_size = kBs;
      spec.params.integrity = integrity;
      spec.elements_per_timestep = smooth.size();
      spec.chunk_elements = 256;
      const std::uint32_t field = w.AddField(
          spec, sizeof(T) == 4 ? DataType::kFloat32 : DataType::kFloat64);
      w.AppendTimestep<T>(field, smooth, 2);
      w.AppendTimestep<T>(field, smooth, 1);
      return w.Finish();
    });
    EXPECT_EQ(z, o) << "integrity=" << integrity;
  }
}

}  // namespace
}  // namespace szx
