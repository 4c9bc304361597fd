// ScratchArena unit tests plus the PR's acceptance property: after a warm-up
// call or two, CompressInto performs zero heap allocations.  The property is
// asserted with a counting global operator new/delete, so this test must stay
// in its own binary (other suites' fixtures would inflate the counters).
#include "core/arena.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/compressor.hpp"
#include "core/omp_codec.hpp"
#include "../test_util.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the global allocator.  Only the allocation count
// matters; the forms all funnel through malloc/free.  They stay out of line:
// GCC's -Wmismatched-new-delete otherwise pairs an inlined free or
// ::operator new with the caller's new[] / delete[] and reports a mismatch
// that is not there.
[[gnu::noinline]]
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; pure allocation counter, single-threaded sampling around the calls under test
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]]
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]]
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; pure allocation counter, single-threaded sampling around the calls under test
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]]
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
[[gnu::noinline]]
void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]]
void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]]
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]]
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]]
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]]
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]]
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]]
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace szx {
namespace {

TEST(ScratchArena, AllocateRespectsAlignment) {
  ScratchArena arena;
  for (std::size_t align : {1u, 2u, 8u, 32u, 64u}) {
    std::byte* p = arena.Allocate(13, align);
    // szx-lint: allow(reinterpret-cast) -- address-to-integer only, to assert the alignment contract
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
  }
  EXPECT_THROW(arena.Allocate(8, 3), Error);
  EXPECT_THROW(arena.Allocate(8, 0), Error);
}

TEST(ScratchArena, PointersStayValidUntilReset) {
  // Force several chunk spills; earlier pointers must remain dereferenceable.
  ScratchArena arena(64);
  std::vector<std::byte*> ptrs;
  for (int i = 0; i < 20; ++i) {
    std::byte* p = arena.Allocate(100);
    p[0] = std::byte{static_cast<unsigned char>(i)};
    p[99] = std::byte{static_cast<unsigned char>(i + 1)};
    ptrs.push_back(p);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ptrs[i][0], std::byte{static_cast<unsigned char>(i)});
    EXPECT_EQ(ptrs[i][99], std::byte{static_cast<unsigned char>(i + 1)});
  }
}

TEST(ScratchArena, AllocateSpanTypes) {
  ScratchArena arena;
  auto u16 = arena.AllocateSpan<std::uint16_t>(33);
  auto f64 = arena.AllocateSpan<double>(7);
  EXPECT_EQ(u16.size(), 33u);
  EXPECT_EQ(f64.size(), 7u);
  // szx-lint: allow(reinterpret-cast) -- address-to-integer only, to assert the alignment contract
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f64.data()) % alignof(double), 0u);
  EXPECT_TRUE(arena.AllocateSpan<float>(0).empty());
  EXPECT_THROW(arena.AllocateSpan<double>(SIZE_MAX / 2), Error);
}

TEST(ScratchArena, ResetCoalescesToSteadyState) {
  ScratchArena arena;
  auto churn = [&arena] {
    arena.Reset();
    for (int i = 0; i < 8; ++i) arena.Allocate(3000);
  };
  churn();  // cold: several chunk spills
  churn();  // warm-up: coalesced chunk may still be one spill short
  const std::size_t warm = arena.HeapAllocations();
  for (int round = 0; round < 5; ++round) churn();
  EXPECT_EQ(arena.HeapAllocations(), warm)
      << "steady-state churn must not allocate";
  EXPECT_GE(arena.Capacity(), 8u * 3000u);
}

TEST(ScratchArena, UsedTracksBumpAndWaste) {
  ScratchArena arena;
  EXPECT_EQ(arena.Used(), 0u);
  arena.Allocate(100, 1);
  EXPECT_GE(arena.Used(), 100u);
  arena.Reset();
  EXPECT_EQ(arena.Used(), 0u);
}

TEST(ScratchArena, MoveTransfersOwnership) {
  ScratchArena a(256);
  std::byte* p = a.Allocate(16);
  p[0] = std::byte{42};
  ScratchArena b = std::move(a);
  EXPECT_EQ(p[0], std::byte{42});
  EXPECT_GE(b.Capacity(), 256u);
}

TEST(ScratchArena, CompressIntoIsAllocationFreeWhenWarm) {
  const auto data =
      testing::MakePattern<float>(testing::Pattern::kNoisySine, 40000, 3);
  Params params;  // REL 1e-3, block 128, Solution C
  ScratchArena arena;
  CompressionStats stats;

  // Warm-up: two calls let the arena coalesce to its high-water chunk and
  // any thread_local scratch inside the codec reach steady size.
  const ByteSpan first = CompressInto<float>(data, params, arena, &stats);
  const ByteBuffer expect(first.begin(), first.end());
  (void)CompressInto<float>(data, params, arena, &stats);

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);  // szx-mo: relaxed; single-threaded sample
  const ByteSpan frame = CompressInto<float>(data, params, arena, &stats);
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);  // szx-mo: relaxed; single-threaded sample
  EXPECT_EQ(after - before, 0u)
      << "steady-state CompressInto must not touch the heap";

  // The zero-allocation path must still produce the exact same stream.
  ASSERT_EQ(frame.size(), expect.size());
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), expect.begin()));
  const auto recon = Decompress<float>(frame);
  EXPECT_EQ(recon.size(), data.size());
}

TEST(ScratchArena, CompressIntoStaysWarmAcrossBounds) {
  // Changing the error bound changes section sizes but not the worst case;
  // a warmed arena must absorb all of them without allocating.
  const auto data =
      testing::MakePattern<float>(testing::Pattern::kMixedScales, 20000, 9);
  ScratchArena arena;
  Params params;
  for (double eb : {1e-2, 1e-3, 1e-4}) {
    params.error_bound = eb;
    (void)CompressInto<float>(data, params, arena);
    (void)CompressInto<float>(data, params, arena);
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);  // szx-mo: relaxed; single-threaded sample
  for (double eb : {1e-2, 1e-3, 1e-4}) {
    params.error_bound = eb;
    (void)CompressInto<float>(data, params, arena);
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);  // szx-mo: relaxed; single-threaded sample
}

// A request that misses the current chunk while over half of it is still
// free gets a chunk of its own; the requests after it keep filling the
// current chunk instead of a new one sized to the whole arena.
TEST(ScratchArena, OversizedRequestLeavesTheChunkInUse) {
  ScratchArena arena(64 * 1024);
  (void)arena.Allocate(1024);
  const std::size_t capacity = arena.Capacity();
  const std::size_t allocations = arena.HeapAllocations();
  (void)arena.Allocate(100 * 1024);
  EXPECT_EQ(arena.Capacity(),
            capacity + 100 * 1024 + alignof(std::max_align_t));
  (void)arena.Allocate(32 * 1024);
  EXPECT_EQ(arena.HeapAllocations(), allocations + 1);
  arena.Reset();
  EXPECT_LE(arena.Capacity(), 140u * 1024u);
  (void)arena.Allocate(1024);
  (void)arena.Allocate(100 * 1024);
  (void)arena.Allocate(32 * 1024);
  EXPECT_EQ(arena.HeapAllocations(), allocations + 2)
      << "the coalesced chunk holds the whole call";
}

// A call that outgrows a warm arena spills to a new chunk; the next Reset
// coalesces to what the calls used, not to the abandoned chunk's full size.
// Warmed on half a field, then run once on the whole field and once on the
// half again, the arena ends within a page of one warmed on the whole field
// alone, and both sizes then run without touching the heap.
TEST(ScratchArena, SpillCoalescesToTheUsedBytesOnly) {
  const auto data =
      testing::MakePattern<float>(testing::Pattern::kNoisySine, 400000, 7);
  const std::span<const float> full(data);
  const std::span<const float> half = full.first(full.size() / 2);
  Params params;
  ScratchArena full_only;
  (void)CompressInto<float>(full, params, full_only);
  (void)CompressInto<float>(full, params, full_only);

  ScratchArena mixed;
  (void)CompressInto<float>(half, params, mixed);
  (void)CompressInto<float>(half, params, mixed);
  const std::size_t half_capacity = mixed.Capacity();
  (void)CompressInto<float>(full, params, mixed);
  (void)CompressInto<float>(half, params, mixed);
  ASSERT_GT(full_only.Capacity(), half_capacity);
  EXPECT_LE(mixed.Capacity(), full_only.Capacity() + 4096);
  EXPECT_GE(mixed.Capacity() + 4096, full_only.Capacity());

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);  // szx-mo: relaxed; single-threaded sample
  (void)CompressInto<float>(full, params, mixed);
  (void)CompressInto<float>(half, params, mixed);
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);  // szx-mo: relaxed; single-threaded sample
}

// Every other entry point is the same chunked codec: once warm, a compress
// allocates only the ByteBuffer it returns and a decode into a caller's
// span allocates nothing, at width 1 and width 4 alike.
TEST(ScratchArena, ChunkedCodecAllocatesOnlyItsFrameWhenWarm) {
  const auto data =
      testing::MakePattern<float>(testing::Pattern::kNoisySine, 40000, 5);
  Params params;
  const ByteBuffer stream = Compress<float>(data, params);
  std::vector<float> out(data.size());
  const auto count_news = [](auto&& call) {
    call();
    call();
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);  // szx-mo: relaxed; sampled around joined calls, the joins order the counts
    call();
    return g_news.load(std::memory_order_relaxed) - before;  // szx-mo: relaxed; sampled around joined calls, the joins order the counts
  };
  EXPECT_EQ(count_news([&] { (void)Compress<float>(data, params); }), 1u);
  EXPECT_EQ(count_news([&] {
              DecompressInto<float>(stream, std::span<float>(out));
            }),
            0u);
  for (const int w : {1, 4}) {
    EXPECT_EQ(count_news([&] {
                (void)CompressOmp<float>(data, params, nullptr, w);
              }),
              1u)
        << w << " threads";
    EXPECT_EQ(count_news([&] {
                DecompressOmpInto<float>(stream, std::span<float>(out), w);
              }),
              0u)
        << w << " threads";
  }
}

}  // namespace
}  // namespace szx
