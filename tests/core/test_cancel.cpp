// Cooperative-cancellation unit tests: CancelToken semantics, ScopedCancel
// nesting, and the ParallelFor unwind contract on the pool.
#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/executor.hpp"

namespace szx::exec {
namespace {

TEST(CancelToken, DefaultIsNotCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.ThrowIfCancelled());
}

TEST(CancelToken, CancelArmsImmediately) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.ThrowIfCancelled(), Cancelled);
  // Cancelled is an Error: generic failure handling still catches it.
  EXPECT_THROW(token.ThrowIfCancelled(), Error);
}

TEST(CancelToken, DeadlineArmsWhenTheClockPasses) {
  CancelToken token;
  token.CancelAt(std::chrono::steady_clock::now() +
                 std::chrono::hours(24));
  EXPECT_FALSE(token.cancelled());
  token.CancelAt(std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1));
  EXPECT_TRUE(token.cancelled());
}

TEST(ScopedCancel, InstallsAndRestoresNested) {
  EXPECT_EQ(CurrentCancelToken(), nullptr);
  CancelToken outer;
  CancelToken inner;
  {
    ScopedCancel a(&outer);
    EXPECT_EQ(CurrentCancelToken(), &outer);
    {
      ScopedCancel b(&inner);
      EXPECT_EQ(CurrentCancelToken(), &inner);
      {
        // nullptr shields an inner region from the outer token.
        ScopedCancel shield(nullptr);
        EXPECT_EQ(CurrentCancelToken(), nullptr);
      }
      EXPECT_EQ(CurrentCancelToken(), &inner);
    }
    EXPECT_EQ(CurrentCancelToken(), &outer);
  }
  EXPECT_EQ(CurrentCancelToken(), nullptr);
}

TEST(CancelParallelFor, PreArmedTokenRunsNoTasks) {
  CancelToken token;
  token.Cancel();
  ScopedCancel scope(&token);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(256, 4,
                  [&](std::uint64_t) {
                    // szx-mo: relaxed; test-only tally, the join is the ordering
                    ran.fetch_add(1, std::memory_order_relaxed);
                  }),
      Cancelled);
  // szx-mo: relaxed; test-only tally, the join is the ordering
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 0);
}

TEST(CancelParallelFor, MidRegionCancelUnwindsEarly) {
  CancelToken token;
  ScopedCancel scope(&token);
  std::atomic<int> ran{0};
  constexpr int kTasks = 4096;
  EXPECT_THROW(
      ParallelFor(kTasks, 4,
                  [&](std::uint64_t i) {
                    if (i == 0) token.Cancel();  // first task pulls the plug
                    // szx-mo: relaxed; test-only tally, the join is the ordering
                    ran.fetch_add(1, std::memory_order_relaxed);
                  }),
      Cancelled);
  // Tasks already past their check complete (task-count conservation for
  // the in-flight ones), but the region must not run to completion.
  // szx-mo: relaxed; test-only tally, the join is the ordering
  EXPECT_LT(ran.load(std::memory_order_relaxed), kTasks);
}

TEST(CancelParallelFor, NoTokenMeansNoOverheadPath) {
  ASSERT_EQ(CurrentCancelToken(), nullptr);
  std::atomic<int> ran{0};
  ParallelFor(128, 4, [&](std::uint64_t) {
    // szx-mo: relaxed; test-only tally, the join is the ordering
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  // szx-mo: relaxed; test-only tally, the join is the ordering
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 128);
}

TEST(CancelParallelFor, TokenPropagatesIntoNestedRegions) {
  CancelToken token;
  ScopedCancel scope(&token);
  std::atomic<int> inner_ran{0};
  EXPECT_THROW(
      ParallelFor(8, 2,
                  [&](std::uint64_t i) {
                    if (i == 0) token.Cancel();
                    // Nested region on a worker thread: the adapter must
                    // have re-installed the token there, so this region is
                    // cancellable too (and with the token armed, it throws
                    // before running anything).
                    ParallelFor(64, 2, [&](std::uint64_t) {
                      // szx-mo: relaxed; test-only tally, the join is the ordering
                      inner_ran.fetch_add(1, std::memory_order_relaxed);
                    });
                  }),
      Cancelled);
  // szx-mo: relaxed; test-only tally, the join is the ordering
  EXPECT_LT(inner_ran.load(std::memory_order_relaxed), 8 * 64);
}

TEST(CancelParallelFor, ExternalThreadCanCancel) {
  CancelToken token;
  ScopedCancel scope(&token);
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    // szx-mo: acquire; pairs with the release store in the region body
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    token.Cancel();
  });
  try {
    ParallelFor(1u << 20, 4, [&](std::uint64_t) {
      // szx-mo: release; publishes started to the canceller's acquire spin
      started.store(true, std::memory_order_release);
    });
    // Completing without the cancel landing is legal (tiny tasks may finish
    // first); the contract under test is "no crash, no deadlock, and if it
    // throws, it throws Cancelled".
  } catch (const Cancelled&) {
  }
  canceller.join();
}

}  // namespace
}  // namespace szx::exec
