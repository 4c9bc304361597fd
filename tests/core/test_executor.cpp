// Executor unit + property battery:
//   - task-count conservation under 100-seed randomized job graphs,
//   - exception propagation with every task still executing,
//   - nested ParallelFor degrading to inline execution, which still runs
//     every index after a throw,
//   - graceful shutdown while batches are in flight,
//   - FIFO order for every submitter, external or pool task,
//   - a waiting thread running only its own batch,
//   - race stress of tiny batches across 2..8 workers (also run under TSan),
//   - a counting-allocator proof that steady-state submission is
//     zero-heap-alloc (this binary owns the global operator new, so it must
//     stay separate from other suites, same as test_arena).
#include "core/executor.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

// GCC's -Wmismatched-new-delete pairs the inlined free() inside the
// counting operator delete below with calls to the counting operator new
// it chose not to inline, and reports a mismatch.  Both funnel through
// malloc/free, so the pairing is correct; silence the false positive for
// this binary only.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the global allocator.  Only the allocation count
// matters; the forms all funnel through malloc/free.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; pure allocation counter, sampled around joined Submit/Wait cycles
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; pure allocation counter, sampled around joined Submit/Wait cycles
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace szx::exec {
namespace {

void CountTask(void* ctx, std::uint64_t) {
  static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(
      1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
}

TEST(ExecutorConfig, ResolveThreads) {
  EXPECT_EQ(ResolveThreads(5), 5);
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_GE(ResolveThreads(-3), 1);
  EXPECT_GE(DefaultThreads(), 1);
}

// DefaultThreads and AvailableCpus must follow the affinity mask, not the
// machine: a process pinned to one CPU counts one even on a many-core box.
TEST(ExecutorConfig, DefaultThreadsFollowsAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int pinned_cpu = -1;
  for (int c = 0; c < CPU_SETSIZE && pinned_cpu < 0; ++c) {
    if (CPU_ISSET(c, &saved)) pinned_cpu = c;
  }
  ASSERT_GE(pinned_cpu, 0);
  const char* env = std::getenv("SZX_THREADS");
  const std::string saved_env = env != nullptr ? env : "";
  ASSERT_EQ(unsetenv("SZX_THREADS"), 0);

  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pinned_cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = DefaultThreads();
  const int pinned_cpus = AvailableCpus();
  // Restore both before asserting, so a failure cannot leak the pinning or
  // the missing variable into later tests.
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  if (env != nullptr) {
    ASSERT_EQ(setenv("SZX_THREADS", saved_env.c_str(), 1), 0);
  }
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(pinned_cpus, 1);
}

TEST(Executor, ParallelForRunsEveryIndexExactlyOnce) {
  Executor ex(4);
  constexpr std::uint64_t kN = 20000;
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  ex.ParallelFor(kN, [&](std::uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
  });
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u) << "index " << i;  // szx-mo: relaxed; read after the join that ordered the counts
  }
}

TEST(Executor, ZeroAndTinyCounts) {
  Executor ex(3);
  std::atomic<std::uint64_t> ran{0};
  ex.ParallelFor(0, CountTask, &ran);
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 0u);  // szx-mo: relaxed; read after the join that ordered the counts
  ex.ParallelFor(1, CountTask, &ran);
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1u);  // szx-mo: relaxed; read after the join that ordered the counts
  Executor::Batch b;
  ex.Submit(b, 0, CountTask, &ran);
  b.Wait();  // must not hang
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1u);  // szx-mo: relaxed; read after the join that ordered the counts
}

// 100-seed randomized job graphs: random worker counts, random batch fans,
// random task counts, overlapping in-flight batches.  The conserved
// quantity is the total number of task executions.
TEST(Executor, TaskCountConservationAcrossRandomJobGraphs) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 0xDA3E39CB94B95BDBULL;
    const auto rnd = [&s](std::uint64_t bound) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return (s >> 33) % bound;
    };
    Executor ex(static_cast<int>(1 + rnd(8)));
    std::atomic<std::uint64_t> ran{0};
    std::uint64_t expect = 0;
    constexpr std::size_t kMaxInFlight = 4;
    Executor::Batch batches[kMaxInFlight];
    const std::size_t rounds = 1 + rnd(3);
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::size_t fan = 1 + rnd(kMaxInFlight);
      for (std::size_t i = 0; i < fan; ++i) {
        const std::uint64_t n = rnd(3000);
        expect += n;
        ex.Submit(batches[i], n, CountTask, &ran);
      }
      for (std::size_t i = 0; i < fan; ++i) batches[i].Wait();
    }
    ASSERT_EQ(ran.load(std::memory_order_relaxed), expect) << "seed " << seed;  // szx-mo: relaxed; read after the join that ordered the counts
  }
}

TEST(Executor, ExceptionPropagatesAndEveryTaskStillRuns) {
  Executor ex(3);
  std::atomic<std::uint64_t> ran{0};
  constexpr std::uint64_t kN = 1000;
  EXPECT_THROW(ex.ParallelFor(kN,
                              [&](std::uint64_t i) {
                                ran.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
                                if (i == 137) throw Error("task 137 failed");
                              }),
               Error);
  // Conservation holds even with a failure latched: no task is skipped.
  EXPECT_EQ(ran.load(std::memory_order_relaxed), kN);  // szx-mo: relaxed; read after the join that ordered the counts
  // The batch error slot was consumed; the executor stays usable.
  ex.ParallelFor(kN, CountTask, &ran);
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 2 * kN);  // szx-mo: relaxed; read after the join that ordered the counts
}

TEST(Executor, MultipleFailuresLatchExactlyOne) {
  Executor ex(4);
  std::atomic<std::uint64_t> ran{0};
  try {
    ex.ParallelFor(512, [&](std::uint64_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
      if (i % 7 == 0) throw Error("multi-failure");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "multi-failure");
  }
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 512u);  // szx-mo: relaxed; read after the join that ordered the counts
}

TEST(Executor, NestedParallelForRunsInline) {
  Executor ex(2);
  std::atomic<std::uint64_t> ran{0};
  ex.ParallelFor(8, [&](std::uint64_t) {
    // Inside a pool task of the same executor: must not deadlock, must
    // execute every inner index.
    ex.ParallelFor(16, CountTask, &ran);
  });
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 8u * 16u);  // szx-mo: relaxed; read after the join that ordered the counts
}

TEST(Executor, NestedFacadeParallelFor) {
  std::atomic<std::uint64_t> ran{0};
  exec::ParallelFor(6, 4, [&](std::uint64_t) {
    exec::ParallelFor(10, 4, [&](std::uint64_t) {
      ran.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
    });
  });
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 60u);  // szx-mo: relaxed; read after the join that ordered the counts
}

// The nested inline loop keeps the facade's conservation contract: a throw
// at inner index 0 still leaves every inner index attempted.
TEST(Executor, NestedParallelForRunsEveryIndexAfterAThrow) {
  Executor ex(2);
  constexpr std::uint64_t kOuter = 4;
  constexpr std::uint64_t kInner = 16;
  std::atomic<std::uint64_t> attempted{0};
  auto outer = [&](std::uint64_t) {
    ex.ParallelFor(kInner, [&](std::uint64_t i) {
      attempted.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
      if (i == 0) throw Error("inner index 0 failed");
    });
  };
  Executor::Batch batch;
  ex.Submit(
      batch, kOuter,
      [](void* ctx, std::uint64_t i) {
        (*static_cast<decltype(outer)*>(ctx))(i);
      },
      &outer);
  // Poll instead of Wait: a waiting thread would help, and only nested
  // loops on pool workers are under test.
  while (!batch.Done()) std::this_thread::yield();
  EXPECT_THROW(batch.Wait(), Error);
  EXPECT_EQ(attempted.load(std::memory_order_relaxed), kOuter * kInner);  // szx-mo: relaxed; read after the join that ordered the counts
}

TEST(Executor, ShutdownWhileBusyDrainsAllWork) {
  std::atomic<std::uint64_t> ran{0};
  Executor::Batch batch;
  {
    auto ex = std::make_unique<Executor>(4);
    ex->Submit(batch, 5000, CountTask, &ran);
    // Destroy with the batch still (potentially) in flight: the graceful
    // drain contract says every queued task executes before workers exit.
    ex.reset();
  }
  batch.Wait();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 5000u);  // szx-mo: relaxed; read after the join that ordered the counts
}

TEST(Executor, SubmitWhileInFlightThrows) {
  Executor ex(2);
  Executor::Batch batch;
  std::atomic<int> gate{0};
  ex.Submit(
      batch, 1,
      [](void* ctx, std::uint64_t) {
        auto* g = static_cast<std::atomic<int>*>(ctx);
        while (g->load(std::memory_order_acquire) == 0) {  // szx-mo: acquire; pairs with the release store below so the spin exit observes the gate
          std::this_thread::yield();
        }
      },
      &gate);
  EXPECT_THROW(ex.Submit(batch, 1, CountTask, &gate), Error);
  gate.store(1, std::memory_order_release);  // szx-mo: release; pairs with the acquire spin inside the task
  batch.Wait();
}

// Appends tag * 10 + index to a shared log in execution order.
struct OrderLog {
  std::array<int, 6> seen{};
  std::atomic<int> next{0};
};
struct TaggedLog {
  OrderLog* log;
  int tag;
};

void RecordTask(void* ctx, std::uint64_t i) {
  auto* t = static_cast<TaggedLog*>(ctx);
  const int slot = t->log->next.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; slot allocation only, the batch join orders the writes for the reader
  t->log->seen[static_cast<std::size_t>(slot)] =
      t->tag * 10 + static_cast<int>(i);
}

TEST(Executor, ExternalSubmissionsRunInSubmissionOrder) {
  // Wedge the only worker on a gate task, queue batch A then batch B from
  // outside the pool, and release the gate: the worker must drain the
  // inbox oldest first.
  Executor ex(1);
  std::atomic<int> gate{0};  // 0 idle, 1 worker wedged, 2 released
  Executor::Batch wedge;
  ex.Submit(
      wedge, 1,
      [](void* ctx, std::uint64_t) {
        auto* g = static_cast<std::atomic<int>*>(ctx);
        g->store(1, std::memory_order_release);  // szx-mo: release; pairs with the submitter's acquire wait for the wedge
        while (g->load(std::memory_order_acquire) != 2) {  // szx-mo: acquire; pairs with the release store that opens the gate
          std::this_thread::yield();
        }
      },
      &gate);
  while (gate.load(std::memory_order_acquire) != 1) {  // szx-mo: acquire; pairs with the wedged task's release store
    std::this_thread::yield();
  }

  OrderLog log;
  TaggedLog a{&log, 1};
  TaggedLog b{&log, 2};
  Executor::Batch batch_a;
  Executor::Batch batch_b;
  ex.Submit(batch_a, 3, RecordTask, &a);
  ex.Submit(batch_b, 3, RecordTask, &b);
  gate.store(2, std::memory_order_release);  // szx-mo: release; pairs with the acquire spin inside the wedge task
  // Poll instead of Wait: a waiting thread claims its own batch's tasks,
  // and only the worker's order is under test.
  while (!batch_a.Done() || !batch_b.Done()) std::this_thread::yield();
  batch_a.Wait();
  batch_b.Wait();
  wedge.Wait();
  EXPECT_EQ(log.seen, (std::array<int, 6>{10, 11, 12, 20, 21, 22}));
}

// A waiting thread claims only its own batch's tasks: with every worker
// wedged and a foreign batch queued ahead of it, ParallelFor from this
// thread finishes on its own and leaves the foreign batch queued.
TEST(Executor, WaitRunsOnlyItsOwnBatch) {
  Executor ex(2);
  struct Gate {
    std::atomic<int> wedged{0};
    std::atomic<bool> release{false};
  } gate;
  Executor::Batch wedges;
  ex.Submit(
      wedges, static_cast<std::uint64_t>(ex.workers()),
      [](void* ctx, std::uint64_t) {
        auto* g = static_cast<Gate*>(ctx);
        g->wedged.fetch_add(1, std::memory_order_release);  // szx-mo: release; pairs with the test thread's acquire wait for every wedge
        while (!g->release.load(std::memory_order_acquire)) {  // szx-mo: acquire; pairs with the release store that opens the gate
          std::this_thread::yield();
        }
      },
      &gate);
  while (gate.wedged.load(std::memory_order_acquire) != ex.workers()) {  // szx-mo: acquire; pairs with each wedged task's release increment
    std::this_thread::yield();
  }

  std::atomic<std::uint64_t> foreign_ran{0};
  Executor::Batch foreign;
  ex.Submit(foreign, 3, CountTask, &foreign_ran);
  std::atomic<std::uint64_t> own_ran{0};
  ex.ParallelFor(64, CountTask, &own_ran);
  EXPECT_EQ(own_ran.load(std::memory_order_relaxed), 64u);  // szx-mo: relaxed; read after the join that ordered the counts
  EXPECT_FALSE(foreign.Done()) << "the waiting thread ran a foreign task";

  gate.release.store(true, std::memory_order_release);  // szx-mo: release; pairs with the acquire spin inside the wedge tasks
  wedges.Wait();
  foreign.Wait();
  EXPECT_EQ(foreign_ran.load(std::memory_order_relaxed), 3u);  // szx-mo: relaxed; read after the join that ordered the counts
}

// One ordering rule for every submitter: a batch submitted from inside a
// pool task drains oldest first, like an external submission.
TEST(Executor, SubmissionsFromAPoolTaskRunInOrder) {
  Executor ex(1);
  OrderLog log;
  TaggedLog tagged{&log, 0};
  Executor::Batch inner;
  auto submit_inner = [&](std::uint64_t) {
    ex.Submit(inner, 3, RecordTask, &tagged);  // returns without waiting
  };
  Executor::Batch outer;
  ex.Submit(
      outer, 1,
      [](void* ctx, std::uint64_t i) {
        (*static_cast<decltype(submit_inner)*>(ctx))(i);
      },
      &submit_inner);
  // Poll instead of Wait so only the worker runs tasks.  outer is done only
  // after its task submitted inner, so inner.Done() is meaningful after.
  while (!outer.Done()) std::this_thread::yield();
  while (!inner.Done()) std::this_thread::yield();
  outer.Wait();
  inner.Wait();
  ASSERT_EQ(log.next.load(std::memory_order_relaxed), 3);  // szx-mo: relaxed; read after the join that ordered the counts
  EXPECT_EQ(log.seen[0], 0);
  EXPECT_EQ(log.seen[1], 1);
  EXPECT_EQ(log.seen[2], 2);
}

TEST(Executor, BatchIsReusableAfterWait) {
  Executor ex(3);
  Executor::Batch batch;
  std::atomic<std::uint64_t> ran{0};
  for (int round = 0; round < 50; ++round) {
    ex.Submit(batch, 64, CountTask, &ran);
    batch.Wait();
  }
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 50u * 64u);  // szx-mo: relaxed; read after the join that ordered the counts
}

// Race stress: many tiny batches against 2..8 workers, so workers and the
// helping caller contend for the inbox on every claim.  Run under TSan by
// the tsan-omp tier; conservation is the checked invariant here.
TEST(Executor, StealRaceStress) {
  for (int workers : {2, 3, 4, 8}) {
    Executor ex(workers);
    std::atomic<std::uint64_t> ran{0};
    std::uint64_t expect = 0;
    for (std::uint64_t round = 0; round < 200; ++round) {
      const std::uint64_t n = 1 + (round * 37) % 64;
      expect += n;
      ex.ParallelFor(n, CountTask, &ran);
    }
    ASSERT_EQ(ran.load(std::memory_order_relaxed), expect) << "workers " << workers;  // szx-mo: relaxed; read after the join that ordered the counts
  }
}

TEST(Executor, ConcurrentExternalSubmitters) {
  Executor ex(4);
  std::atomic<std::uint64_t> ran{0};
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 50;
  constexpr std::uint64_t kN = 100;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&ex, &ran] {
      for (int r = 0; r < kRounds; ++r) ex.ParallelFor(kN, CountTask, &ran);
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), static_cast<std::uint64_t>(kSubmitters) * kRounds * kN);  // szx-mo: relaxed; read after the join that ordered the counts
}

TEST(Executor, WorkerScratchIsUsablePerTask) {
  Executor ex(4);
  std::atomic<std::uint64_t> ok{0};
  ex.ParallelFor(64, [&](std::uint64_t i) {
    ScratchArena& arena = Executor::WorkerScratch();
    arena.Reset();
    auto span = arena.AllocateSpan<std::uint64_t>(128);
    for (std::uint64_t& v : span) v = i;
    std::uint64_t sum = 0;
    for (const std::uint64_t v : span) sum += v;
    if (sum == 128 * i) ok.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
  });
  EXPECT_EQ(ok.load(std::memory_order_relaxed), 64u);  // szx-mo: relaxed; read after the join that ordered the counts
  // External (non-worker) threads get a usable thread_local fallback.
  ScratchArena& external = Executor::WorkerScratch();
  external.Reset();
  EXPECT_EQ(external.AllocateSpan<float>(16).size(), 16u);
}

// Once warm, Submit/Wait cycles perform zero heap allocations -- a batch
// carries its own claim cursor, the inbox sits at its high-water capacity,
// and parking uses mutex/cv only.
TEST(Executor, SteadyStateSubmissionIsZeroHeapAlloc) {
  Executor ex(4);
  std::atomic<std::uint64_t> ran{0};
  Executor::Batch batch;
  for (int warm = 0; warm < 50; ++warm) {
    ex.Submit(batch, 256, CountTask, &ran);
    batch.Wait();
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);  // szx-mo: relaxed; sampled between joined Submit/Wait cycles, the joins order the counts
  for (int round = 0; round < 50; ++round) {
    ex.Submit(batch, 256, CountTask, &ran);
    batch.Wait();
  }
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);  // szx-mo: relaxed; sampled between joined Submit/Wait cycles, the joins order the counts
  EXPECT_EQ(after - before, 0u)
      << "steady-state Submit/Wait must not touch the heap";
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 100u * 256u);  // szx-mo: relaxed; read after the join that ordered the counts
}

// The facade must conserve tasks and propagate failures on the pool, its
// one backend.
TEST(Facade, ConservationAndErrorsOnEveryBackend) {
  std::atomic<std::uint64_t> ran{0};
  exec::ParallelFor(4096, 4, [&](std::uint64_t) {
    ran.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
  });
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 4096u);  // szx-mo: relaxed; read after the join that ordered the counts

  std::atomic<std::uint64_t> attempted{0};
  EXPECT_THROW(
      exec::ParallelFor(512, 4,
                        [&](std::uint64_t i) {
                          attempted.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
                          if (i == 99) throw Error("facade failure");
                        }),
      Error);
  EXPECT_EQ(attempted.load(std::memory_order_relaxed), 512u);  // szx-mo: relaxed; read after the join that ordered the counts
}

TEST(Facade, SerialWidthRunsInline) {
  std::atomic<std::uint64_t> ran{0};
  exec::ParallelFor(1000, 1, [&](std::uint64_t) {
    ran.fetch_add(1, std::memory_order_relaxed);  // szx-mo: relaxed; conservation counter -- the batch join/thread join before every assert supplies the happens-before edge
  });
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1000u);  // szx-mo: relaxed; read after the join that ordered the counts
}

}  // namespace
}  // namespace szx::exec
