// Persistent FIFO executor -- the parallel substrate behind every
// multi-threaded codec path (the SZx frame codec in compressor.cpp and
// frame_encoder.hpp, resilience/salvage.cpp, container ROI decode) and the
// szx-serve worker pool.
//
// Why not fork-join: every OpenMP `parallel for` pays thread wake-up and a
// region-end barrier per call, which dominates small frames and makes
// compute/I-O overlap impossible (a region cannot outlive its call).  The
// Executor keeps its workers alive across jobs: submission appends work to
// one mutex-guarded run queue, idle workers park on a condition variable,
// and each worker owns a ScratchArena that is reused job after job, so
// steady-state submission performs no heap allocation (asserted by
// tests/core/test_executor.cpp with a counting allocator).
//
// There is one parallel substrate: every exec::ParallelFor region runs on
// the process-wide pool below.  The correctness contract -- enforced by
// the `executor` CTest tier across the SZX_KERNEL x thread-count matrix --
// is that every stream is byte-identical to serial output for any thread
// count.
//
// Concurrency model (see docs/performance.md for the full design):
//   - One Batch = one submission of n independent tasks fn(ctx, 0..n-1).
//     The batch hands out its own indices through a claim cursor, so
//     submission allocates nothing and a Batch is a few cache lines.
//   - Every Submit, from any thread, appends its batch to the inbox, the
//     only run queue.  A worker claims the next index of the oldest batch
//     under the inbox mutex, and a batch leaves the inbox with its last
//     index, so work starts in submission order (a server's queued job
//     never overtakes an older one).  Nested parallelism runs inline, so
//     the pool never sees recursive fork-join and needs no per-worker
//     queues.
//   - Batch::Wait lets the calling thread claim its own batch's pending
//     indices instead of blocking, so a 1-worker pool still runs 2-wide.
//     It never runs another batch's task: a caller's latency holds only
//     its own work, and no foreign task re-enters the caller's code.
//   - Exceptions are latched per batch (first failure wins, every task
//     still runs -- task-count conservation) and rethrown from Wait.
//   - Destruction is graceful: queued work drains before workers exit.
//
// Thread-safety contracts are annotated for clang's -Wthread-safety (the
// `clang-tsa` preset; no-ops under GCC): every mutex-guarded field carries
// SZX_GUARDED_BY and every function that must / must not hold a lock says
// so.  The one lock-free counter, Batch::unfinished_, is outside what TSA
// can model; its happens-before edges are documented site by site with
// `szx-mo:` justifications that szx_lint's memory-order audit enforces.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/annotations.hpp"
#include "core/arena.hpp"
#include "core/common.hpp"
#include "core/sync.hpp"

namespace szx::exec {

/// CPUs the calling thread may run on: the size of its affinity mask (so a
/// `taskset -c 0` run counts one), else std::thread::hardware_concurrency,
/// and at least 1.
[[nodiscard]] int AvailableCpus();

/// Thread count used when a caller passes num_threads <= 0: SZX_THREADS if
/// set, else AvailableCpus().
[[nodiscard]] int DefaultThreads();

/// requested > 0 ? requested : DefaultThreads().
[[nodiscard]] int ResolveThreads(int requested);

/// Type-erased task body: fn(ctx, index) for index in [0, n).
using TaskFn = void (*)(void* ctx, std::uint64_t index);

/// Cooperative cancellation for parallel regions (the executor hook the
/// serve daemon's per-request deadlines ride on).  A token is armed either
/// explicitly (Cancel) or by a steady-clock deadline (CancelAt); once a
/// ScopedCancel installs it on a thread, every ParallelForImpl dispatched
/// from that thread checks it at task granularity and unwinds the whole
/// region with szx::Cancelled -- which means a chunked decode abandons work
/// at the next chunk boundary instead of running to completion.
///
/// Thread safety: Cancel/CancelAt/cancelled may race freely (atomics); a
/// token must outlive every region that can observe it.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms the token immediately.  Idempotent; callable from any thread.
  void Cancel() noexcept {
    // szx-mo: release pairs with the acquire load in cancelled(), so a
    // worker that observes true also observes everything the cancelling
    // thread wrote before Cancel (e.g. the reason a job was abandoned).
    cancelled_.store(true, std::memory_order_release);
  }

  /// Arms the token once the steady clock passes `deadline`.  A zero
  /// time_point (the default state) means "no deadline".
  void CancelAt(std::chrono::steady_clock::time_point deadline) noexcept {
    // szx-mo: release for the same publish contract as Cancel(); readers
    // acquire the value in cancelled() before comparing against now().
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }

  /// True once Cancel was called or the deadline passed.
  [[nodiscard]] bool cancelled() const noexcept {
    // szx-mo: acquire pairs with the release store in Cancel (see there).
    if (cancelled_.load(std::memory_order_acquire)) return true;
    // szx-mo: acquire pairs with the release store in CancelAt; observing a
    // nonzero deadline happens-after it was armed.
    const std::int64_t d = deadline_ns_.load(std::memory_order_acquire);
    return d != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

  /// Throws szx::Cancelled when the token is armed; the cooperative check
  /// cancellable loops call at each unit of work.
  void ThrowIfCancelled() const;

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock ns-since-epoch of the deadline; 0 = no deadline armed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

/// The cancel token governing parallel work dispatched from the current
/// thread, or nullptr (the default: nothing is cancellable).
[[nodiscard]] const CancelToken* CurrentCancelToken() noexcept;

/// RAII installation of a CancelToken on the current thread.  Regions
/// dispatched while the scope is alive (including from pool workers running
/// tasks of those regions) observe the token; scopes nest, restoring the
/// previous token on destruction.  Passing nullptr shields an inner region
/// from an outer token.
class ScopedCancel {
 public:
  explicit ScopedCancel(const CancelToken* token) noexcept;
  ~ScopedCancel();
  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;

 private:
  const CancelToken* prev_ = nullptr;
};

class Executor {
 public:
  /// Safety cap on worker threads (oversubscription beyond this measures
  /// nothing and only burns memory).
  static constexpr int kMaxWorkers = 64;

  /// workers <= 0 picks DefaultThreads(); clamped to [1, kMaxWorkers].
  explicit Executor(int workers = 0);

  /// Graceful: drains every queued task, then joins all workers.  Must not
  /// race Submit/Wait calls from other threads (external synchronization,
  /// as for any destructor); batches submitted before destruction begin are
  /// guaranteed complete when it returns.
  ~Executor() SZX_EXCLUDES(m_);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// One submission of n independent tasks.  Stack-allocatable and
  /// reusable: Submit may be called again once Wait has returned.
  class Batch {
   public:
    Batch() = default;
    /// Blocks (without helping) if the batch is still in flight; a batch
    /// must not be destroyed before its tasks finish.
    ~Batch() SZX_EXCLUDES(m_);
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// True once every task has run (the completion signal may still be in
    /// flight; Wait() is the synchronizing call).
    [[nodiscard]] bool Done() const {
      // szx-mo: acquire pairs with the acq_rel fetch_sub in Run, so
      // a zero read here happens-after every task body that decremented.
      return unfinished_.load(std::memory_order_acquire) == 0;
    }

    /// Runs this batch's unclaimed tasks on the calling thread, then blocks
    /// until the claimed ones finish.  Rethrows the first task exception.
    void Wait() SZX_EXCLUDES(m_);

   private:
    friend class Executor;

    void Run(std::uint64_t i) SZX_EXCLUDES(m_);
    void BlockUntilSignalled() SZX_EXCLUDES(m_);

    Executor* owner_ = nullptr;
    TaskFn fn_ = nullptr;
    void* ctx_ = nullptr;
    /// Task count and next unclaimed index (Executor::Claim).
    std::uint64_t n_ SZX_SYNCHRONIZED_BY(owner_inbox_mutex) = 0;
    std::uint64_t next_ SZX_SYNCHRONIZED_BY(owner_inbox_mutex) = 0;
    std::atomic<std::uint64_t> unfinished_{0};
    sync::Mutex m_;
    sync::CondVar cv_;
    bool signalled_ SZX_GUARDED_BY(m_) = true;
    /// First task failure (latched; later ones are dropped).
    std::exception_ptr error_ SZX_GUARDED_BY(m_);
  };

  /// Enqueues n tasks without blocking (the caller joins via batch.Wait()).
  /// The batch must be idle; throws szx::Error after shutdown began.
  /// n == 0 completes immediately.
  void Submit(Batch& batch, std::uint64_t n, TaskFn fn, void* ctx)
      SZX_EXCLUDES(m_);

  /// Submit + help + Wait.  Called from inside one of this executor's own
  /// tasks it degrades to an inline serial loop (nested parallelism keeps
  /// correctness, not extra width): every index still runs and the first
  /// exception is rethrown.
  void ParallelFor(std::uint64_t n, TaskFn fn, void* ctx);

  template <typename F>
  void ParallelFor(std::uint64_t n, F&& f) {
    using Fn = std::remove_reference_t<F>;
    ParallelFor(
        n,
        [](void* ctx, std::uint64_t i) { (*static_cast<Fn*>(ctx))(i); },
        const_cast<std::remove_const_t<Fn>*>(std::addressof(f)));
  }

  /// Scratch arena of the current pool worker, or a thread_local fallback
  /// on non-pool threads.  Reused across jobs (same ownership rules as any
  /// ScratchArena: single thread, contents invalidated by Reset).
  static ScratchArena& WorkerScratch();

  /// Process-wide pool used by the ParallelFor facade below.  Constructed
  /// on first use, drained and joined at process exit.
  static Executor& Default();

 private:
  struct Worker;

  // Current pool worker of *some* executor on this thread, or nullptr.
  static Worker*& TlsWorker();

  void WorkerLoop(Worker& w) SZX_EXCLUDES(m_);
  // Claims b's next index; b must have one, and leaves the inbox with its
  // last.
  std::uint64_t Claim(Batch& b) SZX_REQUIRES(m_);
  void HelpUntilDone(Batch& b) SZX_EXCLUDES(m_);

  std::vector<std::unique_ptr<Worker>> workers_;
  sync::Mutex m_;
  sync::CondVar cv_;
  /// Batches with unclaimed indices, oldest first.
  std::vector<Batch*> inbox_ SZX_GUARDED_BY(m_);
  int idlers_ SZX_GUARDED_BY(m_) = 0;
  bool stop_ SZX_GUARDED_BY(m_) = false;
};

/// Parallel loop on Executor::Default(): runs fn(ctx, i) for i in [0, n)
/// exactly once each.  max_threads only decides serial vs parallel: a
/// width of 1 (or n <= 1) runs inline, anything wider hands the n tasks to
/// however many pool workers exist -- callers control granularity via n.
/// max_threads <= 0 resolves via DefaultThreads().
/// Every task runs even if one throws; the first exception is rethrown.
///
/// Cancellation: when the calling thread carries a CancelToken (ScopedCancel
/// above), every task body first checks it -- an armed token makes each
/// remaining task throw szx::Cancelled immediately, so the region drains at
/// task granularity and Cancelled is rethrown to the caller.  The token also
/// propagates onto the worker running each task, so nested parallel loops
/// inside task bodies stay cancellable.
void ParallelForImpl(std::uint64_t n, int max_threads, TaskFn fn, void* ctx);

template <typename F>
void ParallelFor(std::uint64_t n, int max_threads, F&& f) {
  using Fn = std::remove_reference_t<F>;
  ParallelForImpl(
      n, max_threads,
      [](void* ctx, std::uint64_t i) { (*static_cast<Fn*>(ctx))(i); },
      const_cast<std::remove_const_t<Fn>*>(std::addressof(f)));
}

}  // namespace szx::exec
