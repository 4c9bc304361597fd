// Implementation of the persistent FIFO executor and the ParallelFor
// facade over it.  See executor.hpp for the model.
//
// Every std::memory_order below carries a `szx-mo:` happens-before
// justification; szx_lint's memory-order audit refuses an unjustified
// order, so weakening one is impossible without writing down why the
// weaker order still synchronizes.  Lock-based state goes through the
// annotated sync::Mutex/MutexLock/CondVar wrappers so clang -Wthread-safety
// (the clang-tsa preset) checks the locking contracts declared in
// executor.hpp.
#include "core/executor.hpp"

#include <algorithm>
#include <cstdlib>

#if defined(__linux__)
#include <sched.h>
#endif

namespace szx::exec {

namespace {

// Parses a positive integer environment variable; 0 when unset/invalid.
int PositiveEnvInt(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0 || v > 1 << 20) return 0;
  return static_cast<int>(v);
}

// Serial loop with parallel-identical semantics: every index runs, the
// first exception is rethrown at the end.
void SerialFor(std::uint64_t n, TaskFn fn, void* ctx) {
  std::exception_ptr first;
  for (std::uint64_t i = 0; i < n; ++i) {
    try {
      fn(ctx, i);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace

int AvailableCpus() {
#if defined(__linux__)
  // The affinity mask, not the machine: a process pinned with taskset or a
  // cgroup cpuset must not start more workers than it has cores.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    if (const int n = CPU_COUNT(&set); n > 0) return n;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int DefaultThreads() {
  if (const int v = PositiveEnvInt("SZX_THREADS"); v > 0) return v;
  return AvailableCpus();
}

int ResolveThreads(int requested) {
  return requested > 0 ? requested : DefaultThreads();
}

struct Executor::Worker {
  Executor* exec = nullptr;
  ScratchArena arena;
  std::thread thread;  // started last, joined in ~Executor
};

Executor::Worker*& Executor::TlsWorker() {
  static thread_local Worker* w = nullptr;
  return w;
}

Executor::Executor(int workers) {
  const int n = std::clamp(workers > 0 ? workers : DefaultThreads(), 1,
                           kMaxWorkers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* w = workers_.back().get();
    w->exec = this;
    w->thread = std::thread([this, w] { WorkerLoop(*w); });
  }
}

Executor::~Executor() {
  {
    sync::MutexLock lock(m_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Executor::WorkerLoop(Worker& w) {
  TlsWorker() = &w;
  for (;;) {
    Batch* b = nullptr;
    std::uint64_t i = 0;
    {
      sync::MutexLock lock(m_);
      ++idlers_;
      while (!stop_ && inbox_.empty()) cv_.Wait(lock);
      --idlers_;
      if (inbox_.empty()) break;  // stop_ set and the inbox drained: graceful exit
      b = inbox_.front();
      i = Claim(*b);
    }
    b->Run(i);
  }
  TlsWorker() = nullptr;
}

std::uint64_t Executor::Claim(Batch& b) {
  const std::uint64_t i = b.next_++;
  if (b.next_ == b.n_) {
    inbox_.erase(std::find(inbox_.begin(), inbox_.end(), &b));
  }
  return i;
}

void Executor::Submit(Batch& batch, std::uint64_t n, TaskFn fn, void* ctx) {
  // szx-mo: acquire pairs with Run's acq_rel decrement to zero, so reusing
  // an idle batch happens-after its previous tasks fully finished.
  if (batch.unfinished_.load(std::memory_order_acquire) != 0) {
    throw Error("Executor::Submit: batch is still in flight");
  }
  batch.owner_ = this;
  batch.fn_ = fn;
  batch.ctx_ = ctx;
  {
    sync::MutexLock lock(batch.m_);
    batch.error_ = nullptr;
    batch.signalled_ = n == 0;
  }
  if (n == 0) return;  // Done() already true; Wait() is a no-op
  // szx-mo: release publishes the fn_/ctx_ setup above to any thread whose
  // first sight of this batch is a Done() acquire load; the claim path
  // gets the same edge from the inbox mutex.
  batch.unfinished_.store(n, std::memory_order_release);

  bool wake = false;
  {
    sync::MutexLock lock(m_);
    if (stop_) {
      // szx-mo: release; resets the never-ran batch to idle -- pairs with
      // the acquire load at the top of Submit on any later reuse attempt.
      batch.unfinished_.store(0, std::memory_order_release);
      {
        sync::MutexLock batch_lock(batch.m_);
        batch.signalled_ = true;
      }
      throw Error("Executor::Submit: executor is shut down");
    }
    batch.n_ = n;
    batch.next_ = 0;
    inbox_.push_back(&batch);
    wake = idlers_ > 0;
  }
  if (wake) cv_.NotifyAll();
}

void Executor::HelpUntilDone(Batch& b) {
  // Done() before the lock: a batch drained at shutdown may outlive its
  // executor, and a done batch has nothing left to claim.
  while (!b.Done()) {
    std::uint64_t i = 0;
    {
      sync::MutexLock lock(m_);
      if (b.next_ == b.n_) return;  // the rest are mid-run elsewhere
      i = Claim(b);
    }
    b.Run(i);
  }
}

void Executor::ParallelFor(std::uint64_t n, TaskFn fn, void* ctx) {
  if (n == 0) return;
  Worker* self = TlsWorker();
  if (self != nullptr && self->exec == this) {
    // Nested: run inline.  Width comes from the outer batch's other tasks.
    SerialFor(n, fn, ctx);
    return;
  }
  Batch batch;
  Submit(batch, n, fn, ctx);
  batch.Wait();
}

ScratchArena& Executor::WorkerScratch() {
  if (Worker* w = TlsWorker()) return w->arena;
  static thread_local ScratchArena fallback;
  return fallback;
}

Executor& Executor::Default() {
  static Executor instance;
  return instance;
}

Executor::Batch::~Batch() {
  // A batch must outlive its tasks; block (without rethrow) if needed.
  // Always go through the mutex: a lock-free unfinished_ check could see 0
  // while the finishing worker is still between its fetch_sub and taking
  // m_ in Run, and destroying m_/cv_ under it is use-after-free.
  // A never-submitted batch has signalled_ == true, so this is one
  // uncontended lock round trip.
  BlockUntilSignalled();
}

void Executor::Batch::Run(std::uint64_t i) {
  try {
    fn_(ctx_, i);
  } catch (...) {
    // Latch the first failure; every other task still runs exactly once
    // (conservation) and peers never see a torn batch.
    sync::MutexLock lock(m_);
    if (!error_) error_ = std::current_exception();
  }
  // szx-mo: acq_rel; release publishes this task's effects to the thread
  // that observes zero (Done()/Submit acquire loads), acquire makes the
  // last decrementer happen-after every peer's decrement so the notify
  // below covers all task bodies.
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Notify while holding the lock: the moment the waiter can observe
    // signalled_ it may destroy the batch (it lives on the caller's
    // stack), so cv_ must not be touched after m_ is released.
    sync::MutexLock lock(m_);
    signalled_ = true;
    cv_.NotifyAll();
  }
}

void Executor::Batch::BlockUntilSignalled() {
  sync::MutexLock lock(m_);
  while (!signalled_) cv_.Wait(lock);
}

void Executor::Batch::Wait() {
  if (owner_ != nullptr) owner_->HelpUntilDone(*this);
  BlockUntilSignalled();
  std::exception_ptr err;
  {
    sync::MutexLock lock(m_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation.
// ---------------------------------------------------------------------------

namespace {

thread_local const CancelToken* tls_cancel_token = nullptr;

// Wraps a task body with the cancellation protocol: check the token before
// running (so an armed token drains the remaining tasks as instant throws)
// and re-install it on the executing thread (so nested parallel loops in
// the body observe it too -- the body may run on a pool worker that never
// saw the caller's ScopedCancel).
struct CancelAdapter {
  TaskFn fn = nullptr;
  void* ctx = nullptr;
  const CancelToken* token = nullptr;

  static void Run(void* self, std::uint64_t i) {
    auto* a = static_cast<CancelAdapter*>(self);
    a->token->ThrowIfCancelled();
    ScopedCancel scope(a->token);
    a->fn(a->ctx, i);
  }
};

}  // namespace

void CancelToken::ThrowIfCancelled() const {
  if (cancelled()) {
    throw Cancelled("szx: operation cancelled (deadline or explicit cancel)");
  }
}

const CancelToken* CurrentCancelToken() noexcept { return tls_cancel_token; }

ScopedCancel::ScopedCancel(const CancelToken* token) noexcept
    : prev_(tls_cancel_token) {
  tls_cancel_token = token;
}

ScopedCancel::~ScopedCancel() { tls_cancel_token = prev_; }

void ParallelForImpl(std::uint64_t n, int max_threads, TaskFn fn, void* ctx) {
  if (n == 0) return;
  // Capture the caller's cancel token before dispatch: the adapter lives on
  // this stack frame, and both paths below join before returning, so
  // handing workers a pointer to it is safe.
  CancelAdapter adapter{fn, ctx, CurrentCancelToken()};
  if (adapter.token != nullptr) {
    fn = &CancelAdapter::Run;
    ctx = &adapter;
  }
  const int threads = ResolveThreads(max_threads);
  if (n == 1 || threads == 1) {
    SerialFor(n, fn, ctx);
    return;
  }
  Executor::Default().ParallelFor(n, fn, ctx);
}

}  // namespace szx::exec
