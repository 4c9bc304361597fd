// Implementation of the persistent work-stealing executor and the
// ParallelFor facade over it.  See executor.hpp for the model.
//
// Memory-order note: the Chase-Lev deque below uses seq_cst operations on
// top_/bottom_ instead of the standalone fences of the canonical C11
// formulation (Le et al., "Correct and Efficient Work-Stealing for Weak
// Memory Models").  ThreadSanitizer does not model
// std::atomic_thread_fence, so the fence formulation would report false
// races; seq_cst on the two counters is strictly stronger and keeps the
// whole protocol visible to TSan.  The szx workloads hand out coarse
// chunk-sized slices, so the extra ordering cost is noise.
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

// xorshift64* step for steal-victim selection; never returns 0 state.
std::uint64_t NextRand(std::uint64_t& state) {
  std::uint64_t x = state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state = x;
  return x * 0x2545F4914F6CDD1DULL;
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

// ---------------------------------------------------------------------------
// Chase-Lev work-stealing deque of Slice pointers.
//
// Owner calls Push/Pop on the bottom end; any thread may Steal from the top.
// The ring grows by copying live entries into a larger ring; retired rings
// are kept alive until deque destruction because a lagging thief may still
// load a cell from one (it only ever *reads a pointer value* there, and the
// CAS on top_ rejects the claim unless that value is still current -- the
// release-store of ring_ before the bottom_ publish makes a stale read with
// a winning CAS impossible, per the growable Chase-Lev argument).
// ---------------------------------------------------------------------------
class Executor::WorkDeque {
 public:
  WorkDeque() {
    rings_.push_back(std::make_unique<Ring>(kInitialCapacity));
    // szx-mo: release publishes the fully-constructed ring; pairs with the
    // acquire load of ring_ in Steal so a thief never sees a torn Ring.
    ring_.store(rings_.back().get(), std::memory_order_release);
  }

  // Owner only.
  void Push(Batch::Slice* s) {
    // szx-mo: relaxed; bottom_ is only ever stored by this owner thread, so
    // program order already sequences this read after every prior store.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // szx-mo: acquire pairs with the thieves' seq_cst CAS on top_; seeing
    // their increments keeps the b - t occupancy estimate conservative so
    // Grow never copies a cell a thief might still legitimately claim.
    const std::int64_t t = top_.load(std::memory_order_acquire);
    // szx-mo: relaxed; ring_ is only ever stored by this owner thread
    // (ctor + Grow), so the owner's own read needs no synchronization.
    Ring* r = ring_.load(std::memory_order_relaxed);
    if (b - t >= r->Capacity()) r = Grow(t, b);
    r->Put(b, s);
    // szx-mo: seq_cst publishes the Put above to thieves (release is the
    // minimum; seq_cst keeps the Chase-Lev protocol in the single total
    // order the file-header TSan note relies on) and pairs with the
    // seq_cst bottom_ load in Steal.
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  // Owner only.
  Batch::Slice* Pop() {
    // szx-mo: relaxed; owner-only field, see Push.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // szx-mo: relaxed; owner-only field, see Push.
    Ring* r = ring_.load(std::memory_order_relaxed);
    // szx-mo: seq_cst; the reservation store must be globally ordered
    // before the top_ load below (the classic Chase-Lev store-load fence),
    // otherwise owner and thief could both take the last slice.
    bottom_.store(b, std::memory_order_seq_cst);
    // szx-mo: seq_cst orders this load after the reservation store above
    // in the single total order; pairs with the thieves' CAS on top_.
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    Batch::Slice* s = nullptr;
    if (t <= b) {
      s = r->Get(b);
      if (t == b) {
        // Single entry left: race the thieves for it via top_.
        // szx-mo: success seq_cst claims the slice in the same total order
        // the thieves use; failure relaxed -- t is discarded on failure, no
        // data is read under the failed claim.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          s = nullptr;
        }
        // szx-mo: relaxed; restores the owner-only bottom_ after the CAS
        // settled the race -- thieves ordered themselves via top_, not this.
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      // szx-mo: relaxed; deque was empty, nothing was published or
      // claimed, only the owner reads bottom_ next.
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return s;
  }

  // Any thread.
  Batch::Slice* Steal() {
    // szx-mo: seq_cst; must precede the bottom_ load below in the single
    // total order (mirror of the owner's store-load ordering in Pop) so an
    // empty check never misses a concurrent Pop reservation.
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    // szx-mo: seq_cst pairs with the owner's seq_cst publish in Push; a
    // t < b read here guarantees the cell at t was Put before the publish.
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    // szx-mo: acquire pairs with the release ring_ store in the ctor/Grow;
    // everything copied into the ring before its publish is visible.
    Ring* r = ring_.load(std::memory_order_acquire);
    Batch::Slice* s = r->Get(t);
    // szx-mo: success seq_cst claims index t in the protocol's total
    // order; failure relaxed -- on failure s is discarded unused, so no
    // ordering is needed (see the retired-ring note on the class).
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race; the read value is discarded unused
    }
    return s;
  }

 private:
  static constexpr std::int64_t kInitialCapacity = 256;  // power of two

  struct Ring {
    explicit Ring(std::int64_t cap)
        : cells(static_cast<std::size_t>(cap)), mask(cap - 1) {}
    Batch::Slice* Get(std::int64_t i) const {
      // szx-mo: relaxed; cells only carry the pointer value between
      // threads -- the inter-thread ordering rides on top_/bottom_ (a
      // stale read loses the subsequent top_ CAS, so it is never used).
      return cells[static_cast<std::size_t>(i & mask)].load(
          std::memory_order_relaxed);
    }
    void Put(std::int64_t i, Batch::Slice* s) {
      // szx-mo: relaxed; the owner's seq_cst bottom_ publish in Push (or
      // the ring_ release in Grow) orders this store before any thief read.
      cells[static_cast<std::size_t>(i & mask)].store(
          s, std::memory_order_relaxed);
    }
    std::int64_t Capacity() const { return mask + 1; }

    std::vector<std::atomic<Batch::Slice*>> cells;
    std::int64_t mask;
  };

  Ring* Grow(std::int64_t t, std::int64_t b) {
    Ring* old = rings_.back().get();
    auto bigger = std::make_unique<Ring>(old->Capacity() * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->Put(i, old->Get(i));
    Ring* raw = bigger.get();
    rings_.push_back(std::move(bigger));
    // szx-mo: release publishes the copied cells before the new ring
    // pointer; pairs with the acquire ring_ load in Steal.  The old ring
    // stays allocated (retired-ring note above) for lagging thieves.
    ring_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_{nullptr};
  std::vector<std::unique_ptr<Ring>> rings_;  // owner-mutated; retired rings
                                              // stay allocated for thieves
};

struct Executor::Worker {
  Executor* exec = nullptr;
  int index = 0;
  WorkDeque deque;
  ScratchArena arena;
  std::uint64_t steal_seed = 0;
  std::thread thread;  // started last, joined in ~Executor
};

Executor::Worker*& Executor::TlsWorker() {
  static thread_local Worker* w = nullptr;
  return w;
}

Executor::Executor(int workers) {
  int n = workers;
  if (n <= 0) n = PositiveEnvInt("SZX_POOL_WORKERS");
  if (n <= 0) n = DefaultThreads();
  n = std::clamp(n, 1, kMaxWorkers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->exec = this;
    w->index = i;
    w->steal_seed = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(i);
    workers_.push_back(std::move(w));
  }
  // Threads start only after the workers_ vector is fully built: WorkerLoop
  // iterates peers for stealing.
  for (auto& w : workers_) {
    w->thread = std::thread([this, raw = w.get()] { WorkerLoop(*raw); });
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
    if (Batch::Slice* s = Acquire(&w)) {
      s->batch->RunSlice(*s);
      continue;
    }
    sync::MutexLock lock(m_);
    // szx-mo: relaxed; pending_ is a wake gate, not a publication channel
    // -- slice contents are ordered by the deque protocol / inbox mutex,
    // and a stale read here only costs one extra Acquire round trip.
    if (pending_.load(std::memory_order_relaxed) > 0) continue;  // missed one
    if (stop_) break;  // pending drained; graceful exit
    ++idlers_;
    // szx-mo: relaxed; m_ (released by Wait, reacquired on wake) carries
    // the happens-before edge -- the load is re-checked under the lock
    // after every wakeup, so no ordering rides on the atomic itself.
    while (!stop_ && pending_.load(std::memory_order_relaxed) <= 0) {
      cv_.Wait(lock);
    }
    --idlers_;
  }
  TlsWorker() = nullptr;
}

Executor::Batch::Slice* Executor::Acquire(Worker* self) {
  if (self != nullptr) {
    if (Batch::Slice* s = self->deque.Pop()) {
      // szx-mo: relaxed; the counter only gates parking (see WorkerLoop),
      // claim ordering came from the deque's seq_cst protocol.
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return s;
    }
  }
  // szx-mo: relaxed; opportunistic gate -- a stale zero just parks the
  // worker, and the submitter's notify (under m_) wakes it again.
  if (pending_.load(std::memory_order_relaxed) > 0) {
    if (Batch::Slice* s = TakeFromInbox(self)) return s;
    std::uint64_t local_seed = 0xD1B54A32D192ED03ULL;
    std::uint64_t& seed = self != nullptr ? self->steal_seed : local_seed;
    if (Batch::Slice* s = StealFromPeers(self, seed)) return s;
  }
  return nullptr;
}

Executor::Batch::Slice* Executor::TakeFromInbox(Worker* self) {
  Batch::Slice* claimed = nullptr;
  std::size_t moved = 0;
  {
    sync::MutexLock lock(m_);
    if (inbox_.empty()) return nullptr;
    // FIFO: external submissions run oldest first.  Take a fair share from
    // the front in one go; keep the oldest, spill the rest to our own deque
    // so peers can steal them without touching the inbox lock.  The owner
    // pops the deque bottom (newest push first), so the spill is pushed
    // newest-first and the owner keeps draining in submission order.
    std::size_t take = 1;
    if (self != nullptr && !workers_.empty()) {
      take = std::max<std::size_t>(1, inbox_.size() / workers_.size());
    }
    take = std::min(take, inbox_.size());
    claimed = inbox_.front();
    if (self != nullptr) {
      for (std::size_t i = take; i-- > 1;) {
        self->deque.Push(inbox_[i]);
        ++moved;
      }
    }
    inbox_.erase(inbox_.begin(),
                 inbox_.begin() + static_cast<std::ptrdiff_t>(take));
  }
  // szx-mo: relaxed; wake-gate counter (see WorkerLoop) -- the inbox mutex
  // above already ordered the claim itself.
  pending_.fetch_sub(1, std::memory_order_relaxed);
  // Slices moved into our deque are stealable; make sure sleepers see them.
  if (moved > 0) cv_.NotifyAll();
  return claimed;
}

Executor::Batch::Slice* Executor::StealFromPeers(Worker* self,
                                                 std::uint64_t& seed) {
  const std::size_t n = workers_.size();
  if (n == 0) return nullptr;
  const std::size_t start = static_cast<std::size_t>(NextRand(seed) % n);
  for (std::size_t k = 0; k < 2 * n; ++k) {
    Worker* victim = workers_[(start + k) % n].get();
    if (victim == self) continue;
    if (Batch::Slice* s = victim->deque.Steal()) {
      // szx-mo: relaxed; wake-gate counter (see WorkerLoop) -- the claim
      // was ordered by the victim deque's seq_cst CAS on top_.
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return s;
    }
  }
  return nullptr;
}

void Executor::Submit(Batch& batch, std::uint64_t n, TaskFn fn, void* ctx) {
  // szx-mo: acquire pairs with FinishSlice's acq_rel decrement to zero, so
  // reusing an idle batch happens-after its previous tasks fully finished.
  if (batch.unfinished_.load(std::memory_order_acquire) != 0) {
    throw Error("Executor::Submit: batch is still in flight");
  }
  batch.owner_ = this;
  batch.fn_ = fn;
  batch.ctx_ = ctx;
  {
    sync::MutexLock lock(batch.m_);
    batch.error_ = nullptr;
  }
  if (n == 0) return;  // Done() already true; Wait() is a no-op

  const std::uint64_t width = static_cast<std::uint64_t>(workers()) * 4;
  const std::uint32_t nslices = static_cast<std::uint32_t>(
      std::min<std::uint64_t>({n, kMaxSlices, std::max<std::uint64_t>(width, 1)}));
  const std::uint64_t base = n / nslices;
  const std::uint64_t extra = n % nslices;
  std::uint64_t next = 0;
  for (std::uint32_t i = 0; i < nslices; ++i) {
    Batch::Slice& s = batch.slices_[i];
    s.batch = &batch;
    s.first = next;
    next += base + (i < extra ? 1 : 0);
    s.last = next;
  }
  {
    sync::MutexLock lock(batch.m_);
    batch.signalled_ = false;
  }
  // szx-mo: release publishes the fn_/ctx_/slices_ setup above to any
  // worker whose first sight of this batch is a Done() acquire load; the
  // slice-claim paths get the same edge from the deque/inbox protocols.
  batch.unfinished_.store(nslices, std::memory_order_release);

  Worker* self = TlsWorker();
  if (self != nullptr && self->exec == this) {
    // Worker-side submit: our own deque, no inbox lock.
    for (std::uint32_t i = 0; i < nslices; ++i) {
      self->deque.Push(&batch.slices_[i]);
    }
    // szx-mo: relaxed; wake-gate counter (see WorkerLoop) -- the slices
    // were published by the deque's seq_cst bottom_ stores above.
    pending_.fetch_add(nslices, std::memory_order_relaxed);
    cv_.NotifyAll();
    return;
  }
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
    for (std::uint32_t i = 0; i < nslices; ++i) {
      inbox_.push_back(&batch.slices_[i]);
    }
    // szx-mo: relaxed; wake-gate counter (see WorkerLoop) -- m_ orders the
    // inbox_ pushes against the draining worker.
    pending_.fetch_add(nslices, std::memory_order_relaxed);
    wake = idlers_ > 0;
  }
  if (wake) cv_.NotifyAll();
}

void Executor::HelpUntilDone(Batch& b) {
  Worker* self = TlsWorker();
  if (self != nullptr && self->exec != this) self = nullptr;
  while (!b.Done()) {
    Batch::Slice* s = Acquire(self);
    if (s == nullptr) return;  // remaining slices are mid-run elsewhere
    s->batch->RunSlice(*s);
  }
}

void Executor::ParallelFor(std::uint64_t n, TaskFn fn, void* ctx) {
  if (n == 0) return;
  Worker* self = TlsWorker();
  if (self != nullptr && self->exec == this) {
    // Nested: run inline.  Width comes from the outer batch's other slices.
    for (std::uint64_t i = 0; i < n; ++i) fn(ctx, i);
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
  // m_ in FinishSlice, and destroying m_/cv_ under it is use-after-free.
  // A never-submitted batch has signalled_ == true, so this is one
  // uncontended lock round trip.
  BlockUntilSignalled();
}

void Executor::Batch::RunSlice(const Slice& s) {
  for (std::uint64_t i = s.first; i < s.last; ++i) {
    try {
      fn_(ctx_, i);
    } catch (...) {
      // Latch the first failure; keep running so every task executes
      // exactly once (conservation) and peers never see a torn batch.
      sync::MutexLock lock(m_);
      if (!error_) error_ = std::current_exception();
    }
  }
  FinishSlice();
}

void Executor::Batch::FinishSlice() {
  // szx-mo: acq_rel; release publishes this slice's task effects to the
  // thread that observes zero (Done()/Submit acquire loads), acquire makes
  // the last decrementer happen-after every peer's decrement so the
  // notify below covers all task bodies.
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
// ParallelFor facade.
// ---------------------------------------------------------------------------

namespace {

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
