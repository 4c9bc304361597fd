// szx-serve: the fault-hardened compression service core.
//
// A Server executes compress / decompress / salvage / container-query jobs
// arriving as SZXQ frames over any Transport.  The caller owns connection
// threads: each accepted connection calls ServeConnection(transport), which
// runs that connection's read loop until EOF, hard close, or Stop().  Job
// bodies run on the server's own exec::Executor -- the same persistent
// FIFO pool the codec uses -- and nested codec ParallelFor calls
// compose with service-level parallelism.
//
// Data plane.  The codec reads a request body where it landed and builds
// a large response in the worker's response arena; the frame goes out as
// one gather write of {header, body parts, checksum}.  No opcode copies a
// body-sized buffer on its clean path (docs/serve.md "Data plane").
//
// Robustness contracts (docs/serve.md has the full matrix):
//
//   Backpressure.  Each connection admits at most max_inflight_per_conn
//   jobs (queued + running + response-in-flight).  At the window limit the
//   read loop stops reading; over a bounded transport the client's writes
//   then block, so a saturating client is throttled instead of buffered.
//   Memory per connection is bounded by window x max_body_bytes of request
//   bodies; responses are built in one arena per pool worker, not per
//   connection (docs/serve.md "Data plane").
//
//   Overload shedding.  Admission is also bounded globally
//   (queue_capacity).  A request that finds the queue full is answered
//   kBusy with an exponential retry-backoff hint in `info`; each shed
//   consumes the connection's busy budget, and an exhausted budget closes
//   the connection after a final kBusy (a client that never backs off
//   loses its connection, not the server its memory).
//
//   Deadlines.  deadline_ms arms an exec::CancelToken at admission.  A job
//   whose deadline passes while queued is answered kDeadlineExceeded
//   without running; one that expires mid-decode unwinds cooperatively at
//   the next cancellation check (szx::Cancelled) and is answered
//   kDeadlineExceeded.  There is no monitor thread and no preemption.
//
//   Graceful degradation.  A request body that fails its wire checksum is
//   not dropped: decompress/salvage/query jobs route through the
//   resilience salvage pipeline and answer kPartial with a DamageReport
//   plus the recovered elements (kFlagBodyDamaged set), or kCorrupt with
//   the report when nothing is recoverable.  kFlagNoDegrade opts a request
//   out (strict clients get kCorrupt immediately).  Every accepted frame
//   gets exactly one typed response; only unrecoverable framing loss
//   (torn header, mid-frame EOF) ends a connection.
//
//   Shutdown.  Stop() closes registered transports (unblocking parked
//   readers), answers any still-arriving requests kShuttingDown, and the
//   destructor joins in-flight jobs before the pool is torn down.
//
// All shared state is mutex-guarded and annotated (SZX_GUARDED_BY); this
// directory is an szx-lint strict zone, so every frame byte is parsed
// through bounds-checked cursors and no allow() escapes exist here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/common.hpp"
#include "core/executor.hpp"
#include "core/sync.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace szx::serve {

struct ServerConfig {
  /// Worker threads in the job pool (<= 0 resolves like exec::Executor).
  int workers = 2;
  /// Global bound on admitted-but-unfinished jobs; beyond it requests shed
  /// with kBusy.
  std::uint32_t queue_capacity = 16;
  /// Per-connection inflight window; the read loop parks at the limit.
  std::uint32_t max_inflight_per_conn = 4;
  /// Requests with a larger body are drained and answered kBadRequest.
  std::uint64_t max_body_bytes = std::uint64_t{256} << 20;
  /// kBusy backoff hint: min(base << consecutive_busy, max) milliseconds.
  std::uint32_t busy_backoff_base_ms = 5;
  std::uint32_t busy_backoff_max_ms = 2000;
  /// Total kBusy responses a connection may absorb before it is closed.
  std::uint32_t busy_budget = 64;
  /// Server-wide default for the degradation path; kFlagNoDegrade opts a
  /// single request out, false here disables salvage for every request.
  bool allow_degrade = true;
};

/// Monotonic counters (snapshot via Server::stats).
struct ServerStats {
  std::uint64_t connections = 0;        ///< ServeConnection calls begun
  std::uint64_t requests = 0;           ///< complete frames accepted
  std::uint64_t completed_ok = 0;       ///< kOk responses
  std::uint64_t completed_partial = 0;  ///< kPartial (degraded) responses
  std::uint64_t bad_request = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t shed_busy = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t shutting_down = 0;
  std::uint64_t internal_error = 0;
  std::uint64_t transport_errors = 0;  ///< connections ended by wire failure
  std::uint64_t damaged_bodies = 0;    ///< request checksum mismatches seen
};

/// A job's response body as parts for the gather write (server.cpp).
struct ResponseBody;

class Server {
 public:
  explicit Server(ServerConfig config = {});

  /// Stops, then joins every in-flight job and waits for all
  /// ServeConnection calls to return before tearing the pool down.
  ~Server() SZX_EXCLUDES(m_);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs one connection's read loop on the calling thread until clean EOF,
  /// transport failure, framing loss, or Stop().  Never throws for
  /// connection-scoped failures (they are counted and the transport
  /// closed); the caller owns the transport's lifetime.
  void ServeConnection(Transport& transport) SZX_EXCLUDES(m_);

  /// Begins shutdown: closes every registered transport (unblocking parked
  /// readers and writers) and answers subsequent requests kShuttingDown.
  /// Idempotent, callable from any thread (including signal-adjacent ones).
  void Stop() SZX_EXCLUDES(m_);

  [[nodiscard]] ServerStats stats() SZX_EXCLUDES(m_);

  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// The job pool (tests co-schedule work on it to provoke contention).
  [[nodiscard]] exec::Executor& pool() { return pool_; }

 private:
  struct Connection;
  struct Job;

  /// Reads frames and admits jobs until the connection ends; returns the
  /// reason it ended for stats accounting.
  void ReadLoop(Connection& conn) SZX_EXCLUDES(m_);

  /// Reads one request body + checksum into a fresh allocation (bounded by
  /// max_body_bytes, larger bodies drained in chunks).  Returns false when
  /// the frame must be answered kBadRequest (body oversized).
  [[nodiscard]] bool ReadBody(Connection& conn, const RequestHeader& header,
                              std::unique_ptr<std::byte[]>& body,
                              bool& checksum_ok);

  /// Runs one admitted job on a pool worker (deadline check, dispatch,
  /// degradation, response write).  Never throws.
  void RunJob(Job& job);

  void ExecuteJob(Job& job, ResponseHeader& rsp, ResponseBody& body);

  void DispatchCompress(Job& job, ResponseHeader& rsp, ResponseBody& body);
  void DispatchDecompress(Job& job, ResponseHeader& rsp, ResponseBody& body);
  void DispatchSalvage(Job& job, ResponseHeader& rsp, ResponseBody& body);
  void DispatchQuery(Job& job, ResponseHeader& rsp, ResponseBody& body);

  /// Serializes a response frame onto the connection as one gather write
  /// (one writer at a time); returns false and poisons the connection on
  /// transport failure.
  [[nodiscard]] bool WriteResponse(Connection& conn,
                                   const ResponseHeader& header,
                                   std::span<const ByteSpan> body);

  /// Immediate typed response from the connection thread (busy, bad
  /// request, shutting down); same write path as job responses.
  [[nodiscard]] bool RespondNow(Connection& conn, std::uint64_t request_id,
                                Status status, std::uint32_t info,
                                ByteSpan body);

  void CountStatus(Status status) SZX_EXCLUDES(m_);

  /// Global admission: true and a queue slot held, or false (shed).
  [[nodiscard]] bool TryAdmit() SZX_EXCLUDES(m_);
  void ReleaseAdmission() SZX_EXCLUDES(m_);

  ServerConfig config_;
  exec::Executor pool_;

  sync::Mutex m_;
  sync::CondVar drained_;  ///< signalled when connections_active_ drops
  bool stopping_ SZX_GUARDED_BY(m_) = false;
  std::uint32_t jobs_admitted_ SZX_GUARDED_BY(m_) = 0;
  std::uint32_t connections_active_ SZX_GUARDED_BY(m_) = 0;
  std::vector<Transport*> live_transports_ SZX_GUARDED_BY(m_);
  ServerStats stats_ SZX_GUARDED_BY(m_);
};

}  // namespace szx::serve
