#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>

#include "core/arena.hpp"
#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/json.hpp"
#include "resilience/container_salvage.hpp"
#include "resilience/salvage.hpp"

namespace szx::serve {

// A response body: an owned prefix (error or report JSON, or a whole small
// body such as a salvage result) followed by one borrowed view (the
// request body for a ping, the response arena for compress, decompress and
// query).  The view stays valid until RunJob has written the frame.
struct ResponseBody {
  ByteBuffer owned;
  ByteSpan view;

  [[nodiscard]] std::array<ByteSpan, 2> Parts() const { return {owned, view}; }
};

namespace {

constexpr const char* kWireDamageJson =
    "{\"wire_damaged\":true,\"error\":\"request body failed its frame "
    "checksum\"}";

void AppendText(ByteBuffer& out, const std::string& text) {
  ByteWriter(out).WriteBytes(text.data(), text.size());
}

/// The pool worker's response arena: compressed streams and decoded
/// elements are built here and written to the wire straight from it.  A
/// view into it lives until RunJob has written the frame; the next job on
/// the same worker resets it.  It keeps its high-water size (one coalesced
/// chunk), so steady-state jobs allocate no response memory.
ScratchArena& ResponseArena() {
  thread_local ScratchArena arena;
  return arena;
}

/// Once its frame is written, a worker drops a response arena grown past
/// this, so one huge reply does not pin that memory for the daemon's life.
constexpr std::size_t kRetainedArenaBytes = std::size_t{64} << 20;

void TrimResponseArena() {
  ScratchArena& arena = ResponseArena();
  if (arena.Capacity() > kRetainedArenaBytes) arena = ScratchArena{};
}

/// `count` uninitialized elements of the response arena, to decode into.
template <SupportedFloat T>
std::span<T> ArenaElements(std::size_t count) {
  ScratchArena& arena = ResponseArena();
  arena.Reset();
  return arena.AllocateSpan<T>(count);
}

std::string QueryMetaJson(const ContainerReader& reader,
                          const QuerySpec& spec) {
  const ContainerField& f = reader.field(spec.field);
  std::string s = "{\"type\":\"query\",\"num_fields\":";
  s += std::to_string(reader.num_fields());
  s += ",\"field\":\"";
  s += JsonEscape(f.name);
  s += "\",\"dtype\":\"";
  s += f.dtype == DataType::kFloat64 ? "float64" : "float32";
  s += "\",\"timestep\":" + std::to_string(spec.timestep);
  s += ",\"timesteps\":" + std::to_string(f.timesteps);
  s += ",\"elements_per_timestep\":" +
       std::to_string(f.elements_per_timestep);
  s += ",\"chunks_per_timestep\":" + std::to_string(f.chunks_per_timestep);
  s += "}";
  return s;
}

}  // namespace

// One accepted connection, owned by the ServeConnection stack frame.  The
// read loop (connection thread) and job completions (pool workers) share
// the inflight window and the poison flag under `m`; whole response frames
// serialize under `write_m` so concurrent jobs never interleave bytes.
struct Server::Connection {
  Transport* transport = nullptr;

  sync::Mutex m;
  sync::CondVar window_cv;  ///< signalled on inflight decrement / poison
  std::uint32_t inflight SZX_GUARDED_BY(m) = 0;
  bool dead SZX_GUARDED_BY(m) = false;  ///< wire failed; abandon the loop

  sync::Mutex write_m;  ///< one response frame on the wire at a time

  // Connection-thread-only state (no locking: single owner).
  std::uint32_t consecutive_busy = 0;
  std::uint32_t busy_spent = 0;
  std::vector<std::unique_ptr<Job>> outstanding;
};

// One admitted request.  Owned by its connection's `outstanding` list; the
// pool task borrows it, and the Batch inside guarantees the borrow ends
// before destruction (Batch's destructor joins).
struct Server::Job {
  Server* server = nullptr;
  Connection* conn = nullptr;
  RequestHeader request;
  /// The request body, read straight into this allocation.  operator new
  /// aligns it for any element type, so a kCompress body's elements (at
  /// offset kCompressSpecBytes) can be viewed in place.
  std::unique_ptr<std::byte[]> body_mem;
  ByteSpan body;
  bool checksum_ok = true;
  exec::CancelToken cancel;
  exec::Executor::Batch batch;
};

Server::Server(ServerConfig config)
    : config_(config), pool_(config.workers) {
  config_.queue_capacity = std::max<std::uint32_t>(1, config_.queue_capacity);
  config_.max_inflight_per_conn =
      std::max<std::uint32_t>(1, config_.max_inflight_per_conn);
}

Server::~Server() {
  Stop();
  sync::MutexLock lock(m_);
  while (connections_active_ > 0) drained_.Wait(lock);
  // pool_ destructs after the lock releases: every connection has reaped
  // its jobs, so the pool drains nothing but is torn down gracefully.
}

void Server::Stop() {
  sync::MutexLock lock(m_);
  stopping_ = true;
  // Closing under m_ is safe: transports unregister under m_ before their
  // ServeConnection frame dies, so every pointer here is alive.
  for (Transport* t : live_transports_) t->Close();
}

ServerStats Server::stats() {
  sync::MutexLock lock(m_);
  return stats_;
}

void Server::CountStatus(Status status) {
  sync::MutexLock lock(m_);
  switch (status) {
    case Status::kOk: ++stats_.completed_ok; break;
    case Status::kPartial: ++stats_.completed_partial; break;
    case Status::kBadRequest: ++stats_.bad_request; break;
    case Status::kCorrupt: ++stats_.corrupt; break;
    case Status::kBusy: ++stats_.shed_busy; break;
    case Status::kDeadlineExceeded: ++stats_.deadline_exceeded; break;
    case Status::kShuttingDown: ++stats_.shutting_down; break;
    case Status::kInternalError: ++stats_.internal_error; break;
  }
}

bool Server::TryAdmit() {
  sync::MutexLock lock(m_);
  if (jobs_admitted_ >= config_.queue_capacity) return false;
  ++jobs_admitted_;
  return true;
}

void Server::ReleaseAdmission() {
  sync::MutexLock lock(m_);
  --jobs_admitted_;
}

void Server::ServeConnection(Transport& transport) {
  {
    sync::MutexLock lock(m_);
    ++stats_.connections;
    if (stopping_) {
      transport.Close();
      return;
    }
    ++connections_active_;
    live_transports_.push_back(&transport);
  }

  Connection conn;
  conn.transport = &transport;
  bool wire_failed = false;
  try {
    ReadLoop(conn);
  } catch (const TransportError&) {
    wire_failed = true;  // torn frame / mid-body EOF
  } catch (const Error&) {
    wire_failed = true;  // framing lost (bad magic or version)
  } catch (...) {
    wire_failed = true;
  }

  // Drain: every admitted job still writes its typed response (the client
  // may have half-closed and be waiting for exactly these).
  for (auto& job : conn.outstanding) job->batch.Wait();
  conn.outstanding.clear();

  if (wire_failed) {
    transport.Close();
  } else {
    transport.ShutdownWrite();  // responses stay deliverable; reads see EOF
  }

  sync::MutexLock lock(m_);
  if (wire_failed) ++stats_.transport_errors;
  std::erase(live_transports_, &transport);
  --connections_active_;
  drained_.NotifyAll();
}

void Server::ReadLoop(Connection& conn) {
  Transport& t = *conn.transport;
  std::array<std::byte, kFrameHeaderBytes> header_buf{};

  for (;;) {
    // Backpressure point: at the window limit the loop parks here, the
    // transport's bounded buffer fills, and the client's writes block.
    {
      sync::MutexLock lock(conn.m);
      while (conn.inflight >= config_.max_inflight_per_conn && !conn.dead) {
        conn.window_cv.Wait(lock);
      }
      if (conn.dead) return;
    }
    // Reap finished jobs (their Batches are Done; Wait cannot block).
    std::erase_if(conn.outstanding, [](const std::unique_ptr<Job>& j) {
      if (!j->batch.Done()) return false;
      j->batch.Wait();
      return true;
    });

    if (!ReadExact(t, header_buf)) return;  // clean EOF between frames
    const RequestHeader req = ParseRequestHeader(header_buf);

    std::unique_ptr<std::byte[]> body;
    bool checksum_ok = true;
    const bool size_ok = ReadBody(conn, req, body, checksum_ok);
    {
      sync::MutexLock lock(m_);
      ++stats_.requests;
      if (!checksum_ok) ++stats_.damaged_bodies;
    }

    if (!size_ok) {
      CountStatus(Status::kBadRequest);
      ByteBuffer reason;
      AppendText(reason, ErrorJson("request body exceeds the size limit"));
      if (!RespondNow(conn, req.request_id, Status::kBadRequest, 0, reason)) {
        return;
      }
      continue;
    }

    bool stopping = false;
    {
      sync::MutexLock lock(m_);
      stopping = stopping_;
    }
    if (stopping) {
      CountStatus(Status::kShuttingDown);
      (void)RespondNow(conn, req.request_id, Status::kShuttingDown, 0, {});
      return;
    }

    if (!IsKnownOpcode(static_cast<std::uint8_t>(req.opcode))) {
      CountStatus(Status::kBadRequest);
      ByteBuffer reason;
      AppendText(reason, ErrorJson("unknown opcode"));
      if (!RespondNow(conn, req.request_id, Status::kBadRequest, 0, reason)) {
        return;
      }
      continue;
    }

    if (!TryAdmit()) {
      // Shed: typed BUSY with an exponential backoff hint; each shed spends
      // connection budget so a client that never backs off gets closed.
      ++conn.busy_spent;
      const std::uint32_t shift = std::min<std::uint32_t>(
          conn.consecutive_busy, 16);
      ++conn.consecutive_busy;
      const std::uint64_t hinted =
          std::uint64_t{config_.busy_backoff_base_ms} << shift;
      const std::uint32_t backoff = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(hinted, config_.busy_backoff_max_ms));
      CountStatus(Status::kBusy);
      const bool wrote =
          RespondNow(conn, req.request_id, Status::kBusy, backoff, {});
      if (!wrote || conn.busy_spent >= config_.busy_budget) return;
      continue;
    }
    conn.consecutive_busy = 0;

    auto job = std::make_unique<Job>();
    job->server = this;
    job->conn = &conn;
    job->request = req;
    job->body_mem = std::move(body);
    job->body = ByteSpan(job->body_mem.get(),
                         CheckedNarrow<std::size_t>(req.body_bytes));
    job->checksum_ok = checksum_ok;
    if (req.deadline_ms != 0) {
      job->cancel.CancelAt(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(req.deadline_ms));
    }
    {
      sync::MutexLock lock(conn.m);
      ++conn.inflight;
    }
    Job* raw = job.get();
    conn.outstanding.push_back(std::move(job));
    pool_.Submit(
        raw->batch, 1,
        [](void* ctx, std::uint64_t) {
          auto* j = static_cast<Job*>(ctx);
          j->server->RunJob(*j);
        },
        raw);
  }
}

bool Server::ReadBody(Connection& conn, const RequestHeader& header,
                      std::unique_ptr<std::byte[]>& body, bool& checksum_ok) {
  Transport& t = *conn.transport;
  if (header.body_bytes > config_.max_body_bytes) {
    // Drain the oversized body in bounded chunks to keep framing intact
    // (memory stays O(chunk), not O(body)), then reject it.
    std::array<std::byte, 4096> chunk{};
    std::uint64_t left = CheckedAdd(header.body_bytes, kChecksumBytes);
    while (left > 0) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, chunk.size()));
      if (!ReadExact(t, std::span(chunk).first(n))) {
        throw TransportError("szx-serve: stream ended inside oversized body");
      }
      left -= n;
    }
    checksum_ok = true;
    return false;
  }

  // Uninitialized: every byte is about to be overwritten by the read.
  const auto size = CheckedNarrow<std::size_t>(header.body_bytes);
  body = std::make_unique_for_overwrite<std::byte[]>(size);
  const std::span<std::byte> bytes(body.get(), size);
  if (!ReadExact(t, bytes)) {
    throw TransportError("szx-serve: stream ended before request body");
  }
  std::array<std::byte, kChecksumBytes> check{};
  if (!ReadExact(t, check)) {
    throw TransportError("szx-serve: stream ended before body checksum");
  }
  const auto want =
      ByteCursor(ByteSpan(check.data(), check.size())).Read<std::uint64_t>();
  checksum_ok = want == BodyChecksum(bytes);
  return true;
}

bool Server::WriteResponse(Connection& conn, const ResponseHeader& header,
                           std::span<const ByteSpan> body) {
  const FrameEnvelope envelope = SealResponse(header, body);  // hash unlocked
  sync::MutexLock lock(conn.write_m);
  try {
    WriteFrame(*conn.transport, envelope, body);
    return true;
  } catch (const TransportError&) {
    {
      sync::MutexLock poison(conn.m);
      conn.dead = true;
      conn.window_cv.NotifyAll();
    }
    conn.transport->Close();  // unparks a reader blocked mid-frame
    return false;
  }
}

bool Server::RespondNow(Connection& conn, std::uint64_t request_id,
                        Status status, std::uint32_t info, ByteSpan body) {
  ResponseHeader rsp;
  rsp.status = status;
  rsp.request_id = request_id;
  rsp.info = info;
  return WriteResponse(conn, rsp, std::span(&body, 1));
}

void Server::RunJob(Job& job) {
  ResponseHeader rsp;
  rsp.request_id = job.request.request_id;
  ResponseBody body;
  try {
    if (job.cancel.cancelled()) {
      // Expired while queued: answered without running.
      rsp.status = Status::kDeadlineExceeded;
    } else {
      exec::ScopedCancel scope(&job.cancel);
      ExecuteJob(job, rsp, body);
    }
  } catch (const Cancelled&) {
    rsp.status = Status::kDeadlineExceeded;
    body = {};
  } catch (const std::exception& e) {
    rsp.status = Status::kInternalError;
    body = {};
    AppendText(body.owned, ErrorJson(e.what()));
  } catch (...) {
    rsp.status = Status::kInternalError;
    body = {};
  }
  if (!job.checksum_ok) rsp.flags |= kFlagBodyDamaged;
  // The frame leaves here, while every view in `body` is still valid.
  (void)WriteResponse(*job.conn, rsp, body.Parts());
  TrimResponseArena();
  CountStatus(rsp.status);
  ReleaseAdmission();
  sync::MutexLock lock(job.conn->m);
  --job.conn->inflight;
  job.conn->window_cv.NotifyAll();
}

void Server::ExecuteJob(Job& job, ResponseHeader& rsp, ResponseBody& body) {
  switch (job.request.opcode) {
    case Opcode::kPing: {
      const bool degrade = config_.allow_degrade &&
                           (job.request.flags & kFlagNoDegrade) == 0;
      if (job.checksum_ok) {
        rsp.status = Status::kOk;
        body.view = job.body;
      } else if (degrade) {
        rsp.status = Status::kPartial;  // echo what actually arrived
        AppendReportAndData(body.owned, kWireDamageJson, {});
        body.view = job.body;
      } else {
        rsp.status = Status::kCorrupt;
        AppendText(body.owned, kWireDamageJson);
      }
      return;
    }
    case Opcode::kCompress: DispatchCompress(job, rsp, body); return;
    case Opcode::kDecompress: DispatchDecompress(job, rsp, body); return;
    case Opcode::kSalvage: DispatchSalvage(job, rsp, body); return;
    case Opcode::kQuery: DispatchQuery(job, rsp, body); return;
  }
  rsp.status = Status::kBadRequest;  // unreachable: ReadLoop screens opcodes
}

namespace {

template <SupportedFloat T>
void CompressJob(ByteSpan raw, const Params& params, ResponseHeader& rsp,
                 ResponseBody& body) {
  if (raw.size() % sizeof(T) != 0) {
    rsp.status = Status::kBadRequest;
    AppendText(body.owned,
               ErrorJson("raw payload is not a whole element count"));
    return;
  }
  // In place: the daemon allocated the body, so the elements are aligned by
  // construction.  A misaligned body would throw here (kInternalError).
  const std::span<const T> elems = AlignedView<T>(raw);
  try {
    body.view = CompressInto<T>(elems, params, ResponseArena());
    rsp.status = Status::kOk;
  } catch (const Cancelled&) {
    throw;
  } catch (const Error& e) {
    rsp.status = Status::kBadRequest;  // unusable Params combination
    AppendText(body.owned, ErrorJson(e.what()));
  }
}

/// Salvage result as report + elements, copied into the owned body: the
/// degraded paths are rare and keep the simple layout.
template <typename Result>
void SalvageReply(const Result& result, bool checksum_ok, ResponseHeader& rsp,
                  ResponseBody& body) {
  if (!result.report.usable) {
    rsp.status = Status::kCorrupt;
    AppendText(body.owned, result.report.ToJson());
    return;
  }
  rsp.status = (result.report.clean && checksum_ok) ? Status::kOk
                                                    : Status::kPartial;
  AppendReportAndData(body.owned, result.report.ToJson(),
                      std::as_bytes(std::span(result.data)));
}

template <SupportedFloat T>
void DecompressJob(ByteSpan stream, bool checksum_ok, bool degrade,
                   ResponseHeader& rsp, ResponseBody& body) {
  if (checksum_ok) {
    try {
      // Probe the size (parse-before-allocate), then decode into the arena.
      const std::span<T> out =
          ArenaElements<T>(DecodedElementCount<T>(stream));
      DecompressInto<T>(stream, out);
      rsp.status = Status::kOk;
      body.view = std::as_bytes(out);
      return;
    } catch (const Cancelled&) {
      throw;
    } catch (const Error& e) {
      if (!degrade) {
        rsp.status = Status::kCorrupt;
        AppendText(body.owned, ErrorJson(e.what()));
        return;
      }
      // fall through to salvage
    }
  } else if (!degrade) {
    rsp.status = Status::kCorrupt;
    AppendText(body.owned, kWireDamageJson);
    return;
  }
  resilience::SalvageOptions options;
  options.num_threads = 1;  // deterministic report, independent of pool size
  SalvageReply(resilience::SalvageDecode<T>(stream, options), checksum_ok,
               rsp, body);
}

template <SupportedFloat T>
void SalvageJob(ByteSpan stream, bool checksum_ok, ResponseHeader& rsp,
                ResponseBody& body) {
  resilience::SalvageOptions options;
  options.num_threads = 1;
  SalvageReply(resilience::SalvageDecode<T>(stream, options), checksum_ok,
               rsp, body);
}

template <SupportedFloat T>
void QueryJob(const ContainerReader& reader, const QuerySpec& spec,
              bool checksum_ok, bool degrade, ResponseHeader& rsp,
              ResponseBody& body) {
  if (checksum_ok) {
    try {
      // Every chunk is probed before the arena is sized.
      const std::span<T> out =
          ArenaElements<T>(reader.ProbeTimestep<T>(spec.field, spec.timestep));
      reader.DecompressRange<T>(spec.field, spec.timestep, 0, out);
      rsp.status = Status::kOk;
      // u32 length | report in the owned prefix, the elements as the view.
      AppendReportAndData(body.owned, QueryMetaJson(reader, spec), {});
      body.view = std::as_bytes(out);
      return;
    } catch (const Cancelled&) {
      throw;
    } catch (const Error& e) {
      if (!degrade) {
        rsp.status = Status::kCorrupt;
        AppendText(body.owned, ErrorJson(e.what()));
        return;
      }
      // fall through to chunk-level salvage
    }
  } else if (!degrade) {
    rsp.status = Status::kCorrupt;
    AppendText(body.owned, kWireDamageJson);
    return;
  }
  resilience::SalvageOptions options;
  options.num_threads = 1;
  SalvageReply(resilience::SalvageContainerTimestep<T>(
                   reader, spec.field, spec.timestep, options),
               checksum_ok, rsp, body);
}

}  // namespace

void Server::DispatchCompress(Job& job, ResponseHeader& rsp,
                              ResponseBody& body) {
  if (!job.checksum_ok) {
    // Raw input bytes are the one thing salvage cannot reconstruct: there
    // is no redundancy to lean on, so even the degradation path refuses.
    rsp.status = Status::kCorrupt;
    AppendText(body.owned, kWireDamageJson);
    return;
  }
  ByteCursor cur(job.body);
  CompressSpec spec;
  try {
    spec = ReadCompressSpec(cur);
  } catch (const Error& e) {
    rsp.status = Status::kBadRequest;
    AppendText(body.owned, ErrorJson(e.what()));
    return;
  }
  Params params;
  params.mode = spec.mode;
  params.error_bound = spec.error_bound;
  params.block_size = spec.block_size;
  params.integrity = spec.integrity != 0;
  const ByteSpan raw = cur.Rest();
  if (spec.dtype == DataType::kFloat64) {
    CompressJob<double>(raw, params, rsp, body);
  } else {
    CompressJob<float>(raw, params, rsp, body);
  }
}

void Server::DispatchDecompress(Job& job, ResponseHeader& rsp,
                                ResponseBody& body) {
  const bool degrade =
      config_.allow_degrade && (job.request.flags & kFlagNoDegrade) == 0;
  if (SniffDtype(job.body) == DataType::kFloat64) {
    DecompressJob<double>(job.body, job.checksum_ok, degrade, rsp, body);
  } else {
    DecompressJob<float>(job.body, job.checksum_ok, degrade, rsp, body);
  }
}

void Server::DispatchSalvage(Job& job, ResponseHeader& rsp,
                             ResponseBody& body) {
  if (SniffDtype(job.body) == DataType::kFloat64) {
    SalvageJob<double>(job.body, job.checksum_ok, rsp, body);
  } else {
    SalvageJob<float>(job.body, job.checksum_ok, rsp, body);
  }
}

void Server::DispatchQuery(Job& job, ResponseHeader& rsp,
                           ResponseBody& body) {
  const bool degrade =
      config_.allow_degrade && (job.request.flags & kFlagNoDegrade) == 0;
  ByteCursor cur(job.body);
  QuerySpec spec;
  try {
    spec = ReadQuerySpec(cur);
  } catch (const Error& e) {
    rsp.status = Status::kBadRequest;
    AppendText(body.owned, ErrorJson(e.what()));
    return;
  }
  const ByteSpan container = cur.Rest();
  std::optional<ContainerReader> reader;
  try {
    reader.emplace(container);
  } catch (const Error& e) {
    // No validated directory means nothing can be located; chunk-level
    // salvage has no offsets to work from, so this is terminal.
    rsp.status = Status::kCorrupt;
    AppendText(body.owned, ErrorJson(e.what()));
    return;
  }
  if (spec.field >= reader->num_fields() ||
      spec.timestep >= reader->field(spec.field).timesteps) {
    rsp.status = Status::kBadRequest;
    AppendText(body.owned, ErrorJson("query field/timestep out of range"));
    return;
  }
  if (reader->field(spec.field).dtype == DataType::kFloat64) {
    QueryJob<double>(*reader, spec, job.checksum_ok, degrade, rsp, body);
  } else {
    QueryJob<float>(*reader, spec, job.checksum_ok, degrade, rsp, body);
  }
}

}  // namespace szx::serve
