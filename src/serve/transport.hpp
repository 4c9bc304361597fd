// Byte-stream transport abstraction for szx-serve.
//
// The server and client speak the SZXQ/SZXR frame protocol over a
// Transport: the TCP daemon (tools/szx_serve) wraps a socket fd, while the
// unit/chaos tests and the in-process bench use MemoryTransport -- a
// bounded, deterministic duplex pipe whose writers BLOCK when the peer
// stops reading.  That bounded buffer is the load-bearing property: it is
// how backpressure propagates (a server that stops reading stalls the
// client's writes instead of buffering unboundedly), and it is what the
// chaos suite's saturation test measures.
//
// Blocking contract: Read and Write may block indefinitely; Close (either
// end, either direction) wakes every blocked caller.  All methods are
// thread-safe -- the server reads frames on a connection thread while pool
// workers write responses to the same transport (serialized by the
// connection's write lock, but Close can race both).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/common.hpp"
#include "core/sync.hpp"

namespace szx::serve {

/// Hard transport failure (peer vanished, pipe closed under a writer).
/// Distinct from szx::Error: stream corruption is a job-level outcome with
/// a typed response, a TransportError ends the connection.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocking read of up to out.size() bytes; returns the count actually
  /// read (>= 1), or 0 at end-of-stream (peer closed its write side).
  /// Throws TransportError on hard failure.
  [[nodiscard]] virtual std::size_t Read(std::span<std::byte> out) = 0;

  /// Blocking write of the whole span (blocks while the peer's buffer is
  /// full -- this is the backpressure edge).  Throws TransportError when
  /// the stream is closed.
  virtual void Write(ByteSpan data) = 0;

  /// Gather write: the parts in order, on the wire exactly as if they had
  /// been concatenated and passed to one Write (empty parts are allowed).
  /// This is how a frame leaves as {header, body parts, checksum} without
  /// being copied into one buffer first.  The default loops Write; a
  /// socket transport overrides it with writev.  Same blocking and error
  /// contract as Write.
  virtual void WriteParts(std::span<const ByteSpan> parts) {
    for (const ByteSpan part : parts) Write(part);
  }

  /// Half-close: the peer's reads drain the buffer then see EOF; further
  /// writes from this end throw.
  virtual void ShutdownWrite() = 0;

  /// Full close of both directions; wakes every blocked reader/writer on
  /// either end.  Idempotent.
  virtual void Close() = 0;
};

/// Reads exactly out.size() bytes.  Returns false if the stream ended
/// cleanly at byte zero (no partial frame); throws TransportError if it
/// ended mid-buffer (torn frame -- the caller decides how to degrade).
[[nodiscard]] bool ReadExact(Transport& t, std::span<std::byte> out);

/// Reads exactly out.size() bytes, returning how many arrived before EOF
/// (never throws for a short stream; hard transport failures still throw).
[[nodiscard]] std::size_t ReadUpToEof(Transport& t, std::span<std::byte> out);

/// One direction of a MemoryTransport pair: a bounded ring of bytes with
/// blocking reads/writes and explicit close semantics.
class MemoryPipe {
 public:
  explicit MemoryPipe(std::size_t capacity);

  [[nodiscard]] std::size_t Read(std::span<std::byte> out)
      SZX_EXCLUDES(m_);
  void Write(ByteSpan data) SZX_EXCLUDES(m_);
  void CloseWrite() SZX_EXCLUDES(m_);
  void CloseAll() SZX_EXCLUDES(m_);

  /// Bytes currently buffered (telemetry for the backpressure tests: never
  /// exceeds the construction capacity by design).
  [[nodiscard]] std::size_t buffered() SZX_EXCLUDES(m_);

 private:
  sync::Mutex m_;
  sync::CondVar readable_;
  sync::CondVar writable_;
  std::vector<std::byte> ring_ SZX_GUARDED_BY(m_);
  std::size_t head_ SZX_GUARDED_BY(m_) = 0;  ///< next byte to read
  std::size_t size_ SZX_GUARDED_BY(m_) = 0;  ///< bytes buffered
  bool write_closed_ SZX_GUARDED_BY(m_) = false;
  bool hard_closed_ SZX_GUARDED_BY(m_) = false;
};

/// Transport endpoint over two shared pipes (one per direction).
class MemoryTransport final : public Transport {
 public:
  MemoryTransport(std::shared_ptr<MemoryPipe> in,
                  std::shared_ptr<MemoryPipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  [[nodiscard]] std::size_t Read(std::span<std::byte> out) override {
    return in_->Read(out);
  }
  void Write(ByteSpan data) override { out_->Write(data); }
  void ShutdownWrite() override { out_->CloseWrite(); }
  void Close() override {
    in_->CloseAll();
    out_->CloseAll();
  }

  /// Bytes queued toward this endpoint (its unread inbox).
  [[nodiscard]] std::size_t inbox_buffered() { return in_->buffered(); }

 private:
  std::shared_ptr<MemoryPipe> in_;
  std::shared_ptr<MemoryPipe> out_;
};

struct TransportPair {
  std::unique_ptr<MemoryTransport> client;
  std::unique_ptr<MemoryTransport> server;
};

/// Connected duplex pair; each direction buffers at most `capacity` bytes
/// before writers block.
[[nodiscard]] TransportPair MakeMemoryTransportPair(
    std::size_t capacity = std::size_t{64} << 10);

}  // namespace szx::serve
