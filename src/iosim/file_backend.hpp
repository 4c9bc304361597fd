// Real-file chunked I/O backend: the bridge between the analytic PFS
// models in this directory and real files.  A ChunkFileWriter appends
// fixed-order chunks to a file on disk (optionally mutated in flight -- the
// hook the fault-class tests use to corrupt frames mid-pipeline), and a
// ChunkFileReader streams them back with a deterministic transient-failure
// model and bounded retries that must neither lose nor duplicate a chunk.
//
// Both classes sit on raw positioned file descriptors and speak the POSIX
// contract honestly: a syscall may move fewer bytes than asked (short I/O)
// or fail with EINTR, and the backend resumes from the exact byte where it
// stopped -- bounded, so a stuck descriptor turns into an error instead of
// a livelock.  The raw ops are injectable (set_raw_read / set_raw_write),
// which is how the unit tests drive interrupted-syscall schedules without
// a kernel's help.
//
// Deliberately independent of src/core: buffers are std::vector<std::byte>
// / std::span<std::byte> and the mutator is a std::function, so tests can
// plug in testkit's InjectFault without iosim linking against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace szx::iosim {

/// Hook applied to each chunk in flight (fault injection in tests).  The
/// chunk may be resized or rewritten arbitrarily; what the hook leaves in
/// the vector is what reaches the file.
using ChunkMutator =
    std::function<void(std::uint64_t chunk_index, std::vector<std::byte>& chunk)>;

/// Raw positioned read with POSIX semantics: returns bytes read (possibly
/// fewer than `n` -- a short read), 0 at end of file, or -1 with `err` set
/// (EINTR means "interrupted, same call may succeed if repeated").
using RawReadOp = std::function<long long(
    std::byte* dst, std::size_t n, std::uint64_t offset, int& err)>;

/// Raw append write with POSIX semantics: returns bytes written (possibly
/// fewer than `n` -- a short write), or -1 with `err` set.
using RawWriteOp =
    std::function<long long(const std::byte* src, std::size_t n, int& err)>;

struct FileIoStats {
  std::uint64_t chunks = 0;    ///< chunks written / successfully read
  std::uint64_t bytes = 0;     ///< payload bytes through the backend
  std::uint64_t attempts = 0;  ///< read attempts, including retries
  std::uint64_t retries = 0;   ///< attempts beyond each chunk's first
  std::uint64_t mutated = 0;   ///< chunks the mutator touched
  std::uint64_t short_ios = 0;       ///< syscalls that moved fewer bytes than asked
  std::uint64_t eintr_retries = 0;   ///< syscalls repeated after EINTR
};

/// Deterministic transient-failure model for reads: the first attempt at
/// every `period`-th chunk (1-based ordinal divisible by period) fails and
/// is retried from the same file offset.  period == 0 disables injection.
struct TransientReadFaults {
  std::uint64_t period = 0;
  int max_attempts = 3;  ///< per chunk, >= 1
};

class ChunkFileWriter {
 public:
  /// Creates/truncates `path`; throws std::runtime_error on failure.
  explicit ChunkFileWriter(const std::string& path);
  ~ChunkFileWriter();
  ChunkFileWriter(const ChunkFileWriter&) = delete;
  ChunkFileWriter& operator=(const ChunkFileWriter&) = delete;

  void set_mutator(ChunkMutator mutator) { mutator_ = std::move(mutator); }

  /// Replaces the raw write op (tests: EINTR / short-write injection).  The
  /// current op is returned so a test can wrap the real one rather than
  /// reimplement it.  Passing an empty op restores the real syscall.
  RawWriteOp set_raw_write(RawWriteOp op);

  /// Applies the mutator to a private copy, then appends it to the file.
  /// Short writes are resumed from the exact interrupted byte and EINTR is
  /// retried, both under a bounded budget; on exhaustion or a hard error
  /// this throws std::runtime_error with the file position intact.
  void WriteChunk(std::span<const std::byte> chunk);

  /// Flushes and closes; implicit in the destructor, explicit for tests
  /// that reopen the file for reading.  Throws on close failure.
  void Close();

  const FileIoStats& stats() const { return stats_; }

 private:
  void WriteFull(std::span<const std::byte> data);

  int fd_ = -1;
  std::string path_;
  ChunkMutator mutator_;
  RawWriteOp raw_write_;  ///< empty = real ::write on fd_
  std::vector<std::byte> scratch_;
  FileIoStats stats_;
};

class ChunkFileReader {
 public:
  /// Opens `path`; throws std::runtime_error on failure.
  explicit ChunkFileReader(const std::string& path,
                           TransientReadFaults faults = {});
  ~ChunkFileReader();
  ChunkFileReader(const ChunkFileReader&) = delete;
  ChunkFileReader& operator=(const ChunkFileReader&) = delete;

  /// Replaces the raw read op (tests: EINTR / short-read injection); see
  /// set_raw_write.  Passing an empty op restores the real syscall.
  RawReadOp set_raw_read(RawReadOp op);

  /// Reads up to out.size() bytes into `out`; returns the byte count (0 at
  /// end of file).  An injected transient failure abandons the attempt and
  /// retries from the chunk's start offset -- the reread starts at the
  /// identical offset, so retried chunks are neither lost nor duplicated
  /// (asserted by stats and the pipeline fault tests).  Within an attempt,
  /// short reads are resumed byte-exactly and EINTR is retried under a
  /// bounded budget, so an interrupted syscall never surfaces as a torn
  /// chunk.  Throws std::runtime_error when a budget is exhausted.
  std::size_t ReadChunk(std::span<std::byte> out);

  const FileIoStats& stats() const { return stats_; }

 private:
  std::size_t ReadFullAt(std::span<std::byte> out, std::uint64_t offset);

  int fd_ = -1;
  std::string path_;
  TransientReadFaults faults_;
  RawReadOp raw_read_;  ///< empty = real ::pread on fd_
  FileIoStats stats_;
  std::uint64_t next_offset_ = 0;  ///< file offset of the next chunk
};

/// Convenience: total size of `path` in bytes (for chunk-count planning);
/// throws std::runtime_error when the file cannot be stat'ed.
std::uint64_t FileSizeBytes(const std::string& path);

}  // namespace szx::iosim
