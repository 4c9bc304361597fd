// Streaming frame container: compress an unbounded sequence of chunks
// (detector frames, simulation timesteps) with bounded memory -- the
// paper's online-instrument use case (Sec. 1, LCLS-II).
//
// Container layout:
//   "SZXS" | u8 version | u8 dtype | u16 reserved
//   v1 frame: u64 frame_bytes | u64 fnv1a(frame) | SZx stream
//   v2 frame: "SZXFRAME" | u64 frame_bytes | u64 fnv1a(frame) | SZx stream
//
// Each frame is an independent SZx stream, so a corrupted frame is
// detected (checksum) and later frames remain decodable after a reader
// resynchronizes on the recorded sizes.  Version 2 (opt-in via
// StreamWriterOptions::resync_markers) prefixes every frame with a
// self-synchronization marker so NextOrSkip can scan past a frame whose
// length field itself is corrupt; in v1 a corrupt length makes the rest of
// the container unrecoverable.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/compressor.hpp"
#include "core/integrity.hpp"

namespace szx {

/// Streaming container options (the Params analog for the container layer).
struct StreamWriterOptions {
  /// Write container version 2 with a per-frame resync marker.  Costs 8
  /// bytes per frame; enables NextOrSkip recovery past corrupt length
  /// fields.  Off by default: v1 containers stay byte-identical.
  bool resync_markers = false;
};

/// Outcome bookkeeping for StreamReader::NextOrSkip.
struct SkipInfo {
  std::uint64_t frames_skipped = 0;  ///< damaged regions abandoned
  std::uint64_t bytes_skipped = 0;   ///< container bytes stepped over
  std::string last_error;            ///< most recent failure description
};

template <SupportedFloat T>
class StreamWriter {
 public:
  explicit StreamWriter(const Params& params)
      : StreamWriter(params, StreamWriterOptions{}) {}
  StreamWriter(const Params& params, const StreamWriterOptions& options);

  /// Compresses one chunk and appends it as a frame.  Throws szx::Error if
  /// the writer was already finished.
  void Append(std::span<const T> chunk);

  /// Returns the finished container and poisons the writer: any further
  /// Append or Finish throws szx::Error (the move-out left nothing valid
  /// to reuse; create a new writer instead).
  [[nodiscard]] ByteBuffer Finish() &&;

  std::uint64_t frames() const { return frames_; }
  std::uint64_t raw_bytes() const { return raw_bytes_; }
  std::uint64_t compressed_bytes() const { return buffer_.size(); }

 private:
  // Single-owner state: a StreamWriter is confined to one thread at a time
  // (Append internally fans out over the executor, but the Batch join
  // inside CompressInto completes before Append returns, so these members
  // are never touched concurrently).
  Params params_ SZX_SYNCHRONIZED_BY(single_owner);
  StreamWriterOptions options_ SZX_SYNCHRONIZED_BY(single_owner);
  ByteBuffer buffer_ SZX_SYNCHRONIZED_BY(single_owner);
  // Owned compression scratch: frames are encoded via CompressInto, so
  // appending same-shaped chunks stops allocating once the arena and the
  // container buffer reach their high-water sizes.
  ScratchArena arena_ SZX_SYNCHRONIZED_BY(single_owner);
  std::uint64_t frames_ SZX_SYNCHRONIZED_BY(single_owner) = 0;
  std::uint64_t raw_bytes_ SZX_SYNCHRONIZED_BY(single_owner) = 0;
  bool finished_ SZX_SYNCHRONIZED_BY(single_owner) = false;
};

template <SupportedFloat T>
class StreamReader {
 public:
  /// Validates the container header; throws szx::Error on mismatch.
  /// Accepts container versions 1 and 2.
  explicit StreamReader(ByteSpan container);

  /// Decompresses the next frame into `out`.  Returns false cleanly at
  /// end of container; throws on truncation or checksum mismatch.
  [[nodiscard]] bool Next(std::vector<T>& out);

  /// Recovery variant of Next: on a damaged frame, skips forward instead of
  /// throwing.  In a v2 container the reader scans for the next frame
  /// marker and validates candidates by decoding, so even a corrupt length
  /// field loses only the damaged frame; in v1, a frame whose bounds are
  /// readable (checksum or decode failure) is stepped over, while a corrupt
  /// length field abandons the remaining tail.  Returns true with a decoded
  /// frame in `out`, false when the container is exhausted.  Never throws
  /// for data-dependent damage; `info` (optional) accumulates what was
  /// skipped.
  [[nodiscard]] bool NextOrSkip(std::vector<T>& out, SkipInfo* info = nullptr);

  /// Decode threads for subsequent Next calls: 1 (default) decodes frames
  /// serially; 0 uses the executor default width (exec::DefaultThreads);
  /// N > 1 decodes each frame through the parallel chunk-directory decoder
  /// on the work-stealing pool.
  void set_num_threads(int num_threads) { num_threads_ = num_threads; }
  int num_threads() const { return num_threads_; }

  std::uint64_t frames_read() const { return frames_read_; }

 private:
  /// Parses and decodes the frame at `pos`; returns the end offset of the
  /// frame on success.  Throws szx::Error on any damage.
  std::size_t DecodeFrameAt(std::size_t pos, std::vector<T>& out,
                            bool* bounds_known, std::size_t* frame_end);

  std::size_t FrameHeaderBytes() const;

  // Single-owner state: Next/NextOrSkip fan frame decode out over the
  // executor, but DecodeOmpInto's ParallelFor barrier completes before the
  // reader's position advances, so no member is ever shared across threads.
  ByteSpan container_ SZX_SYNCHRONIZED_BY(single_owner);
  std::size_t pos_ SZX_SYNCHRONIZED_BY(single_owner) = 0;
  int num_threads_ SZX_SYNCHRONIZED_BY(single_owner) = 1;
  std::uint8_t version_ SZX_SYNCHRONIZED_BY(single_owner) = 1;
  std::uint64_t frames_read_ SZX_SYNCHRONIZED_BY(single_owner) = 0;
};

}  // namespace szx
