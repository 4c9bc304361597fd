// Format v3: a seekable multi-field container (docs/FORMAT.md "Format v3").
//
// A v1/v2 stream is one field decoded front-to-back; database-style
// workloads (query a slice of one field out of a multi-field, multi-
// timestep dump) need random access.  A container packs
//
//   [ContainerHeader : 48 bytes, magic "SZX3"]
//   [chunk payload   : concatenated self-contained SZX1/SZX2 streams]
//   [directory       : per-field records + chunk entry table + trailer]
//
// Every chunk is a complete stream (header + sections + payload) covering
// `chunk_elements` consecutive elements of one (field, timestep), so any
// chunk decodes with the ordinary serial/parallel machinery and the v2
// integrity/salvage pipeline applies per chunk.  The directory stores an
// explicit (offset, bytes, fnv) entry per chunk, giving O(1) seek to any
// (field, timestep, chunk-range) with zero prefix-sum work at query time:
//
//   entry = field.first_entry + timestep * chunks_per_timestep + chunk
//
// The directory ends in a self-checksummed 16-byte trailer
// (dir_fnv | dir_bytes | "SZXD") mirroring the v2 footer tail, so a reader
// rejects a damaged directory before trusting any offset in it, and a
// damaged *chunk* (entry checksum mismatch) quarantines only the elements
// that chunk covers (src/resilience/container_salvage.hpp).
//
// ContainerReader::DecompressRange extends the single-stream
// random_access.hpp path across chunk boundaries: covered chunks run
// through exec::ParallelFor, fully-covered chunks decode straight into the
// caller's slice, and a ragged edge chunk goes through DecompressRangeInto,
// which decodes only the blocks its slice covers.  An optional ChunkCache (core/chunk_cache.hpp) retains decoded
// chunk bytes keyed by (reader stream id, entry, error-bound bits) so
// repeated ROI queries over hot regions skip decode entirely; cache hits
// are drained serially before the misses fan out, so an all-hit query is a
// straight sequence of probe + slice copies with no executor dispatch.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/bitops.hpp"
#include "core/chunk_cache.hpp"
#include "core/common.hpp"
#include "core/format.hpp"

namespace szx {

inline constexpr std::array<char, 4> kContainerMagic = {'S', 'Z', 'X', '3'};
inline constexpr std::array<char, 4> kDirectoryMagic = {'S', 'Z', 'X', 'D'};
inline constexpr std::uint8_t kContainerVersion = 1;
/// Directory trailer: u64 dir_fnv | u32 dir_bytes | "SZXD".
inline constexpr std::size_t kDirectoryTailBytes = 16;
/// Default elements per chunk when a field spec leaves it 0: big enough
/// that per-chunk stream overhead is negligible, small enough that an ROI
/// query decodes little beyond what it asked for.
inline constexpr std::uint64_t kDefaultChunkElements = 1u << 16;
/// Upper bound on field-name bytes (directory sanity check).
inline constexpr std::size_t kMaxFieldNameBytes = 256;

#pragma pack(push, 1)
struct ContainerHeader {
  std::array<char, 4> magic = kContainerMagic;
  std::uint8_t version = kContainerVersion;
  std::uint8_t flags = 0;
  std::uint8_t reserved[2] = {0, 0};
  std::uint32_t num_fields = 0;
  std::uint32_t reserved2 = 0;
  std::uint64_t payload_bytes = 0;      ///< chunk payload region size
  std::uint64_t directory_offset = 0;   ///< == sizeof(Header) + payload
  std::uint64_t directory_bytes = 0;    ///< includes the 16-byte trailer
  std::uint64_t total_entries = 0;      ///< sum over fields of ts * cpt
};
#pragma pack(pop)
static_assert(sizeof(ContainerHeader) == 48);

/// True iff `bytes` starts with the container magic (cheap format sniff for
/// the CLI; full validation happens in the ContainerReader constructor).
[[nodiscard]] bool IsContainer(ByteSpan bytes);

/// Directory entry: one self-contained chunk stream.
struct ContainerChunkEntry {
  std::uint64_t offset = 0;  ///< absolute byte offset in the container
  std::uint64_t bytes = 0;
  std::uint64_t fnv = 0;     ///< FNV-1a of the chunk stream bytes
};

/// Parsed per-field directory record.
struct ContainerField {
  std::string name;
  DataType dtype = DataType::kFloat32;
  ErrorBoundMode eb_mode = ErrorBoundMode::kValueRangeRelative;
  double error_bound = 0.0;           ///< bound as supplied by the packer
  std::uint32_t block_size = 0;
  std::uint64_t elements_per_timestep = 0;
  std::uint64_t timesteps = 0;
  std::uint64_t chunk_elements = 0;
  std::uint64_t chunks_per_timestep = 0;  ///< derived: ceil(ept / ce)
  std::uint64_t first_entry = 0;          ///< index into the entry table
};

/// Builds a container in memory: declare fields, append timesteps (chunks
/// compress in parallel), then Finish() once.  Not thread-safe; one writer
/// per thread.
class ContainerWriter {
 public:
  struct FieldSpec {
    std::string name;
    Params params;  ///< bound mode/value, block size, solution, integrity
    std::uint64_t elements_per_timestep = 0;
    std::uint64_t chunk_elements = 0;  ///< 0 -> kDefaultChunkElements
  };

  /// Declares a field; returns its index.  Throws on empty/duplicate/too
  /// long names, zero elements, or invalid Params.
  std::uint32_t AddField(const FieldSpec& spec, DataType dtype);

  /// Compresses one timestep of `field` into chunk streams (parallel over
  /// chunks via exec::ParallelFor).  `data.size()` must equal the field's
  /// elements_per_timestep and T must match its dtype.  For the
  /// value-range-relative mode the absolute bound is resolved once over the
  /// whole timestep so every chunk enforces the same bound a single-stream
  /// compression of the timestep would.
  template <SupportedFloat T>
  void AppendTimestep(std::uint32_t field, std::span<const T> data,
                      int max_threads = 0);

  /// Assembles header + payload + directory.  The writer is spent
  /// afterwards (further Append/Finish calls throw).
  [[nodiscard]] ByteBuffer Finish();

 private:
  struct PendingField {
    FieldSpec spec;
    DataType dtype = DataType::kFloat32;
    std::uint64_t chunks_per_timestep = 0;
    std::uint64_t timesteps = 0;
    std::vector<ByteBuffer> chunks;  ///< timestep-major, then chunk order
  };

  std::vector<PendingField> fields_;
  bool finished_ = false;
};

/// Zero-copy reader over a container byte span (the span must outlive the
/// reader).  The constructor validates the header, the directory trailer
/// checksum, and every entry's bounds before any offset is trusted; a
/// malformed container throws szx::Error and a reader is never constructed
/// over one.  Const methods are safe to call concurrently.
class ContainerReader {
 public:
  /// `cache` may be nullptr (no caching).  A non-null cache may be shared
  /// between readers and threads; this reader's entries are scoped under a
  /// fresh process-unique stream id.
  explicit ContainerReader(ByteSpan container, ChunkCache* cache = nullptr);

  [[nodiscard]] std::size_t num_fields() const { return fields_.size(); }
  [[nodiscard]] const ContainerField& field(std::size_t i) const {
    return fields_.at(i);
  }
  [[nodiscard]] std::optional<std::uint32_t> FindField(
      std::string_view name) const;

  /// Directory entry index of (field, timestep, chunk) -- the O(1) seek.
  /// Bounds-checked against the field's extents.
  [[nodiscard]] std::uint64_t EntryIndex(std::uint32_t field,
                                         std::uint64_t timestep,
                                         std::uint64_t chunk) const;
  [[nodiscard]] const ContainerChunkEntry& entry(std::uint64_t index) const {
    return entries_.at(index);
  }
  [[nodiscard]] std::uint64_t num_entries() const { return entries_.size(); }

  /// The chunk's stream bytes (offset/bytes were validated at construction;
  /// this does not verify the chunk checksum -- decode paths do).
  [[nodiscard]] ByteSpan ChunkStream(std::uint64_t entry_index) const;

  /// True iff the chunk bytes hash to the directory checksum.
  [[nodiscard]] bool VerifyChunk(std::uint64_t entry_index) const;

  /// Decompresses elements [first, first + out.size()) of one (field,
  /// timestep) into `out`.  Only the covered chunks are touched; they run
  /// through exec::ParallelFor with at most `max_threads` workers (<= 0
  /// resolves via SZX_THREADS).  Each decoded chunk is checksum-verified
  /// (damage throws szx::Error; see resilience/container_salvage.hpp for
  /// the degrade-instead-of-throw path).  T must match the field dtype.
  template <SupportedFloat T>
  void DecompressRange(std::uint32_t field, std::uint64_t timestep,
                       std::uint64_t first, std::span<T> out,
                       int max_threads = 0) const;

  /// Element count of one (field, timestep), returned only after every
  /// chunk stream it covers has passed the parse-before-allocate probe
  /// (dtype, element count and size plausibility), so a forged directory
  /// throws szx::Error before the caller sizes an output buffer.  T must
  /// match the field dtype.
  template <SupportedFloat T>
  [[nodiscard]] std::size_t ProbeTimestep(std::uint32_t field,
                                          std::uint64_t timestep) const;

  /// Whole-timestep convenience: ProbeTimestep, then DecompressRange.
  template <SupportedFloat T>
  [[nodiscard]] std::vector<T> DecompressTimestep(std::uint32_t field,
                                                  std::uint64_t timestep,
                                                  int max_threads = 0) const;

  /// Cache-key scope of this reader (process-unique; 0 when uncached).
  [[nodiscard]] std::uint64_t stream_id() const { return stream_id_; }

 private:
  ByteSpan container_;
  ChunkCache* cache_ = nullptr;
  std::uint64_t stream_id_ = 0;
  std::vector<ContainerField> fields_;
  std::vector<ContainerChunkEntry> entries_;
};

}  // namespace szx
