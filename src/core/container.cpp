#include "core/container.hpp"

#include <algorithm>
#include <bit>

#include "core/block_stats.hpp"
#include "core/compressor.hpp"
#include "core/executor.hpp"
#include "core/frame_encoder.hpp"
#include "core/integrity.hpp"
#include "core/random_access.hpp"
#include "core/stream.hpp"

namespace szx {
namespace {

// Fixed-size prefix of a per-field directory record; the name bytes follow.
#pragma pack(push, 1)
struct FieldRecord {
  std::uint32_t name_len = 0;
  std::uint8_t dtype = 0;
  std::uint8_t eb_mode = 0;
  std::uint8_t reserved[2] = {0, 0};
  std::uint32_t block_size = 0;
  double error_bound = 0.0;
  std::uint64_t elements_per_timestep = 0;
  std::uint64_t timesteps = 0;
  std::uint64_t chunk_elements = 0;
  std::uint64_t first_entry = 0;
};
#pragma pack(pop)
static_assert(sizeof(FieldRecord) == 52);

constexpr std::size_t kEntryBytes = 3 * sizeof(std::uint64_t);

std::uint64_t ChunksPerTimestep(std::uint64_t elements,
                                std::uint64_t chunk_elements) {
  return elements / chunk_elements + (elements % chunk_elements != 0 ? 1 : 0);
}

/// Decodes a whole chunk stream into a fresh shared buffer via per-worker
/// scratch (the cache-miss path).  The arena is reset here, so callers must
/// not hold live WorkerScratch allocations across DecompressRange.
template <SupportedFloat T>
ChunkCache::Value DecodeChunkToBuffer(ByteSpan stream,
                                      std::uint64_t chunk_count) {
  ScratchArena& arena = exec::Executor::WorkerScratch();
  arena.Reset();
  const std::span<T> tmp =
      arena.AllocateSpan<T>(CheckedNarrow<std::size_t>(chunk_count));
  DecompressInto<T>(stream, tmp);
  auto buf = std::make_shared<ByteBuffer>();
  buf->reserve(tmp.size_bytes());
  ByteWriter w(*buf);
  w.WriteBytes(tmp.empty() ? nullptr : tmp.data(), tmp.size_bytes());
  return buf;
}

/// Pre-decode plausibility probe shared by every chunk decode path: the
/// chunk stream must be a frame of T claiming exactly the element count the
/// directory geometry implies, and that count must pass the output bar
/// Decompress<T> applies (CheckedOutputCount), so a forged directory cannot
/// drive a huge scratch or output allocation before DecompressInto rejects
/// it.
template <SupportedFloat T>
void ProbeChunkStream(ByteSpan stream, std::uint64_t expected_elements) {
  const Header h = ParseHeaderAs<T>(stream);
  if (h.num_elements != expected_elements) {
    throw Error("szx: container chunk element count mismatch");
  }
  (void)CheckedOutputCount<T>(stream, h);
}

}  // namespace

bool IsContainer(ByteSpan bytes) {
  if (bytes.size() < kContainerMagic.size()) return false;
  for (std::size_t i = 0; i < kContainerMagic.size(); ++i) {
    if (std::to_integer<char>(bytes[i]) != kContainerMagic[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::uint32_t ContainerWriter::AddField(const FieldSpec& spec,
                                        DataType dtype) {
  if (finished_) {
    throw Error("szx: container writer already finished");
  }
  spec.params.Validate();
  if (spec.name.empty() || spec.name.size() > kMaxFieldNameBytes) {
    throw Error("szx: container field name empty or too long");
  }
  for (const PendingField& f : fields_) {
    if (f.spec.name == spec.name) {
      throw Error("szx: duplicate container field name '" + spec.name + "'");
    }
  }
  if (spec.elements_per_timestep == 0) {
    throw Error("szx: container field needs at least one element");
  }
  PendingField f;
  f.spec = spec;
  if (f.spec.chunk_elements == 0) {
    f.spec.chunk_elements = kDefaultChunkElements;
  }
  f.dtype = dtype;
  f.chunks_per_timestep =
      ChunksPerTimestep(f.spec.elements_per_timestep, f.spec.chunk_elements);
  fields_.push_back(std::move(f));
  return CheckedNarrow<std::uint32_t>(fields_.size() - 1);
}

template <SupportedFloat T>
void ContainerWriter::AppendTimestep(std::uint32_t field,
                                     std::span<const T> data,
                                     int max_threads) {
  if (finished_) {
    throw Error("szx: container writer already finished");
  }
  if (field >= fields_.size()) {
    throw Error("szx: container field index out of range");
  }
  PendingField& f = fields_[field];
  if (f.dtype != FloatTraits<T>::kTag) {
    throw Error("szx: container field element type mismatch");
  }
  if (data.size() != f.spec.elements_per_timestep) {
    throw Error("szx: timestep size disagrees with the field declaration");
  }
  const std::uint64_t ce = f.spec.chunk_elements;
  const std::uint64_t cpt = f.chunks_per_timestep;
  auto chunk_at = [&](std::uint64_t c) {
    const std::uint64_t begin = c * ce;
    const std::uint64_t count =
        std::min<std::uint64_t>(ce, data.size() - begin);
    return data.subspan(CheckedNarrow<std::size_t>(begin),
                        CheckedNarrow<std::size_t>(count));
  };
  // Resolve the value-range-relative bound once over the whole timestep, so
  // every chunk enforces the bound a single-stream compression would.  The
  // timestep's range is a per-chunk reduction on the pool (min/max merge in
  // any order), not a serial pass.  A zero resolved bound (constant or
  // non-finite data) keeps the relative mode per chunk: the per-chunk range
  // is then also zero, which yields the same all-constant / lossless
  // streams.
  Params chunk_params = f.spec.params;
  if (chunk_params.mode == ErrorBoundMode::kValueRangeRelative) {
    std::vector<GlobalRange<T>> ranges(CheckedNarrow<std::size_t>(cpt));
    exec::ParallelFor(cpt, max_threads, [&](std::uint64_t c) {
      ranges[c] = ComputeGlobalRange<T>(chunk_at(c));
    });
    GlobalRange<T> range;
    for (const GlobalRange<T>& r : ranges) range.Merge(r);
    const double abs_bound = AbsoluteBoundOf(chunk_params, range);
    if (abs_bound > 0.0) {
      chunk_params.mode = ErrorBoundMode::kAbsolute;
      chunk_params.error_bound = abs_bound;
    }
  }
  const std::size_t base = f.chunks.size();
  f.chunks.resize(base + CheckedNarrow<std::size_t>(cpt));
  std::vector<ByteBuffer>& chunks = f.chunks;
  exec::ParallelFor(cpt, max_threads, [&](std::uint64_t c) {
    // Per-worker arena: the frame view is only valid until the worker's
    // next CompressInto, so copy it out into the owned chunk buffer.
    const ByteSpan frame = CompressInto<T>(chunk_at(c), chunk_params,
                                           exec::Executor::WorkerScratch());
    chunks[base + CheckedNarrow<std::size_t>(c)].assign(frame.begin(),
                                                        frame.end());
  });
  ++f.timesteps;
}

ByteBuffer ContainerWriter::Finish() {
  if (finished_) {
    throw Error("szx: container writer already finished");
  }
  finished_ = true;
  std::uint64_t payload_bytes = 0;
  std::uint64_t total_entries = 0;
  std::uint64_t dir_bytes = kDirectoryTailBytes;
  for (const PendingField& f : fields_) {
    total_entries = CheckedAdd(total_entries, f.chunks.size());
    for (const ByteBuffer& c : f.chunks) {
      payload_bytes = CheckedAdd(payload_bytes, c.size());
    }
    dir_bytes = CheckedAdd(dir_bytes, sizeof(FieldRecord) + f.spec.name.size());
  }
  dir_bytes = CheckedAdd(dir_bytes, CheckedMul(total_entries, kEntryBytes));

  ContainerHeader h;
  h.num_fields = CheckedNarrow<std::uint32_t>(fields_.size());
  h.payload_bytes = payload_bytes;
  h.directory_offset = CheckedAdd(sizeof(ContainerHeader), payload_bytes);
  h.directory_bytes = dir_bytes;
  h.total_entries = total_entries;

  ByteBuffer out;
  out.reserve(CheckedNarrow<std::size_t>(
      CheckedAdd(h.directory_offset, dir_bytes)));
  ByteWriter w(out);
  w.Write(h);

  // Payload region: field-major, then timestep-major chunk order, with the
  // entry table built as a side effect.
  std::vector<ContainerChunkEntry> entries;
  entries.reserve(CheckedNarrow<std::size_t>(total_entries));
  std::vector<std::uint64_t> first_entry(fields_.size(), 0);
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    first_entry[i] = entries.size();
    for (const ByteBuffer& c : fields_[i].chunks) {
      ContainerChunkEntry e;
      e.offset = out.size();
      e.bytes = c.size();
      e.fnv = Fnv1a64(c);
      entries.push_back(e);
      w.WriteBytes(c.empty() ? nullptr : c.data(), c.size());
    }
  }

  // Directory: field records, entry table, self-checksummed trailer.
  const std::size_t dir_begin = out.size();
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    const PendingField& f = fields_[i];
    FieldRecord r;
    r.name_len = CheckedNarrow<std::uint32_t>(f.spec.name.size());
    r.dtype = static_cast<std::uint8_t>(f.dtype);
    r.eb_mode = static_cast<std::uint8_t>(f.spec.params.mode);
    r.block_size = f.spec.params.block_size;
    r.error_bound = f.spec.params.error_bound;
    r.elements_per_timestep = f.spec.elements_per_timestep;
    r.timesteps = f.timesteps;
    r.chunk_elements = f.spec.chunk_elements;
    r.first_entry = first_entry[i];
    w.Write(r);
    w.WriteBytes(f.spec.name.data(), f.spec.name.size());
  }
  for (const ContainerChunkEntry& e : entries) {
    w.Write(e.offset);
    w.Write(e.bytes);
    w.Write(e.fnv);
  }
  const ByteSpan dir_prefix = ByteSpan(out).subspan(dir_begin);
  w.Write(Fnv1a64(dir_prefix));
  w.Write(CheckedNarrow<std::uint32_t>(dir_bytes));
  for (const char c : kDirectoryMagic) {
    w.Write(static_cast<std::uint8_t>(c));
  }
  if (out.size() != CheckedAdd(h.directory_offset, dir_bytes)) {
    throw Error("szx: container writer size accounting bug");
  }
  return out;
}

template void ContainerWriter::AppendTimestep<float>(std::uint32_t,
                                                     std::span<const float>,
                                                     int);
template void ContainerWriter::AppendTimestep<double>(std::uint32_t,
                                                      std::span<const double>,
                                                      int);

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ContainerReader::ContainerReader(ByteSpan container, ChunkCache* cache)
    : container_(container),
      cache_(cache),
      stream_id_(cache != nullptr ? ChunkCache::NewStreamId() : 0) {
  ByteCursor cur(container);
  const auto h = cur.Read<ContainerHeader>();
  if (h.magic != kContainerMagic) {
    throw Error("szx: bad container magic");
  }
  if (h.version != kContainerVersion) {
    throw Error("szx: unsupported container version");
  }
  if (h.flags != 0 || h.reserved[0] != 0 || h.reserved[1] != 0 ||
      h.reserved2 != 0) {
    throw Error("szx: nonzero reserved container bytes");
  }
  if (CheckedAdd(sizeof(ContainerHeader), h.payload_bytes) !=
      h.directory_offset) {
    throw Error("szx: container directory offset mismatch");
  }
  if (CheckedAdd(h.directory_offset, h.directory_bytes) != container.size()) {
    throw Error("szx: container size disagrees with the header");
  }
  if (h.directory_bytes < kDirectoryTailBytes) {
    throw Error("szx: container directory shorter than its trailer");
  }
  cur.SkipArray(h.payload_bytes, 1);
  const ByteSpan dir = cur.Rest();

  // Self-checksummed trailer: reject a damaged directory before trusting
  // any offset in it (the directory mirror of the v2 footer tail).
  ByteCursor tail(dir.subspan(dir.size() - kDirectoryTailBytes));
  const auto dir_fnv = tail.Read<std::uint64_t>();
  const auto dir_len = tail.Read<std::uint32_t>();
  std::array<char, 4> dmagic;
  tail.ReadBytes(dmagic.data(), dmagic.size());
  if (dmagic != kDirectoryMagic || dir_len != h.directory_bytes) {
    throw Error("szx: container directory trailer mismatch");
  }
  const ByteSpan dir_body = dir.first(dir.size() - kDirectoryTailBytes);
  if (Fnv1a64(dir_body) != dir_fnv) {
    throw Error("szx: container directory checksum mismatch");
  }

  ByteCursor dcur(dir_body);
  fields_.reserve(h.num_fields);
  std::uint64_t expected_first = 0;
  for (std::uint32_t i = 0; i < h.num_fields; ++i) {
    const auto r = dcur.Read<FieldRecord>();
    if (r.name_len == 0 || r.name_len > kMaxFieldNameBytes) {
      throw Error("szx: container field name length out of range");
    }
    if (r.reserved[0] != 0 || r.reserved[1] != 0) {
      throw Error("szx: nonzero reserved container field bytes");
    }
    if (r.dtype > 1 || r.eb_mode > 2) {
      throw Error("szx: corrupt container field enums");
    }
    if (r.block_size < kMinBlockSize || r.block_size > kMaxBlockSize) {
      throw Error("szx: corrupt container field block size");
    }
    if (r.elements_per_timestep == 0 || r.chunk_elements == 0) {
      throw Error("szx: corrupt container field geometry");
    }
    if (r.first_entry != expected_first) {
      throw Error("szx: container field entries are not contiguous");
    }
    ContainerField f;
    const ByteSpan name = dcur.Slice(r.name_len);
    f.name.reserve(name.size());
    for (const std::byte b : name) {
      f.name.push_back(std::to_integer<char>(b));
    }
    for (const ContainerField& prev : fields_) {
      if (prev.name == f.name) {
        throw Error("szx: duplicate container field name '" + f.name + "'");
      }
    }
    f.dtype = static_cast<DataType>(r.dtype);
    f.eb_mode = static_cast<ErrorBoundMode>(r.eb_mode);
    f.error_bound = r.error_bound;
    f.block_size = r.block_size;
    f.elements_per_timestep = r.elements_per_timestep;
    f.timesteps = r.timesteps;
    f.chunk_elements = r.chunk_elements;
    f.chunks_per_timestep =
        ChunksPerTimestep(r.elements_per_timestep, r.chunk_elements);
    f.first_entry = r.first_entry;
    expected_first = CheckedAdd(
        expected_first, CheckedMul(f.timesteps, f.chunks_per_timestep));
    fields_.push_back(std::move(f));
  }
  if (expected_first != h.total_entries) {
    throw Error("szx: container entry count disagrees with its fields");
  }

  // Entry table: SliceArray proves the bytes exist before the vector is
  // sized, and every offset/length is validated against the payload region
  // so ChunkStream never needs to re-check.
  ByteCursor ecur(dcur.SliceArray(h.total_entries, kEntryBytes));
  if (!dcur.AtEnd()) {
    throw Error("szx: trailing bytes in container directory");
  }
  const std::size_t n_entries = CheckedNarrow<std::size_t>(h.total_entries);
  entries_.reserve(n_entries);
  for (std::size_t i = 0; i < n_entries; ++i) {
    ContainerChunkEntry e;
    e.offset = ecur.Read<std::uint64_t>();
    e.bytes = ecur.Read<std::uint64_t>();
    e.fnv = ecur.Read<std::uint64_t>();
    if (e.offset < sizeof(ContainerHeader) ||
        CheckedAdd(e.offset, e.bytes) > h.directory_offset) {
      throw Error("szx: container chunk entry out of bounds");
    }
    if (e.bytes < sizeof(Header)) {
      throw Error("szx: container chunk entry shorter than a stream header");
    }
    entries_.push_back(e);
  }
}

std::optional<std::uint32_t> ContainerReader::FindField(
    std::string_view name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  return std::nullopt;
}

std::uint64_t ContainerReader::EntryIndex(std::uint32_t field,
                                          std::uint64_t timestep,
                                          std::uint64_t chunk) const {
  if (field >= fields_.size()) {
    throw Error("szx: container field index out of range");
  }
  const ContainerField& f = fields_[field];
  if (timestep >= f.timesteps || chunk >= f.chunks_per_timestep) {
    throw Error("szx: container chunk coordinates out of range");
  }
  // Bounded by total_entries (validated in the constructor), so the
  // arithmetic cannot wrap.
  return f.first_entry + timestep * f.chunks_per_timestep + chunk;
}

ByteSpan ContainerReader::ChunkStream(std::uint64_t entry_index) const {
  if (entry_index >= entries_.size()) {
    throw Error("szx: container entry index out of range");
  }
  const ContainerChunkEntry& e = entries_[CheckedNarrow<std::size_t>(
      entry_index)];
  ByteCursor cur(container_);
  cur.SkipArray(e.offset, 1);
  return cur.SliceArray(e.bytes, 1);
}

bool ContainerReader::VerifyChunk(std::uint64_t entry_index) const {
  if (entry_index >= entries_.size()) {
    throw Error("szx: container entry index out of range");
  }
  return Fnv1a64(ChunkStream(entry_index)) ==
         entries_[CheckedNarrow<std::size_t>(entry_index)].fnv;
}

template <SupportedFloat T>
void ContainerReader::DecompressRange(std::uint32_t field,
                                      std::uint64_t timestep,
                                      std::uint64_t first, std::span<T> out,
                                      int max_threads) const {
  if (field >= fields_.size()) {
    throw Error("szx: container field index out of range");
  }
  const ContainerField& f = fields_[field];
  if (f.dtype != FloatTraits<T>::kTag) {
    throw Error("szx: container field element type mismatch");
  }
  if (timestep >= f.timesteps) {
    throw Error("szx: container timestep out of range");
  }
  const std::uint64_t count = out.size();
  // CheckedAdd: a (first, count) pair whose sum wraps can neither pass this
  // comparison nor reach the chunk arithmetic below (same contract as the
  // single-stream DecompressRangeInto).
  if (CheckedAdd(first, count) > f.elements_per_timestep) {
    throw Error("szx: range exceeds container field element count");
  }
  if (count == 0) return;
  const std::uint64_t ce = f.chunk_elements;
  const std::uint64_t c0 = first / ce;
  const std::uint64_t c1 = (first + count - 1) / ce;
  const std::uint64_t bound_bits = std::bit_cast<std::uint64_t>(f.error_bound);
  // Geometry of chunk `c` against the request: which elements the chunk
  // covers, which requested element it starts at, and the destination slice.
  struct ChunkSlice {
    std::uint64_t begin;  ///< first element the chunk covers
    std::uint64_t count;  ///< elements in the chunk (ragged tail < ce)
    std::uint64_t lo;     ///< first requested element inside the chunk
    std::span<T> dst;     ///< the slice of `out` this chunk fills
  };
  const auto slice_of = [&](std::uint64_t c) -> ChunkSlice {
    const std::uint64_t begin = c * ce;
    const std::uint64_t n =
        std::min<std::uint64_t>(ce, f.elements_per_timestep - begin);
    const std::uint64_t lo = std::max(first, begin);
    const std::uint64_t hi = std::min(first + count, begin + n);
    return {begin, n, lo,
            out.subspan(CheckedNarrow<std::size_t>(lo - first),
                        CheckedNarrow<std::size_t>(hi - lo))};
  };
  const auto decode_chunk = [&](std::uint64_t eidx,
                                std::uint64_t chunk_count) -> ByteSpan {
    const ByteSpan stream = ChunkStream(eidx);
    if (Fnv1a64(stream) !=
        entries_[CheckedNarrow<std::size_t>(eidx)].fnv) {
      throw Error("szx: container chunk checksum mismatch");
    }
    ProbeChunkStream<T>(stream, chunk_count);
    return stream;
  };
  if (cache_ != nullptr) {
    // Hit pass runs serially: a resident chunk costs a map probe plus a
    // bounds-checked slice copy, which is cheaper than a pool dispatch, so
    // an all-hit (warm) query never touches the executor.  Only the missing
    // chunks -- the ones paying an entropy decode each -- fan out.  Each
    // miss counted here leads to exactly one Insert below (the stats
    // conservation pinned by tests/core/test_chunk_cache.cpp).
    std::vector<std::uint64_t> missing;
    for (std::uint64_t c = c0; c <= c1; ++c) {
      const std::uint64_t eidx =
          f.first_entry + timestep * f.chunks_per_timestep + c;
      const ChunkCache::Value cached =
          cache_->Lookup(ChunkKey{stream_id_, eidx, bound_bits});
      if (cached == nullptr) {
        missing.push_back(c);
        continue;
      }
      const ChunkSlice s = slice_of(c);
      if (cached->size() != CheckedMul(s.count, sizeof(T))) {
        throw Error("szx: cached chunk size mismatch");
      }
      // Bounds-checked slice copy out of the cached bytes (zero-alloc).
      ByteCursor ccur{ByteSpan(*cached)};
      ccur.SkipArray(s.lo - s.begin, sizeof(T));
      ccur.ReadSpan(s.dst);
    }
    if (missing.empty()) return;
    exec::ParallelFor(missing.size(), max_threads, [&](std::uint64_t i) {
      const std::uint64_t c = missing[CheckedNarrow<std::size_t>(i)];
      const std::uint64_t eidx =
          f.first_entry + timestep * f.chunks_per_timestep + c;
      const ChunkSlice s = slice_of(c);
      const ByteSpan stream = decode_chunk(eidx, s.count);
      const ChunkCache::Value decoded =
          DecodeChunkToBuffer<T>(stream, s.count);
      cache_->Insert(ChunkKey{stream_id_, eidx, bound_bits}, decoded);
      ByteCursor ccur{ByteSpan(*decoded)};
      ccur.SkipArray(s.lo - s.begin, sizeof(T));
      ccur.ReadSpan(s.dst);
    });
    return;
  }
  exec::ParallelFor(c1 - c0 + 1, max_threads, [&](std::uint64_t i) {
    const std::uint64_t c = c0 + i;
    const std::uint64_t eidx =
        f.first_entry + timestep * f.chunks_per_timestep + c;
    const ChunkSlice s = slice_of(c);
    const ByteSpan stream = decode_chunk(eidx, s.count);
    if (s.dst.size() == s.count) {
      // Whole chunk requested: decode straight into the caller's slice.
      DecompressInto<T>(stream, s.dst);
      return;
    }
    // Ragged edge chunk: decode only the blocks the slice covers.
    DecompressRangeInto<T>(stream, s.lo - s.begin, s.dst);
  });
}

template <SupportedFloat T>
std::size_t ContainerReader::ProbeTimestep(std::uint32_t field,
                                           std::uint64_t timestep) const {
  if (field >= fields_.size()) {
    throw Error("szx: container field index out of range");
  }
  const ContainerField& f = fields_[field];
  if (timestep >= f.timesteps) {
    throw Error("szx: container timestep out of range");
  }
  // Probe every covered chunk before the caller sizes its output, so a
  // forged directory claiming a huge element count fails with a clean
  // szx::Error instead of bad_alloc (the container mirror of
  // DecodedElementCount's parse-before-allocate rule).
  for (std::uint64_t c = 0; c < f.chunks_per_timestep; ++c) {
    const std::uint64_t begin = c * f.chunk_elements;
    const std::uint64_t chunk_count = std::min<std::uint64_t>(
        f.chunk_elements, f.elements_per_timestep - begin);
    ProbeChunkStream<T>(ChunkStream(EntryIndex(field, timestep, c)),
                        chunk_count);
  }
  return CheckedNarrow<std::size_t>(f.elements_per_timestep);
}

template <SupportedFloat T>
std::vector<T> ContainerReader::DecompressTimestep(std::uint32_t field,
                                                   std::uint64_t timestep,
                                                   int max_threads) const {
  std::vector<T> out(ProbeTimestep<T>(field, timestep));
  DecompressRange<T>(field, timestep, 0, std::span<T>(out), max_threads);
  return out;
}

template void ContainerReader::DecompressRange<float>(std::uint32_t,
                                                      std::uint64_t,
                                                      std::uint64_t,
                                                      std::span<float>,
                                                      int) const;
template void ContainerReader::DecompressRange<double>(std::uint32_t,
                                                       std::uint64_t,
                                                       std::uint64_t,
                                                       std::span<double>,
                                                       int) const;
template std::size_t ContainerReader::ProbeTimestep<float>(
    std::uint32_t, std::uint64_t) const;
template std::size_t ContainerReader::ProbeTimestep<double>(
    std::uint32_t, std::uint64_t) const;
template std::vector<float> ContainerReader::DecompressTimestep<float>(
    std::uint32_t, std::uint64_t, int) const;
template std::vector<double> ContainerReader::DecompressTimestep<double>(
    std::uint32_t, std::uint64_t, int) const;

}  // namespace szx
