// Shared chunk directory and block walk for frame decoding (the decode
// mirror of the chunk-parallel encoder's block chunking).
//
// A compressed frame stores per-block metadata as flat sections plus a
// per-block payload-size array (format.hpp); decoding block k needs three
// running counters — how many constant blocks, non-constant blocks, and
// payload bytes precede it.  Serial decoders derive them by walking every
// block; parallel decoders need them at arbitrary chunk boundaries.
//
// This header hoists that derivation into one place: a ChunkRef records a
// block range plus its three section bases, and the builder computes them
// with a two-pass tally (type-bit popcounts, then zsize sums over each
// chunk's non-constant index range) followed by exclusive prefix sums and
// global validation against the header.  Every byte examined goes through
// the bounds-checked Sections accessors / ByteCursor, and a directory whose
// totals disagree with the header (forged type bits, lying zsize table) is
// rejected before any block is decoded.
//
// BuildChunkRefs runs both passes serially on the calling thread for every
// caller: the chunked decoder at any width, salvage, the range decoder,
// stream validation, the integrity footer and the cusim grid stage.  The
// passes read only the type-bit and zsize sections, a small fraction of
// the frame, so they stay far below the parallel block decode
// (docs/performance.md), and they are no cancellation point.  The range
// decoder calls the two tally steps directly for one block range.
//
// WalkBlocks is the one block walk: it advances the three counters from a
// ChunkRef, raises the per-block overflow errors, and hands every block to
// its caller.  Its callers are DecodeChunkInto (chunked and salvage
// decode), DecompressRangeInto (random_access.cpp), ValidateStream
// (validate.cpp) and cusim::DecompressCuda.  Salvage's mu fill and its
// footer-less fallback keep their own walks; salvage.cpp says why.
//
// Nothing here locates a section or checks the element type: every walk
// starts from a Sections<T> that format.hpp's ParseSections sliced, after
// refusing a frame whose header names another element type.
#pragma once

#include <algorithm>
#include <bit>
#include <span>

#include "core/encode.hpp"
#include "core/format.hpp"
#include "core/kernels/kernels.hpp"

namespace szx {

/// One contiguous run of blocks [first_block, last_block) with the running
/// section counters at its start.
struct ChunkRef {
  std::uint64_t first_block = 0;
  std::uint64_t last_block = 0;     ///< exclusive
  std::uint64_t const_base = 0;     ///< constant blocks before first_block
  std::uint64_t ncb_base = 0;       ///< non-constant blocks before first_block
  std::uint64_t payload_base = 0;   ///< payload bytes before first_block
};

/// Largest useful chunk count for a frame: boundaries must sit on type-bit
/// byte boundaries, so each chunk needs at least 8 blocks.
inline std::uint64_t MaxUsefulChunks(std::uint64_t num_blocks) {
  return num_blocks == 0 ? 1 : (num_blocks + 7) / 8;
}

/// Fills in [first_block, last_block) for every chunk: near-equal shares
/// rounded up to multiples of 8 blocks (overflow-safe split; the last chunk
/// absorbs the remainder).
inline void SetChunkBounds(std::uint64_t num_blocks,
                           std::span<ChunkRef> chunks) {
  const std::uint64_t n = static_cast<std::uint64_t>(chunks.size());
  std::uint64_t prev = 0;
  for (std::uint64_t c = 0; c < n; ++c) {
    std::uint64_t b = num_blocks;
    if (c + 1 < n) {
      b = num_blocks / n * (c + 1) + num_blocks % n * (c + 1) / n;
      b = (b + 7) / 8 * 8;
      b = std::min(b, num_blocks);
    }
    chunks[c].first_block = prev;
    chunks[c].last_block = b;
    prev = b;
  }
}

/// Tally pass 1 (per chunk): non-constant blocks in
/// [first, last).  `first` is a multiple of 8, so whole type bytes can be
/// popcounted; the ragged tail falls back to bit tests.
inline std::uint64_t CountNonConstant(ByteSpan type_bits, std::uint64_t first,
                                      std::uint64_t last) {
  std::uint64_t cnt = 0;
  std::uint64_t k = first;
  for (; k + 8 <= last; k += 8) {
    cnt += static_cast<std::uint64_t>(
        std::popcount(std::to_integer<unsigned>(type_bits[k >> 3])));
  }
  for (; k < last; ++k) {
    cnt += IsNonConstant(type_bits, k) ? 1 : 0;
  }
  return cnt;
}

/// Tally pass 2 (per chunk): total payload bytes of non-constant blocks
/// [ncb_first, ncb_first + ncb_count), bounds-checked against the zsize
/// section.
inline std::uint64_t SumZsizes(ByteSpan zsize_section, std::uint64_t ncb_first,
                               std::uint64_t ncb_count) {
  ByteCursor cur(zsize_section);
  cur.SkipArray(ncb_first, 2);
  const ByteSpan entries = cur.SliceArray(ncb_count, 2);  // one bounds check
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < entries.size(); i += 2) {
    sum += LoadWord<std::uint16_t>(entries.subspan(i, 2).data());
  }
  return sum;
}

/// The directory build: bounds, then both tally passes, each folded into
/// exclusive prefix bases and validated against the header (a forged
/// type-bit section or a lying zsize table throws).  `chunks` must be
/// non-empty; a single ChunkRef validates a whole frame in one pass.
template <SupportedFloat T>
inline void BuildChunkRefs(const Sections<T>& s, std::span<ChunkRef> chunks) {
  const Header& h = s.header;
  SetChunkBounds(h.num_blocks, chunks);
  std::uint64_t ncb = 0;
  for (ChunkRef& c : chunks) {
    c.ncb_base = ncb;
    c.const_base = c.first_block - ncb;
    ncb += CountNonConstant(s.type_bits, c.first_block, c.last_block);
  }
  if (ncb != h.num_blocks - h.num_constant ||
      h.num_blocks - ncb != h.num_constant ||
      chunks.back().last_block != h.num_blocks) {
    throw Error("szx: corrupt stream (type bit counts mismatch)");
  }
  std::uint64_t payload = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const std::uint64_t next =
        i + 1 < chunks.size() ? chunks[i + 1].ncb_base : ncb;
    chunks[i].payload_base = payload;
    payload += SumZsizes(s.ncb_zsize, chunks[i].ncb_base,
                         next - chunks[i].ncb_base);
  }
  if (payload != h.payload_bytes) {
    throw Error("szx: corrupt stream (payload size mismatch)");
  }
}

namespace detail {

/// Decodes one non-constant block whose payload is rest[0, zsize) into
/// `out`.  `rest` runs from the block's first payload byte to the end of
/// the payload section (zsize <= rest.size() is the caller's check), so
/// the Solution-C kernel may read, never use, the bytes of the blocks that
/// follow.  `ops` is the caller's kernels::ActiveOps<T>(), fetched once for
/// a run of blocks.
template <SupportedFloat T>
inline void DecodeBlockBySolution(const kernels::BlockOps<T>& ops,
                                  CommitSolution sol, ByteSpan rest,
                                  std::size_t zsize, T mu, const ReqPlan& plan,
                                  std::span<T> out) {
  switch (sol) {
    case CommitSolution::kA:
      return DecodeBlockA(rest.first(zsize), mu, plan, out);
    case CommitSolution::kB:
      return DecodeBlockB(rest.first(zsize), mu, plan, out);
    case CommitSolution::kC:
      return ops.decode_c(rest.data(), zsize, rest.size(), mu, plan,
                          out.data(), out.size());
  }
  throw Error("szx: unknown commit solution");
}

}  // namespace detail

/// Decode prologue of the chunked decoder and the cusim decoder: checks
/// the output size against the header (ParseSections already refused a
/// frame of another element type), then serves a raw-passthrough frame
/// directly.  Returns true when `out` is complete.
template <SupportedFloat T>
inline bool DecodePrologue(const Sections<T>& s, std::span<T> out) {
  const Header& h = s.header;
  if (out.size() != h.num_elements) {
    throw Error("szx: output buffer size mismatch");
  }
  if ((h.flags & kFlagRawPassthrough) == 0) return false;
  ByteCursor(s.payload).ReadSpan(out);
  return true;
}

/// Walks blocks [c.first_block, c.last_block) from c's three section bases.
/// A constant block calls on_const(begin, count, mu); a non-constant block
/// calls on_block(begin, count, mu, plan, rest, zsize), where `rest` runs
/// from the block's first payload byte to the end of the payload section
/// (the DecodeBlockBySolution contract) and zsize <= rest.size().  `begin`
/// and `count` are the block's element range.  The per-block overflow
/// checks stay even though the builder validated the global totals: a
/// directory can be internally consistent and still disagree with the type
/// bits block by block.
template <SupportedFloat T, typename OnConst, typename OnBlock>
inline void WalkBlocks(const Sections<T>& s, const ChunkRef& c,
                       OnConst&& on_const, OnBlock&& on_block) {
  const Header& h = s.header;
  const std::uint32_t bs = h.block_size;
  const std::uint64_t nnc = h.num_blocks - h.num_constant;
  std::uint64_t ci = c.const_base;
  std::uint64_t nci = c.ncb_base;
  std::uint64_t offset = c.payload_base;
  for (std::uint64_t k = c.first_block; k < c.last_block; ++k) {
    const std::uint64_t begin = k * bs;
    const std::uint64_t count =
        std::min<std::uint64_t>(bs, h.num_elements - begin);
    if (!IsNonConstant(s.type_bits, k)) {
      if (ci >= h.num_constant) {
        throw Error("szx: corrupt stream (constant block overflow)");
      }
      on_const(begin, count, s.ConstMu(ci++));
      continue;
    }
    if (nci >= nnc) {
      throw Error("szx: corrupt stream (non-constant block overflow)");
    }
    const ReqPlan plan = PlanFromReqLength<T>(s.Req(nci));
    const T mu = s.NcbMu(nci);
    const std::size_t zsize = s.Zsize(nci);
    ++nci;
    if (offset + zsize > s.payload.size()) {
      throw Error("szx: corrupt stream (payload overrun)");
    }
    on_block(begin, count, mu, plan, s.payload.subspan(offset), zsize);
    offset += zsize;
  }
}

/// Decodes every block of one chunk into its slice of `out` — the decode
/// core of the chunked decoder (every width) and of salvage.
template <SupportedFloat T>
inline void DecodeChunkInto(const Sections<T>& s, CommitSolution solution,
                            const ChunkRef& c, std::span<T> out) {
  const kernels::BlockOps<T>& ops = kernels::ActiveOps<T>();
  WalkBlocks(
      s, c,
      [&](std::uint64_t begin, std::uint64_t count, T mu) {
        const std::span<T> block = out.subspan(begin, count);
        std::fill(block.begin(), block.end(), mu);
      },
      [&](std::uint64_t begin, std::uint64_t count, T mu,
          const ReqPlan& plan, ByteSpan rest, std::size_t zsize) {
        detail::DecodeBlockBySolution(ops, solution, rest, zsize, mu, plan,
                                      out.subspan(begin, count));
      });
}

}  // namespace szx
