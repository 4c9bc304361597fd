// Chunk-parallel encoder/decoder.  Parallelism is delegated to the
// exec::ParallelFor facade over the executor pool; the facade owns the
// exception latch and cancellation, so the chunk loops below are plain
// lambdas.  The historical entry points keep their *Omp names: they are
// the chunk-parallel API, with no OpenMP involved.
// The encoder runs the shared two-phase block-range worker per chunk -- a
// stats pass whose per-chunk ranges reduce into the bound, then decide +
// encode -- and hands the fragments to the shared frame assembler
// (core/frame_encoder.hpp), so every byte it produces is identical to the
// serial codec for any chunk count.
#include "core/omp_codec.hpp"

#include <algorithm>

#include "core/arena.hpp"
#include "core/executor.hpp"
#include "core/frame_encoder.hpp"
#include "core/frame_index.hpp"

namespace szx {
namespace {

// Resolved width clamped so every chunk spans at least 8 blocks (chunk
// bounds sit on type-bit byte boundaries); it is both the chunk count and
// the thread cap of the encoder and decoder regions.
int ChunkWidth(int num_threads, std::uint64_t num_blocks) {
  return static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(exec::ResolveThreads(num_threads)),
      MaxUsefulChunks(num_blocks)));
}

}  // namespace

template <SupportedFloat T>
ByteBuffer CompressOmp(std::span<const T> data, const Params& params,
                       CompressionStats* stats, int num_threads) {
  const std::uint64_t num_blocks = FrameBlockCount(data.size(), params);
  const int threads = ChunkWidth(num_threads, num_blocks);
  const std::size_t chunks = static_cast<std::size_t>(threads);
  std::vector<ChunkRef> bounds(chunks);
  SetChunkBounds(num_blocks, std::span<ChunkRef>(bounds));

  // One arena per chunk, owned (thread-locally) by the calling thread so the
  // fragment memory outlives the parallel region regardless of which backend
  // ran it.  Each chunk index is executed by exactly one thread per region,
  // so no arena is ever shared within a region, and the vector's high-water
  // capacity is reused across calls.
  thread_local std::vector<ScratchArena> arenas_tls;
  if (arenas_tls.size() < chunks) arenas_tls.resize(chunks);
  // Grab the caller's arenas by pointer before the parallel region: a
  // thread_local name evaluated inside it would resolve to each worker's own
  // (empty) instance instead.
  ScratchArena* const arenas = arenas_tls.data();

  // Phase 1: every block's stats, once, into its chunk's arena.
  std::vector<RangeStats<T>> scans(chunks);
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    arenas[c].Reset();
    scans[c] = ScanBlockRange(data, params.block_size, bounds[c].first_block,
                              bounds[c].last_block, arenas[c]);
  });
  // Reduce the O(chunks) partial ranges into the frame bound.
  GlobalRange<T> range;
  for (const RangeStats<T>& s : scans) range.Merge(s.range);
  const FramePlan<T> plan = PlanFrame(data, params, range);

  // Phase 2: decide + encode from the stored stats.
  std::vector<SectionFragment<T>> frags(chunks);
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    frags[c] = CompressBlockRange(plan, bounds[c].first_block,
                                  bounds[c].last_block, scans[c].blocks,
                                  arenas[c]);
  });

  const std::span<const SectionFragment<T>> fr(frags);
  const FrameLayout layout = LayoutFrame(plan, fr);
  ByteBuffer out(layout.total_bytes());
  AssembleFrame(plan, fr, layout, std::span<std::byte>(out), arenas[0],
                threads, stats);
  return out;
}

template <SupportedFloat T>
void DecompressOmpInto(ByteSpan stream, std::span<T> out, int num_threads) {
  const Sections<T> s = ParseSections<T>(stream);
  if (DecodePrologue(s, out)) return;
  const Header& h = s.header;
  const auto solution = static_cast<CommitSolution>(h.solution);
  const std::uint64_t nnc = h.num_blocks - h.num_constant;

  const int threads = ChunkWidth(num_threads, h.num_blocks);
  const std::uint64_t chunks = static_cast<std::uint64_t>(threads);

  // Chunk directory, O(threads) instead of the old O(num_blocks)
  // meta-index; the thread_local vector keeps steady-state decode calls off
  // the heap (same discipline as the encoder's arena vector).  Captured by
  // pointer before the parallel regions — inside one the name would resolve
  // to each worker's own empty instance.
  thread_local std::vector<ChunkRef> chunks_tls;
  if (chunks_tls.size() < chunks) chunks_tls.resize(chunks);
  const std::span<ChunkRef> dir(chunks_tls.data(),
                                static_cast<std::size_t>(chunks));
  ChunkRef* const cd = dir.data();
  SetChunkBounds(h.num_blocks, dir);

  // Directory pass 1: per-chunk type-bit popcounts (disjoint byte ranges),
  // then a serial O(chunks) exclusive prefix sum + total validation.
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    cd[c].ncb_base =
        CountNonConstant(s.type_bits, cd[c].first_block, cd[c].last_block);
  });
  FinalizeTypeTallies(h, dir);

  // Directory pass 2: per-chunk zsize sums over disjoint non-constant index
  // ranges, then the payload prefix sum + total validation.  The facade
  // latches the first exception and rethrows it after every chunk ran.
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    const std::uint64_t next =
        c + 1 < chunks ? cd[c + 1].ncb_base : nnc;
    cd[c].payload_base =
        SumZsizes(s.ncb_zsize, cd[c].ncb_base, next - cd[c].ncb_base);
  });
  FinalizePayloadTallies(h, dir);

  // Decode chunks concurrently: every thread writes its blocks into `out`
  // at offsets precomputed by the directory — zero serialization and zero
  // shared mutable state.
  exec::ParallelFor(chunks, threads, [&](std::uint64_t c) {
    DecodeChunkInto(s, solution, cd[c], out);
  });
}

template <SupportedFloat T>
std::vector<T> DecompressOmp(ByteSpan stream, int num_threads) {
  // Same allocation guard as serial Decompress.
  std::vector<T> out(DecodedElementCount<T>(stream));
  DecompressOmpInto<T>(stream, std::span<T>(out), num_threads);
  return out;
}

template ByteBuffer CompressOmp<float>(std::span<const float>, const Params&,
                                       CompressionStats*, int);
template ByteBuffer CompressOmp<double>(std::span<const double>,
                                        const Params&, CompressionStats*,
                                        int);
template void DecompressOmpInto<float>(ByteSpan, std::span<float>, int);
template void DecompressOmpInto<double>(ByteSpan, std::span<double>, int);
template std::vector<float> DecompressOmp<float>(ByteSpan, int);
template std::vector<double> DecompressOmp<double>(ByteSpan, int);

}  // namespace szx
