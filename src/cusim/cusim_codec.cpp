#include "cusim/cusim_codec.hpp"

#include <algorithm>
#include <cmath>

#include "core/arena.hpp"
#include "core/block_stats.hpp"
#include "core/encode.hpp"
#include "core/frame_encoder.hpp"
#include "core/frame_index.hpp"
#include "cusim/warp_ops.hpp"

namespace szx::cusim {
namespace {

// Per-thread compression/decompression scratch private to this TU, so cusim
// calls can never invalidate arena memory held by the core codecs (and vice
// versa).  After a warm-up call the arena sits at its high-water size and
// steady-state block loops stop touching the heap.
ScratchArena& LocalArena() {
  thread_local ScratchArena arena;
  return arena;
}

// Lockstep parallel min/max/finiteness reduction over lane values, the
// warp-collective the compression kernel opens with.  The *_buf spans are
// caller-provided lane scratch of at least block.size() entries.
template <SupportedFloat T>
BlockStats<T> ParallelBlockStats(std::span<const T> block,
                                 std::span<T> mins_buf, std::span<T> maxs_buf,
                                 std::span<std::uint8_t> fin_buf,
                                 KernelCounters* counters) {
  const std::size_t n = block.size();
  std::span<T> mins = mins_buf.first(n);
  std::span<T> maxs = maxs_buf.first(n);
  std::span<std::uint8_t> fin = fin_buf.first(n);
  std::copy(block.begin(), block.end(), mins.begin());
  std::copy(block.begin(), block.end(), maxs.begin());
  for (std::size_t i = 0; i < n; ++i) {
    fin[i] = std::isfinite(block[i]) ? 1 : 0;
  }
  for (std::size_t stride = (n + 1) / 2, width = n; width > 1;
       width = stride, stride = (stride + 1) / 2) {
    // Each lane i < stride folds lane i + stride (tree reduction round).
    for (std::size_t i = 0; i + stride < width; ++i) {
      const T a = mins[i + stride];
      const T b = maxs[i + stride];
      if (a < mins[i]) mins[i] = a;
      if (b > maxs[i]) maxs[i] = b;
      fin[i] &= fin[i + stride];
    }
    if (counters != nullptr) ++counters->reduction_rounds;
    if (stride == width) break;  // width == 1 handled by loop condition
  }
  if (!fin[0]) {
    // Match the serial scalar path exactly for non-finite blocks.
    return ComputeBlockStatsScalar(block);
  }
  // Finalization (mu/radius) must match the serial code bit for bit; feed
  // the reduced extremes through the same scalar finalizer.
  const T two[2] = {mins[0], maxs[0]};
  return ComputeBlockStatsScalar(std::span<const T>(two, 2));
}

}  // namespace

template <SupportedFloat T>
ByteBuffer CompressCuda(std::span<const T> data, const Params& params,
                        CompressionStats* stats, KernelCounters* counters) {
  const std::uint64_t num_blocks = FrameBlockCount(data.size(), params);
  if (params.solution != CommitSolution::kC) {
    throw Error("cusim: the GPU kernels implement Solution C only");
  }
  const std::uint64_t n = data.size();
  const std::uint32_t bs = params.block_size;

  using Bits = typename FloatTraits<T>::Bits;
  ScratchArena& arena = LocalArena();
  arena.Reset();
  // Per-lane scratch at full block capacity, reused across blocks.
  const std::span<std::uint32_t> midcount =
      arena.AllocateSpan<std::uint32_t>(bs);
  const std::span<Bits> trunc = arena.AllocateSpan<Bits>(bs);
  const std::span<std::uint8_t> leads = arena.AllocateSpan<std::uint8_t>(bs);
  const std::span<T> mins_buf = arena.AllocateSpan<T>(bs);
  const std::span<T> maxs_buf = arena.AllocateSpan<T>(bs);
  const std::span<std::uint8_t> fin_buf = arena.AllocateSpan<std::uint8_t>(bs);
  auto block_at = [&](std::uint64_t k) {
    const std::uint64_t begin = k * bs;
    return data.subspan(begin, std::min<std::uint64_t>(bs, n - begin));
  };

  // Stats kernel: one warp reduction per block, kept for the encode kernel,
  // and the frame's finite range (a grid-wide reduction on a GPU).
  const std::span<BlockStats<T>> block_stats =
      arena.AllocateSpan<BlockStats<T>>(static_cast<std::size_t>(num_blocks));
  GlobalRange<T> range;
  for (std::uint64_t k = 0; k < num_blocks; ++k) {
    const std::span<const T> block = block_at(k);
    const BlockStats<T> st =
        ParallelBlockStats(block, mins_buf, maxs_buf, fin_buf, counters);
    block_stats[k] = st;
    if (st.all_finite) {
      range.Merge(st.min, st.max);
    } else {
      range.Merge(ScanFiniteRange(block.data(), block.size()));
    }
  }
  const FramePlan<T> frame = PlanFrame(data, params, range);

  // The whole frame is one fragment: the grid's thread blocks fill it in
  // block order, and the shared assembler writes the frame around it.
  SectionFragment<T> frag = CarveFragment(frame, 0, num_blocks, arena);
  for (std::uint64_t k = 0; k < num_blocks; ++k) {
    const std::span<const T> block = block_at(k);
    const std::uint64_t count = block.size();
    const BlockDecision<T> dec = DecideBlock(block, block_stats[k],
                                             params.mode, params.error_bound,
                                             frame.abs_bound, frame.eb_expo);
    if (dec.is_constant) {
      frag.AddConstant(dec.mu);
      continue;
    }
    const ReqPlan plan = dec.plan;
    const T mu = dec.mu;
    const int nb = plan.num_bytes;
    const int s = plan.shift;
    const Bits keep = KeepMask<T>(nb);
    std::fill_n(trunc.begin(), count, Bits{0});
    std::fill_n(leads.begin(), count, std::uint8_t{0});
    std::fill_n(midcount.begin(), count, std::uint32_t{0});
    // Lane phase: every lane reads its own and its predecessor's *input*
    // value (dependency depth 1 -> no serialization, paper Solution 2).
    auto trunc_of = [&](std::uint64_t i) -> Bits {
      const T v = block[i];
      const Bits bits =
          mu == T(0)
              ? std::bit_cast<Bits>(v)
              : std::bit_cast<Bits>(static_cast<T>(v - mu));
      return static_cast<Bits>((bits >> s) & keep);
    };
    for (std::uint64_t i = 0; i < count; ++i) {
      const Bits t = trunc_of(i);
      const Bits prev = i == 0 ? Bits{0} : trunc_of(i - 1);
      const int lead = LeadingIdenticalBytes<T>(t, prev);
      const int copy = lead < nb ? lead : nb;
      trunc[i] = t;
      leads[i] = static_cast<std::uint8_t>(lead);
      midcount[i] = static_cast<std::uint32_t>(nb - copy);
    }
    if (counters != nullptr) {
      counters->lane_ops += count * 12;
      counters->bytes_moved += count * sizeof(T);
    }
    // Scan phase (Solution 1): scatter offsets for the mid bytes.
    const std::uint32_t total_mid = ExclusiveScan(midcount.first(count));
    if (counters != nullptr && count > 1) {
      counters->scan_rounds +=
          static_cast<std::uint64_t>(std::bit_width(count - 1));
    }

    // Commit phase: lead codes and scattered mid bytes.
    const std::size_t lead_bytes = LeadArrayBytes(count);
    const std::size_t block_payload = lead_bytes + total_mid;
    const std::span<std::byte> lead_dst =
        frag.PayloadTail().first(lead_bytes);
    const std::span<std::byte> mid_dst =
        frag.PayloadTail().subspan(lead_bytes, total_mid);
    std::fill(lead_dst.begin(), lead_dst.end(), std::byte{0});
    for (std::uint64_t i = 0; i < count; ++i) {
      const int shift2 = 6 - 2 * static_cast<int>(i & 3);
      lead_dst[i >> 2] |= std::byte{
          static_cast<std::uint8_t>(leads[i] << shift2)};
      // After the exclusive scan, midcount[i] holds lane i's scatter offset.
      const int copy = std::min<int>(leads[i], nb);
      std::size_t at = midcount[i];
      for (int j = copy; j < nb; ++j) {
        mid_dst[at++] = std::byte{TopByte<T>(trunc[i], j)};
      }
    }
    if (counters != nullptr) counters->bytes_moved += block_payload;
    frag.AddNonConstant(k, dec, block_payload);
  }

  const std::span<const SectionFragment<T>> frags(&frag, 1);
  const FrameLayout layout = LayoutFrame(frame, frags);
  // szx-overwrite: AssembleFrame writes every byte of the laid-out frame
  ByteBuffer out(layout.total_bytes());
  AssembleFrame(frame, frags, layout, std::span<std::byte>(out), arena,
                stats);
  if (counters != nullptr) counters->elements += n;
  return out;
}

template <SupportedFloat T>
std::vector<T> DecompressCuda(ByteSpan stream, KernelCounters* counters) {
  using Bits = typename FloatTraits<T>::Bits;
  const Sections<T> s = ParseSections<T>(stream);
  const Header& h = s.header;
  std::vector<T> out(CheckedOutputCount<T>(stream, h));
  if (DecodePrologue(s, std::span<T>(out))) return out;
  if (static_cast<CommitSolution>(h.solution) != CommitSolution::kC) {
    throw Error("cusim: the GPU kernels implement Solution C only");
  }
  const std::uint32_t bs = h.block_size;
  const std::uint64_t nnc = h.num_blocks - h.num_constant;
  // Grid stage: the chunk-directory pass shared with the CPU decoders
  // validates the type-bit and zsize sections against the header (rejecting
  // forged directories before any block is decoded).  On a real GPU this is
  // a grid-level exclusive scan over the zsize array; account its log2
  // rounds like the historical explicit scan did.
  ChunkRef whole;
  BuildChunkRefs(s, std::span<ChunkRef>(&whole, 1));
  if (counters != nullptr && nnc > 1) {
    counters->scan_rounds +=
        static_cast<std::uint64_t>(std::bit_width(nnc - 1));
  }

  // Per-lane decode scratch at full block capacity (bs was range-checked by
  // ParseSections), reused across blocks without heap traffic.
  ScratchArena& arena = LocalArena();
  arena.Reset();
  const std::span<std::uint32_t> copies = arena.AllocateSpan<std::uint32_t>(bs);
  const std::span<std::uint32_t> midcount =
      arena.AllocateSpan<std::uint32_t>(bs);
  const std::span<std::uint32_t> chain = arena.AllocateSpan<std::uint32_t>(bs);
  const std::span<Bits> words = arena.AllocateSpan<Bits>(bs);
  const std::span<T> all(out);
  WalkBlocks(
      s, whole,
      [&](std::uint64_t begin, std::uint64_t count, T mu) {
        const std::span<T> block = all.subspan(begin, count);
        std::fill(block.begin(), block.end(), mu);
      },
      [&](std::uint64_t begin, std::uint64_t count, T mu, const ReqPlan& plan,
          ByteSpan rest, std::size_t zsize) {
        const std::span<T> block = all.subspan(begin, count);
        const ByteSpan pay = rest.first(zsize);
        const std::size_t lead_bytes = LeadArrayBytes(count);
        if (pay.size() < lead_bytes) {
          throw Error("cusim: truncated block payload");
        }
        const std::byte* lead = pay.data();
        ByteSpan mid = pay.subspan(lead_bytes);
        const int nb = plan.num_bytes;

        // Lane phase 1: lead codes -> per-lane mid counts.
        std::fill_n(copies.begin(), count, std::uint32_t{0});
        std::fill_n(midcount.begin(), count, std::uint32_t{0});
        for (std::uint64_t i = 0; i < count; ++i) {
          const int shift2 = 6 - 2 * static_cast<int>(i & 3);
          const unsigned code =
              (std::to_integer<unsigned>(lead[i >> 2]) >> shift2) & 3u;
          const int copy = static_cast<int>(code) < nb ? static_cast<int>(code)
                                                       : nb;
          copies[i] = static_cast<std::uint32_t>(copy);
          midcount[i] = static_cast<std::uint32_t>(nb - copy);
        }
        // Lane phase 2: scatter offsets (Solution 1).
        const std::uint32_t total_mid = ExclusiveScan(midcount.first(count));
        if (total_mid != mid.size()) {
          throw Error("cusim: corrupt block payload size");
        }
        if (counters != nullptr && count > 1) {
          counters->scan_rounds +=
              static_cast<std::uint64_t>(std::bit_width(count - 1));
        }

        // Lane phase 3: per byte position, resolve dependence chains with the
        // index propagation of Fig. 11, then read every byte hazard-free.
        std::fill_n(words.begin(), count, Bits{0});
        for (int j = 0; j < nb; ++j) {
          for (std::uint64_t i = 0; i < count; ++i) {
            chain[i] = j >= static_cast<int>(copies[i])
                           ? static_cast<std::uint32_t>(i + 1)
                           : 0u;
          }
          IndexPropagate(std::span(chain.data(), count));
          if (counters != nullptr && count > 1) {
            counters->propagate_rounds +=
                static_cast<std::uint64_t>(std::bit_width(count - 1));
          }
          for (std::uint64_t i = 0; i < count; ++i) {
            if (chain[i] == 0) continue;  // rooted at the virtual zero word
            const std::uint64_t src = chain[i] - 1;
            const std::uint64_t pos =
                midcount[src] + (static_cast<std::uint32_t>(j) - copies[src]);
            words[i] |= PlaceTopByte<T>(
                std::to_integer<std::uint8_t>(mid[pos]), j);
          }
        }
        // Lane phase 4: left shift + de-normalize.
        for (std::uint64_t i = 0; i < count; ++i) {
          const T v =
              std::bit_cast<T>(static_cast<Bits>(words[i] << plan.shift));
          block[i] = mu == T(0) ? v : static_cast<T>(v + mu);
        }
        if (counters != nullptr) {
          counters->lane_ops += count * (8 + 4 * nb);
          counters->bytes_moved += zsize + count * sizeof(T);
        }
      });
  if (counters != nullptr) counters->elements += h.num_elements;
  return out;
}

template ByteBuffer CompressCuda<float>(std::span<const float>, const Params&,
                                        CompressionStats*, KernelCounters*);
template ByteBuffer CompressCuda<double>(std::span<const double>,
                                         const Params&, CompressionStats*,
                                         KernelCounters*);
template std::vector<float> DecompressCuda<float>(ByteSpan, KernelCounters*);
template std::vector<double> DecompressCuda<double>(ByteSpan,
                                                    KernelCounters*);

}  // namespace szx::cusim
