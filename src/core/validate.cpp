#include "core/validate.hpp"

#include <vector>

#include "core/frame_index.hpp"

namespace szx {

template <SupportedFloat T>
ValidationReport ValidateStream(ByteSpan stream, bool deep) {
  ValidationReport report;
  try {
    const Sections<T> s = ParseSections<T>(stream);
    const Header& h = s.header;
    report.header = h;
    if (h.flags & kFlagRawPassthrough) {
      report.payload_bytes_walked = s.payload.size();
      report.ok = true;
      return report;
    }
    // The directory pass shared with the decoders checks the type-bit
    // census and the zsize sum against the header.
    ChunkRef whole;
    BuildChunkRefs(s, std::span<ChunkRef>(&whole, 1));
    // Every block payload must at least hold its lead array; deep mode
    // also decodes each block.
    std::vector<T> scratch(h.block_size);
    const auto solution = static_cast<CommitSolution>(h.solution);
    const kernels::BlockOps<T>& ops = kernels::ActiveOps<T>();
    WalkBlocks(
        s, whole, [](std::uint64_t, std::uint64_t, T) {},
        [&](std::uint64_t, std::uint64_t count, T mu, const ReqPlan& plan,
            ByteSpan rest, std::size_t zsize) {
          if (zsize < LeadArrayBytes(count)) {
            throw Error("block payload shorter than its lead array");
          }
          if (deep) {
            detail::DecodeBlockBySolution(ops, solution, rest, zsize, mu, plan,
                                          std::span<T>(scratch.data(), count));
          }
        });
    report.payload_bytes_walked = h.payload_bytes;
    report.ok = true;
  } catch (const Error& e) {
    report.ok = false;
    report.error = e.what();
  }
  return report;
}

template ValidationReport ValidateStream<float>(ByteSpan, bool);
template ValidationReport ValidateStream<double>(ByteSpan, bool);

}  // namespace szx
