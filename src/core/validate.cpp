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
    if (h.dtype != static_cast<std::uint8_t>(FloatTraits<T>::kTag)) {
      throw Error("stream element type mismatch");
    }
    if (h.flags & kFlagRawPassthrough) {
      report.payload_bytes_walked = s.payload.size();
      report.ok = true;
      return report;
    }
    // Type-bit census must agree with the header counts.
    std::uint64_t nc = 0;
    for (std::uint64_t k = 0; k < h.num_blocks; ++k) {
      nc += IsNonConstant(s.type_bits, k) ? 0 : 1;
    }
    if (nc != h.num_constant) {
      throw Error("type bits disagree with constant count");
    }
    const std::uint64_t nnc = h.num_blocks - h.num_constant;
    // Required lengths must parse; zsizes must sum to the payload and
    // every block payload must at least hold its lead array.
    std::uint64_t offset = 0;
    std::uint64_t ncb_seen = 0;
    std::vector<T> scratch(h.block_size);
    const auto solution = static_cast<CommitSolution>(h.solution);
    const kernels::BlockOps<T>& ops = kernels::ActiveOps<T>();
    for (std::uint64_t k = 0; k < h.num_blocks; ++k) {
      if (!IsNonConstant(s.type_bits, k)) continue;
      const ReqPlan plan = PlanFromReqLength<T>(s.Req(ncb_seen));
      const std::uint16_t zsize = s.Zsize(ncb_seen);
      const std::uint64_t begin = k * h.block_size;
      const std::uint64_t count =
          std::min<std::uint64_t>(h.block_size, h.num_elements - begin);
      if (zsize < LeadArrayBytes(count)) {
        throw Error("block payload shorter than its lead array");
      }
      if (offset + zsize > s.payload.size()) {
        throw Error("block payloads overrun the payload section");
      }
      if (deep) {
        const T mu = s.NcbMu(ncb_seen);
        detail::DecodeBlockBySolution(ops, solution, s.payload.subspan(offset),
                                      zsize, mu, plan,
                                      std::span<T>(scratch.data(), count));
      }
      offset += zsize;
      ++ncb_seen;
    }
    if (ncb_seen != nnc) {
      throw Error("non-constant block count mismatch");
    }
    if (offset != h.payload_bytes) {
      throw Error("zsize sum disagrees with payload size");
    }
    report.payload_bytes_walked = offset;
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
