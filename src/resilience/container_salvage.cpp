#include "resilience/container_salvage.hpp"

#include <algorithm>
#include <sstream>

#include "core/compressor.hpp"
#include "core/executor.hpp"
#include "core/json.hpp"

namespace szx::resilience {
namespace {

/// Per-chunk result slot filled inside the parallel loop and reduced
/// serially afterwards, so the report is deterministic for any thread
/// count.
struct ChunkOutcome {
  bool bit_exact = false;
  Verdict verdict = Verdict::kOk;
  ChunkFill fill = ChunkFill::kDecoded;
};

ChunkFill WorstFill(const DamageReport& r) {
  if (r.blocks_lost > 0) return ChunkFill::kSentinel;
  if (r.blocks_mu_filled > 0) return ChunkFill::kMuFill;
  return ChunkFill::kDecoded;
}

}  // namespace

std::string ContainerSalvageReport::ToJson() const {
  std::ostringstream os;
  os << "{\"usable\":" << (usable ? "true" : "false")
     << ",\"clean\":" << (clean ? "true" : "false") << ",\"error\":\"";
  os << JsonEscape(error);
  os << "\",\"num_elements\":" << num_elements
     << ",\"chunks_total\":" << chunks_total
     << ",\"chunks_recovered\":" << chunks_recovered
     << ",\"chunks_degraded\":" << chunks_degraded
     << ",\"chunks_lost\":" << chunks_lost << ",\"damaged\":[";
  for (std::size_t i = 0; i < damaged.size(); ++i) {
    const ContainerChunkDamage& d = damaged[i];
    os << (i == 0 ? "" : ",") << "{\"entry\":" << d.entry
       << ",\"first_element\":" << d.first_element
       << ",\"last_element\":" << d.last_element << ",\"verdict\":\""
       << VerdictName(d.verdict) << "\",\"fill\":\"" << ChunkFillName(d.fill)
       << "\"}";
  }
  os << "]}";
  return os.str();
}

template <SupportedFloat T>
ContainerSalvageResult<T> SalvageContainerTimestep(
    const ContainerReader& reader, std::uint32_t field,
    std::uint64_t timestep, const SalvageOptions& options) {
  ContainerSalvageResult<T> result;
  ContainerSalvageReport& report = result.report;
  if (field >= reader.num_fields()) {
    report.error = "container field index out of range";
    return result;
  }
  const ContainerField& f = reader.field(field);
  if (f.dtype != FloatTraits<T>::kTag) {
    report.error = "container field element type mismatch";
    return result;
  }
  if (timestep >= f.timesteps) {
    report.error = "container timestep out of range";
    return result;
  }
  report.num_elements = f.elements_per_timestep;
  report.chunks_total = f.chunks_per_timestep;
  // The directory trailer checksum verified at reader construction, but the
  // salvage contract still caps the allocation: a report, never bad_alloc.
  if (CheckedMul(f.elements_per_timestep, sizeof(T)) >
      options.max_output_bytes) {
    report.error = "salvage output exceeds max_output_bytes";
    return result;
  }
  const std::size_t n =
      CheckedNarrow<std::size_t>(f.elements_per_timestep);
  result.data.assign(n, static_cast<T>(options.sentinel));
  const std::span<T> out(result.data);

  const std::uint64_t ce = f.chunk_elements;
  const std::uint64_t cpt = f.chunks_per_timestep;
  std::vector<ChunkOutcome> outcomes(CheckedNarrow<std::size_t>(cpt));
  SalvageOptions chunk_options = options;
  chunk_options.num_threads = 1;  // parallelism lives at the chunk level
  exec::ParallelFor(cpt, options.num_threads, [&](std::uint64_t c) {
    ChunkOutcome& slot = outcomes[CheckedNarrow<std::size_t>(c)];
    const std::uint64_t begin = c * ce;
    const std::uint64_t count =
        std::min<std::uint64_t>(ce, f.elements_per_timestep - begin);
    const std::span<T> slice = out.subspan(
        CheckedNarrow<std::size_t>(begin), CheckedNarrow<std::size_t>(count));
    const std::uint64_t eidx = reader.EntryIndex(field, timestep, c);
    const ByteSpan stream = reader.ChunkStream(eidx);
    if (reader.VerifyChunk(eidx)) {
      try {
        DecompressInto<T>(stream, slice);
        slot.bit_exact = true;
        slot.verdict = Verdict::kOk;
        slot.fill = ChunkFill::kDecoded;
        return;
      } catch (const Cancelled&) {
        throw;  // a deadline, not damage: the chunk is not corrupt
      } catch (const Error&) {
        // Checksum matched but the stream is malformed (forged entry or
        // writer bug): fall through to the per-chunk salvage tiers.
      }
    }
    slot.verdict = Verdict::kCorrupt;
    const SalvageResult<T> sr = SalvageDecode<T>(stream, chunk_options);
    if (sr.report.usable && sr.data.size() == slice.size()) {
      std::copy(sr.data.begin(), sr.data.end(), slice.begin());
      slot.fill = WorstFill(sr.report);
      return;
    }
    // Chunk unusable: the sentinel prefill already covers its elements.
    slot.fill = ChunkFill::kSentinel;
  });

  // Serial reduction keeps the report byte-identical across thread counts.
  for (std::uint64_t c = 0; c < cpt; ++c) {
    const ChunkOutcome& slot = outcomes[CheckedNarrow<std::size_t>(c)];
    if (slot.bit_exact) {
      ++report.chunks_recovered;
      continue;
    }
    if (slot.fill == ChunkFill::kSentinel) {
      ++report.chunks_lost;
    } else {
      ++report.chunks_degraded;
    }
    const std::uint64_t begin = c * ce;
    ContainerChunkDamage d;
    d.entry = reader.EntryIndex(field, timestep, c);
    d.first_element = begin;
    d.last_element =
        begin + std::min<std::uint64_t>(ce, f.elements_per_timestep - begin);
    d.verdict = slot.verdict;
    d.fill = slot.fill;
    report.damaged.push_back(d);
  }
  report.usable = true;
  report.clean = report.chunks_recovered == report.chunks_total;
  return result;
}

template ContainerSalvageResult<float> SalvageContainerTimestep<float>(
    const ContainerReader&, std::uint32_t, std::uint64_t,
    const SalvageOptions&);
template ContainerSalvageResult<double> SalvageContainerTimestep<double>(
    const ContainerReader&, std::uint32_t, std::uint64_t,
    const SalvageOptions&);

}  // namespace szx::resilience
