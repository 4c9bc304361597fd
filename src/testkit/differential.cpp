#include "testkit/differential.hpp"

#include <cstring>
#include <vector>

#include "core/compressor.hpp"
#include "core/omp_codec.hpp"
#include "core/validate.hpp"
#include "cusim/cusim_codec.hpp"
#include "hybrid/hybrid.hpp"
#include "testkit/oracle.hpp"

namespace szx::testkit {

namespace {

std::optional<std::string> CompareStreams(const ByteBuffer& expected,
                                          const ByteBuffer& got,
                                          const char* label) {
  if (expected.size() != got.size()) {
    return std::string(label) + ": stream size differs (" +
           std::to_string(expected.size()) + " vs " +
           std::to_string(got.size()) + " bytes)";
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      return std::string(label) + ": streams diverge at byte " +
             std::to_string(i) + " of " + std::to_string(expected.size());
    }
  }
  return std::nullopt;
}

}  // namespace

template <SupportedFloat T>
DifferentialReport RunDifferential(std::span<const T> data,
                                   const Params& params,
                                   const DifferentialOptions& options) {
  DifferentialReport report;
  auto fail = [&report](std::string why) {
    report.ok = false;
    report.detail = std::move(why);
    return report;
  };

  // Serial compression is the reference stream.
  CompressionStats stats;
  try {
    report.stream = Compress<T>(data, params, &stats);
  } catch (const Error& e) {
    return fail(std::string("serial Compress threw: ") + e.what());
  }
  const ByteBuffer& stream = report.stream;

  // Header coherence.
  const Header h = PeekHeader(stream);
  if (h.num_elements != data.size()) {
    return fail("header num_elements disagrees with input size");
  }
  if (h.error_bound_abs != stats.absolute_bound) {
    return fail("header error_bound_abs disagrees with CompressionStats");
  }

  // Chunk-parallel compression must be byte-identical.
  {
    const ByteBuffer omp = CompressOmp<T>(data, params, nullptr,
                                          options.omp_threads);
    if (auto why = CompareStreams(stream, omp, "CompressOmp vs Compress")) {
      return fail(std::move(*why));
    }
  }
  // The GPU schedule covers Solution C only.
  if (params.solution == CommitSolution::kC) {
    const ByteBuffer cuda = cusim::CompressCuda<T>(data, params);
    if (auto why =
            CompareStreams(stream, cuda, "CompressCuda vs Compress")) {
      return fail(std::move(*why));
    }
  }

  // Structural + deep validation must accept what we just produced.
  {
    const ValidationReport v = ValidateStream<T>(stream, /*deep=*/true);
    if (!v.ok) {
      return fail("ValidateStream(deep) rejected a fresh stream: " + v.error);
    }
  }

  // Reconstructions: serial is the reference, everything else bit-identical.
  std::vector<T> recon;
  try {
    recon = Decompress<T>(stream);
  } catch (const Error& e) {
    return fail(std::string("Decompress threw on a fresh stream: ") +
                e.what());
  }
  if (auto why = CheckErrorBound<T>(data, recon, params,
                                    stats.absolute_bound)) {
    return fail(std::move(*why));
  }
  {
    const std::vector<T> omp = DecompressOmp<T>(stream, options.omp_threads);
    if (auto why = CheckBitIdentical<T>(recon, omp,
                                        "DecompressOmp vs Decompress")) {
      return fail(std::move(*why));
    }
  }
  if (params.solution == CommitSolution::kC) {
    const std::vector<T> cuda = cusim::DecompressCuda<T>(stream);
    if (auto why = CheckBitIdentical<T>(recon, cuda,
                                        "DecompressCuda vs Decompress")) {
      return fail(std::move(*why));
    }
  }
  {
    std::vector<T> into(recon.size());
    DecompressInto<T>(stream, into);
    if (auto why = CheckBitIdentical<T>(recon, into,
                                        "DecompressInto vs Decompress")) {
      return fail(std::move(*why));
    }
  }

  if (options.check_hybrid) {
    const ByteBuffer wrapped = hybrid::Compress<T>(data, params);
    const std::vector<T> unwrapped = hybrid::Decompress<T>(wrapped);
    if (auto why = CheckBitIdentical<T>(recon, unwrapped,
                                        "hybrid round trip vs Decompress")) {
      return fail(std::move(*why));
    }
  }
  return report;
}

template DifferentialReport RunDifferential<float>(std::span<const float>,
                                                   const Params&,
                                                   const DifferentialOptions&);
template DifferentialReport RunDifferential<double>(
    std::span<const double>, const Params&, const DifferentialOptions&);

}  // namespace szx::testkit
