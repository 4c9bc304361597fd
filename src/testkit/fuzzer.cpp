#include "testkit/fuzzer.hpp"

#include <algorithm>
#include <vector>

#include "core/compressor.hpp"
#include "core/omp_codec.hpp"
#include "core/validate.hpp"
#include "cusim/cusim_codec.hpp"
#include "testkit/oracle.hpp"
#include "testkit/rng.hpp"

namespace szx::testkit {

std::string FuzzFailure::Repro(const FuzzConfig& config) const {
  return "replay: MutatedStream(bases, {.seed=" + std::to_string(config.seed) +
         ", .max_mutations=" + std::to_string(config.max_mutations) +
         "}, /*iteration=*/" + std::to_string(iteration) + ")  [base " +
         std::to_string(base_index) + ", " + std::to_string(stream.size()) +
         " bytes, minimized to " + std::to_string(minimized.size()) + "]";
}

namespace {

// One decode attempt: accepted, cleanly rejected, or a foreign exception.
enum class Outcome { kAccepted, kRejected, kForeign };

template <typename Fn>
Outcome Attempt(Fn&& fn, std::string& foreign_what) {
  try {
    fn();
    return Outcome::kAccepted;
  } catch (const Error&) {
    return Outcome::kRejected;
  } catch (const std::exception& e) {
    foreign_what = e.what();
    return Outcome::kForeign;
  } catch (...) {
    foreign_what = "non-std exception";
    return Outcome::kForeign;
  }
}

void ApplyMutation(ByteBuffer& s, Rng& rng) {
  if (s.empty()) return;
  const std::size_t size = s.size();
  switch (rng.Below(6)) {
    case 0: {  // flip bits in one byte
      const std::size_t pos = rng.Below(size);
      const auto mask =
          static_cast<std::uint8_t>(1 + rng.Below(255));  // never zero
      s[pos] ^= std::byte{mask};
      break;
    }
    case 1:  // truncate
      s.resize(rng.Below(size + 1));  // szx-overwrite: a shrink; at most size
      break;
    case 2: {  // erase an interior range
      const std::size_t start = rng.Below(size);
      const std::size_t len =
          1 + rng.Below(std::min<std::size_t>(64, size - start));
      s.erase(s.begin() + static_cast<std::ptrdiff_t>(start),
              s.begin() + static_cast<std::ptrdiff_t>(start + len));
      break;
    }
    case 3: {  // zero a range
      const std::size_t start = rng.Below(size);
      const std::size_t len =
          1 + rng.Below(std::min<std::size_t>(64, size - start));
      std::fill(s.begin() + static_cast<std::ptrdiff_t>(start),
                s.begin() + static_cast<std::ptrdiff_t>(start + len),
                std::byte{0});
      break;
    }
    case 4: {  // overwrite a range with random bytes
      const std::size_t start = rng.Below(size);
      const std::size_t len =
          1 + rng.Below(std::min<std::size_t>(32, size - start));
      for (std::size_t i = 0; i < len; ++i) {
        s[start + i] = std::byte{static_cast<std::uint8_t>(rng.Below(256))};
      }
      break;
    }
    default: {  // splice: copy one range over another
      const std::size_t src = rng.Below(size);
      const std::size_t dst = rng.Below(size);
      const std::size_t len =
          1 + rng.Below(std::min<std::size_t>(
                  32, size - std::max(src, dst)));
      std::copy(s.begin() + static_cast<std::ptrdiff_t>(src),
                s.begin() + static_cast<std::ptrdiff_t>(src + len),
                s.begin() + static_cast<std::ptrdiff_t>(dst));
      break;
    }
  }
}

// ddmin-style reduction: repeatedly try dropping chunks while the stream
// keeps failing the probe, halving the chunk size down to one byte.
template <SupportedFloat T>
ByteBuffer Minimize(const ByteBuffer& failing, std::size_t budget) {
  ByteBuffer best = failing;
  std::size_t probes = 0;
  auto still_fails = [&probes, budget](const ByteBuffer& candidate) {
    if (probes >= budget) return false;
    ++probes;
    return ProbeStream<T>(candidate).has_value();
  };
  for (std::size_t chunk = std::max<std::size_t>(best.size() / 2, 1);
       chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any && probes < budget) {
      removed_any = false;
      for (std::size_t start = 0; start < best.size() && probes < budget;) {
        const std::size_t len = std::min(chunk, best.size() - start);
        ByteBuffer candidate;
        candidate.reserve(best.size() - len);
        candidate.insert(candidate.end(), best.begin(),
                         best.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            best.begin() + static_cast<std::ptrdiff_t>(start + len),
            best.end());
        if (still_fails(candidate)) {
          best = std::move(candidate);
          removed_any = true;  // same start now names the next chunk
        } else {
          start += len;
        }
      }
    }
    if (chunk == 1) break;
  }
  return best;
}

}  // namespace

template <SupportedFloat T>
std::optional<std::string> ProbeStream(ByteSpan stream, bool* accepted) {
  if (accepted != nullptr) *accepted = false;
  std::string foreign;

  const ValidationReport deep = ValidateStream<T>(stream, /*deep=*/true);

  std::vector<T> serial;
  const Outcome serial_out =
      Attempt([&] { serial = Decompress<T>(stream); }, foreign);
  if (serial_out == Outcome::kForeign) {
    return "Decompress raised a non-szx exception: " + foreign;
  }
  const bool serial_ok = serial_out == Outcome::kAccepted;

  if (deep.ok && !serial_ok) {
    return "ValidateStream(deep) accepted a stream Decompress rejects";
  }
  if (serial_ok) {
    // A successful decode must return the header-declared element count.
    Header h;
    const Outcome peek = Attempt([&] { h = PeekHeader(stream); }, foreign);
    if (peek != Outcome::kAccepted) {
      return "Decompress succeeded but PeekHeader failed";
    }
    if (serial.size() != h.num_elements) {
      return "Decompress returned " + std::to_string(serial.size()) +
             " elements but the header declares " +
             std::to_string(h.num_elements);
    }
  }

  std::vector<T> omp;
  const Outcome omp_out =
      Attempt([&] { omp = DecompressOmp<T>(stream, 2); }, foreign);
  if (omp_out == Outcome::kForeign) {
    return "DecompressOmp raised a non-szx exception: " + foreign;
  }
  const bool omp_ok = omp_out == Outcome::kAccepted;
  if (deep.ok && !omp_ok) {
    return "ValidateStream(deep) accepted a stream DecompressOmp rejects";
  }
  if (omp_ok && !serial_ok) {
    return "DecompressOmp accepted a stream Decompress rejects";
  }
  if (omp_ok && serial_ok) {
    if (auto why = CheckBitIdentical<T>(serial, omp,
                                        "fuzz: omp vs serial decode")) {
      return why;
    }
  }

  std::vector<T> cuda;
  const Outcome cuda_out =
      Attempt([&] { cuda = cusim::DecompressCuda<T>(stream); }, foreign);
  if (cuda_out == Outcome::kForeign) {
    return "DecompressCuda raised a non-szx exception: " + foreign;
  }
  if (cuda_out == Outcome::kAccepted) {
    if (!serial_ok) {
      return "DecompressCuda accepted a stream Decompress rejects";
    }
    if (auto why = CheckBitIdentical<T>(serial, cuda,
                                        "fuzz: cusim vs serial decode")) {
      return why;
    }
  }

  if (accepted != nullptr) *accepted = serial_ok;
  return std::nullopt;
}

ByteBuffer MutatedStream(std::span<const ByteBuffer> bases,
                         const FuzzConfig& config, std::uint64_t iteration,
                         std::size_t* base_index, std::uint64_t* mutations) {
  Rng rng = Rng(config.seed).Fork(iteration);
  const std::size_t base = rng.Below(bases.size());
  if (base_index != nullptr) *base_index = base;
  ByteBuffer s = bases[base];
  const std::uint64_t count =
      1 + rng.Below(std::max<std::size_t>(config.max_mutations, 1));
  for (std::uint64_t m = 0; m < count; ++m) ApplyMutation(s, rng);
  if (mutations != nullptr) *mutations = count;
  return s;
}

template <SupportedFloat T>
FuzzReport RunCorruptionFuzzer(std::span<const ByteBuffer> bases,
                               const FuzzConfig& config) {
  FuzzReport report;
  if (bases.empty()) return report;
  for (std::uint64_t i = 0; i < config.iterations; ++i) {
    std::size_t base_index = 0;
    std::uint64_t mutations = 0;
    const ByteBuffer mutated =
        MutatedStream(bases, config, i, &base_index, &mutations);
    report.mutations_applied += mutations;
    ++report.iterations_run;
    bool accepted = false;
    if (auto why = ProbeStream<T>(mutated, &accepted)) {
      FuzzFailure failure;
      failure.iteration = i;
      failure.base_index = base_index;
      failure.what = std::move(*why);
      failure.stream = mutated;
      failure.minimized = Minimize<T>(mutated, config.minimize_budget);
      report.failure = std::move(failure);
      return report;
    }
    ++(accepted ? report.accepted : report.rejected);
  }
  return report;
}

template std::optional<std::string> ProbeStream<float>(ByteSpan, bool*);
template std::optional<std::string> ProbeStream<double>(ByteSpan, bool*);
template FuzzReport RunCorruptionFuzzer<float>(std::span<const ByteBuffer>,
                                               const FuzzConfig&);
template FuzzReport RunCorruptionFuzzer<double>(std::span<const ByteBuffer>,
                                                const FuzzConfig&);

}  // namespace szx::testkit
