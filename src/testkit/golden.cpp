#include "testkit/golden.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>

#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/integrity.hpp"
#include "core/omp_codec.hpp"
#include "resilience/container_salvage.hpp"
#include "resilience/salvage.hpp"
#include "testkit/oracle.hpp"

namespace szx::testkit {

namespace {

Params MakeParams(ErrorBoundMode mode, double eb, std::uint32_t bs,
                  CommitSolution sol) {
  Params p;
  p.mode = mode;
  p.error_bound = eb;
  p.block_size = bs;
  p.solution = sol;
  return p;
}

const char* ModeName(ErrorBoundMode m) {
  switch (m) {
    case ErrorBoundMode::kAbsolute: return "abs";
    case ErrorBoundMode::kValueRangeRelative: return "rel";
    case ErrorBoundMode::kPointwiseRelative: return "pwrel";
  }
  return "?";
}

}  // namespace

const std::vector<GoldenCase>& GoldenCases() {
  using enum ErrorBoundMode;
  using enum CommitSolution;
  static const std::vector<GoldenCase> kCases = {
      // Solution matrix on a typical smooth field (float).
      {"f32_abs_c_wave.szx", DataType::kFloat32, Gen::kWave, 1000, 101,
       MakeParams(kAbsolute, 1e-3, 128, kC)},
      {"f32_abs_a_wave.szx", DataType::kFloat32, Gen::kWave, 777, 102,
       MakeParams(kAbsolute, 1e-3, 128, kA)},
      {"f32_abs_b_wave.szx", DataType::kFloat32, Gen::kWave, 777, 103,
       MakeParams(kAbsolute, 1e-3, 128, kB)},
      // Error-bound modes (float).
      {"f32_rel_c_noise.szx", DataType::kFloat32, Gen::kNoise, 1000, 104,
       MakeParams(kValueRangeRelative, 1e-3, 128, kC)},
      {"f32_rel_c_nonfinite.szx", DataType::kFloat32, Gen::kNonFinite, 1000,
       105, MakeParams(kValueRangeRelative, 1e-3, 128, kC)},
      {"f32_pwrel_c_zeroheavy.szx", DataType::kFloat32, Gen::kZeroHeavy, 960,
       106, MakeParams(kPointwiseRelative, 1e-2, 128, kC)},
      // Special format paths (float).
      {"f32_abs_c_denormals.szx", DataType::kFloat32, Gen::kDenormals, 512,
       107, MakeParams(kAbsolute, 1e-44, 64, kC)},
      {"f32_abs_c_rangecollapse.szx", DataType::kFloat32, Gen::kRangeCollapse,
       513, 108, MakeParams(kAbsolute, 1e-5, 64, kC)},
      {"f32_rel_c_constant.szx", DataType::kFloat32, Gen::kConstant, 300, 109,
       MakeParams(kValueRangeRelative, 1e-3, 128, kC)},
      {"f32_abs_c_ulpsteps.szx", DataType::kFloat32, Gen::kUlpSteps, 256, 110,
       MakeParams(kAbsolute, 1e-9, 32, kC)},
      // Tight bound on noise makes every block lossless and trips the raw
      // passthrough frame.
      {"f32_abs_c_rawpassthrough.szx", DataType::kFloat32, Gen::kNoise, 400,
       111, MakeParams(kAbsolute, 1e-12, 128, kC)},
      // Double-precision coverage.
      {"f64_abs_c_wave.szx", DataType::kFloat64, Gen::kWave, 800, 112,
       MakeParams(kAbsolute, 1e-6, 128, kC)},
      {"f64_rel_a_noise.szx", DataType::kFloat64, Gen::kNoise, 555, 113,
       MakeParams(kValueRangeRelative, 1e-4, 128, kA)},
      {"f64_pwrel_b_mixedscales.szx", DataType::kFloat64, Gen::kMixedScales,
       640, 114, MakeParams(kPointwiseRelative, 1e-3, 128, kB)},
      {"f64_abs_c_negatives.szx", DataType::kFloat64, Gen::kNegatives, 1029,
       115, MakeParams(kAbsolute, 1e-2, 256, kC)},
  };
  return kCases;
}

ByteBuffer EncodeGoldenCase(const GoldenCase& c) {
  if (c.dtype == DataType::kFloat32) {
    const std::vector<float> data = Generate<float>(c.gen, c.n, c.seed);
    return Compress<float>(data, c.params);
  }
  const std::vector<double> data = Generate<double>(c.gen, c.n, c.seed);
  return Compress<double>(data, c.params);
}

namespace {

std::string ManifestLine(const GoldenCase& c, ByteSpan stream) {
  std::ostringstream os;
  os << c.file << "  bytes=" << stream.size() << "  fnv1a64=" << std::hex
     << Fnv1a64(stream) << std::dec << "  "
     << (c.dtype == DataType::kFloat32 ? "f32" : "f64") << " "
     << GenName(c.gen) << " n=" << c.n << " seed=" << c.seed
     << " mode=" << ModeName(c.params.mode) << " eb=" << c.params.error_bound
     << " bs=" << c.params.block_size << " sol="
     << static_cast<char>('A' + static_cast<int>(c.params.solution));
  return os.str();
}

}  // namespace

std::string ManifestText() {
  std::ostringstream os;
  os << "# Golden-stream corpus manifest -- regenerate with szx_goldengen.\n"
     << "# Any diff here is a stream-format change and must be reviewed.\n";
  for (const GoldenCase& c : GoldenCases()) {
    os << ManifestLine(c, EncodeGoldenCase(c)) << "\n";
  }
  return os.str();
}

ByteBuffer ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("testkit: cannot open " + path);
  ByteBuffer bytes;
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    // szx-lint: allow(reinterpret-cast) -- ifstream reads into char buffers; this is the file-I/O boundary, nothing is parsed here
    const auto* p = reinterpret_cast<const std::byte*>(chunk);
    bytes.insert(bytes.end(), p, p + in.gcount());
  }
  return bytes;
}

void WriteFileBytes(const std::string& path, ByteSpan bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("testkit: cannot create " + path);
  // szx-lint: allow(reinterpret-cast) -- ofstream::write requires char*; bytes are only written, never interpreted
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("testkit: short write to " + path);
}

void WriteGoldenCorpus(const std::string& dir) {
  for (const GoldenCase& c : GoldenCases()) {
    WriteFileBytes(dir + "/" + c.file, EncodeGoldenCase(c));
  }
  const std::string manifest = ManifestText();
  WriteFileBytes(dir + "/" + kManifestFile,
                 // szx-lint: allow(reinterpret-cast) -- views locally built manifest text as bytes for writing
                 ByteSpan(reinterpret_cast<const std::byte*>(manifest.data()),
                          manifest.size()));
}

namespace {

template <SupportedFloat T>
std::optional<std::string> VerifyDecode(const GoldenCase& c,
                                        const ByteBuffer& golden) {
  const std::vector<T> data = Generate<T>(c.gen, c.n, c.seed);
  std::vector<T> recon;
  try {
    recon = Decompress<T>(golden);
  } catch (const Error& e) {
    return "decoder rejects the golden stream: " + std::string(e.what());
  }
  // The parallel decoder must reconstruct bit-for-bit what the serial one
  // does (it shares the chunk decode core; this pins the contract).  The
  // SZX_THREADS reruns registered in tests/CMakeLists.txt exercise this
  // comparison at every thread count.
  std::vector<T> omp_recon;
  try {
    omp_recon = DecompressOmp<T>(golden, 0);
  } catch (const Error& e) {
    return "parallel decoder rejects the golden stream: " +
           std::string(e.what());
  }
  if (omp_recon.size() != recon.size()) {
    return c.file + ": parallel decoder returned " +
           std::to_string(omp_recon.size()) + " elements, serial returned " +
           std::to_string(recon.size());
  }
  for (std::size_t i = 0; i < recon.size(); ++i) {
    if (std::bit_cast<typename FloatTraits<T>::Bits>(omp_recon[i]) !=
        std::bit_cast<typename FloatTraits<T>::Bits>(recon[i])) {
      return c.file + ": parallel decoder diverges from serial at element " +
             std::to_string(i);
    }
  }
  // The parallel encoder's contract is just as strict: CompressOmp at the
  // environment-selected width and kernel (SZX_THREADS / SZX_KERNEL) must
  // emit the golden bytes exactly.  The executor battery reruns this for
  // every kernel x thread-count cell.
  ByteBuffer omp_stream;
  try {
    omp_stream = CompressOmp<T>(std::span<const T>(data), c.params);
  } catch (const Error& e) {
    return "parallel encoder failed on the golden case: " +
           std::string(e.what());
  }
  if (omp_stream.size() != golden.size() ||
      !std::equal(omp_stream.begin(), omp_stream.end(), golden.begin())) {
    return c.file + ": parallel encoder output diverges from the golden "
                    "stream (" +
           std::to_string(omp_stream.size()) + " vs " +
           std::to_string(golden.size()) + " bytes)";
  }
  const double abs_bound =
      ResolveAbsoluteBound<T>(std::span<const T>(data), c.params);
  return CheckErrorBound<T>(data, recon, c.params, abs_bound);
}

}  // namespace

std::optional<std::string> VerifyGoldenCase(const GoldenCase& c,
                                            const std::string& dir) {
  ByteBuffer golden;
  try {
    golden = ReadFileBytes(dir + "/" + c.file);
  } catch (const Error& e) {
    return std::string(e.what()) + " (regenerate with szx_goldengen)";
  }
  const ByteBuffer fresh = EncodeGoldenCase(c);
  if (fresh.size() != golden.size()) {
    return c.file + ": encoder output is " + std::to_string(fresh.size()) +
           " bytes but the golden stream is " + std::to_string(golden.size()) +
           " -- the stream format drifted";
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (fresh[i] != golden[i]) {
      return c.file + ": encoder output diverges from the golden stream at " +
             "byte " + std::to_string(i) + " of " +
             std::to_string(fresh.size()) + " -- the stream format drifted";
    }
  }
  return c.dtype == DataType::kFloat32 ? VerifyDecode<float>(c, golden)
                                       : VerifyDecode<double>(c, golden);
}

// ---------------------------------------------------------------------------
// Damaged-stream corpus.

namespace {

GoldenCase IntegrityCase(const char* file, DataType dtype, Gen gen,
                         std::size_t n, std::uint64_t seed,
                         ErrorBoundMode mode, double eb, std::uint32_t bs) {
  Params p = MakeParams(mode, eb, bs, CommitSolution::kC);
  p.integrity = true;
  return {file, dtype, gen, n, seed, p};
}

}  // namespace

const std::vector<DamagedGoldenCase>& DamagedGoldenCases() {
  using enum ErrorBoundMode;
  // One case per fault class on the same float32 wave (so diffs isolate the
  // fault model, not the input), plus a float64 bit flip for dtype coverage.
  static const std::vector<DamagedGoldenCase> kCases = {
      {"damaged_f32_bitflip.szx",
       IntegrityCase("", DataType::kFloat32, Gen::kWave, 20000, 201,
                     kAbsolute, 1e-3, 64),
       FaultClass::kBitFlip, 11},
      {"damaged_f32_truncate.szx",
       IntegrityCase("", DataType::kFloat32, Gen::kWave, 20000, 201,
                     kAbsolute, 1e-3, 64),
       FaultClass::kTruncate, 12},
      {"damaged_f32_tornwrite.szx",
       IntegrityCase("", DataType::kFloat32, Gen::kWave, 20000, 201,
                     kAbsolute, 1e-3, 64),
       FaultClass::kTornWrite, 13},
      {"damaged_f32_zerofill.szx",
       IntegrityCase("", DataType::kFloat32, Gen::kWave, 20000, 201,
                     kAbsolute, 1e-3, 64),
       FaultClass::kZeroFill, 14},
      {"damaged_f32_duplicate.szx",
       IntegrityCase("", DataType::kFloat32, Gen::kWave, 20000, 201,
                     kAbsolute, 1e-3, 64),
       FaultClass::kDuplicate, 15},
      {"damaged_f64_bitflip.szx",
       IntegrityCase("", DataType::kFloat64, Gen::kNoise, 9000, 202,
                     kValueRangeRelative, 1e-4, 128),
       FaultClass::kBitFlip, 16},
  };
  return kCases;
}

ByteBuffer EncodeDamagedGoldenCase(const DamagedGoldenCase& c) {
  ByteBuffer stream = EncodeGoldenCase(c.clean);
  InjectFault(stream, c.cls, c.fault_seed);
  return stream;
}

std::string SalvageReportJson(const DamagedGoldenCase& c, ByteSpan stream) {
  if (c.clean.dtype == DataType::kFloat32) {
    return resilience::SalvageDecode<float>(stream).report.ToJson();
  }
  return resilience::SalvageDecode<double>(stream).report.ToJson();
}

std::string DamagedReportFile(const DamagedGoldenCase& c) {
  const std::string stem = c.file.substr(0, c.file.rfind(".szx"));
  return stem + ".report.json";
}

std::string DamagedManifestText() {
  std::ostringstream os;
  os << "# Damaged golden corpus -- regenerate with szx_goldengen.\n"
     << "# Each stream is a pinned fault injection on an integrity (v2)\n"
     << "# encode; the .report.json next to it is the expected salvage\n"
     << "# DamageReport.  A diff here is a salvage-semantics change.\n";
  for (const DamagedGoldenCase& c : DamagedGoldenCases()) {
    const ByteBuffer stream = EncodeDamagedGoldenCase(c);
    os << c.file << "  bytes=" << stream.size() << "  fnv1a64=" << std::hex
       << Fnv1a64(stream) << std::dec
       << "  fault=" << FaultClassName(c.cls) << " seed=" << c.fault_seed
       << "  base=" << GenName(c.clean.gen) << " n=" << c.clean.n << "\n";
  }
  return os.str();
}

void WriteDamagedGoldenCorpus(const std::string& dir) {
  for (const DamagedGoldenCase& c : DamagedGoldenCases()) {
    const ByteBuffer stream = EncodeDamagedGoldenCase(c);
    WriteFileBytes(dir + "/" + c.file, stream);
    const std::string json = SalvageReportJson(c, stream);
    // szx-lint: allow(reinterpret-cast) -- views locally built JSON text as bytes for writing
    const auto* json_bytes = reinterpret_cast<const std::byte*>(json.data());
    WriteFileBytes(dir + "/" + DamagedReportFile(c),
                   ByteSpan(json_bytes, json.size()));
  }
  const std::string manifest = DamagedManifestText();
  WriteFileBytes(dir + "/" + kDamagedManifestFile,
                 // szx-lint: allow(reinterpret-cast) -- views locally built manifest text as bytes for writing
                 ByteSpan(reinterpret_cast<const std::byte*>(manifest.data()),
                          manifest.size()));
}

std::optional<std::string> VerifyDamagedGoldenCase(const DamagedGoldenCase& c,
                                                   const std::string& dir) {
  ByteBuffer pinned;
  ByteBuffer pinned_report;
  try {
    pinned = ReadFileBytes(dir + "/" + c.file);
    pinned_report = ReadFileBytes(dir + "/" + DamagedReportFile(c));
  } catch (const Error& e) {
    return std::string(e.what()) + " (regenerate with szx_goldengen)";
  }
  const ByteBuffer fresh = EncodeDamagedGoldenCase(c);
  if (fresh != pinned) {
    return c.file + ": re-injected stream diverges from the pinned bytes -- "
                    "the encoder or fault injector drifted";
  }
  const std::string report = SalvageReportJson(c, pinned);
  const std::string expected(
      // szx-lint: allow(reinterpret-cast) -- checked-in JSON bytes back to text for comparison
      reinterpret_cast<const char*>(pinned_report.data()),
      pinned_report.size());
  if (report != expected) {
    return c.file + ": salvage DamageReport diverges from " +
           DamagedReportFile(c) + " -- salvage semantics drifted";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Container corpus.

namespace {

ContainerGoldenField MakeField(const char* name, DataType dtype, Gen gen,
                               std::size_t ept, std::uint64_t timesteps,
                               std::uint64_t chunk, std::uint64_t seed,
                               Params params) {
  return {name, dtype, gen, ept, timesteps, chunk, seed, params};
}

template <SupportedFloat T>
void AppendFieldTimesteps(ContainerWriter& w, std::uint32_t id,
                          const ContainerGoldenField& f) {
  for (std::uint64_t t = 0; t < f.timesteps; ++t) {
    const std::vector<T> data =
        Generate<T>(f.gen, f.elements_per_timestep, f.seed + t);
    w.AppendTimestep<T>(id, data);
  }
}

}  // namespace

const std::vector<ContainerGoldenCase>& ContainerGoldenCases() {
  using enum ErrorBoundMode;
  using enum CommitSolution;
  static const std::vector<ContainerGoldenCase> kCases = {
      // Single field, several timesteps, power-of-two chunks.
      {"container_single_f32.szx3",
       {MakeField("wave", DataType::kFloat32, Gen::kWave, 4096, 3, 1024, 301,
                  MakeParams(kAbsolute, 1e-3, 128, kC))}},
      // Two fields with different dtypes, bounds, timestep counts, and a
      // ragged tail chunk (3000 % 896 != 0).
      {"container_multi.szx3",
       {MakeField("wave", DataType::kFloat32, Gen::kWave, 3000, 2, 896, 302,
                  MakeParams(kValueRangeRelative, 1e-3, 128, kC)),
        MakeField("noise", DataType::kFloat64, Gen::kNoise, 2000, 1, 512, 303,
                  MakeParams(kAbsolute, 1e-4, 128, kC))}},
      // Integrity params: every chunk is a v2 stream with its own footer.
      {"container_integrity.szx3",
       {MakeField("mixed", DataType::kFloat32, Gen::kMixedScales, 2100, 2, 700,
                  304, [] {
                    Params p = MakeParams(ErrorBoundMode::kAbsolute, 1e-2, 64,
                                          CommitSolution::kC);
                    p.integrity = true;
                    return p;
                  }())}},
  };
  return kCases;
}

ByteBuffer EncodeContainerGoldenCase(const ContainerGoldenCase& c) {
  ContainerWriter w;
  std::vector<std::uint32_t> ids;
  ids.reserve(c.fields.size());
  for (const ContainerGoldenField& f : c.fields) {
    ContainerWriter::FieldSpec spec;
    spec.name = f.name;
    spec.params = f.params;
    spec.elements_per_timestep = f.elements_per_timestep;
    spec.chunk_elements = f.chunk_elements;
    ids.push_back(w.AddField(spec, f.dtype));
  }
  for (std::size_t i = 0; i < c.fields.size(); ++i) {
    if (c.fields[i].dtype == DataType::kFloat32) {
      AppendFieldTimesteps<float>(w, ids[i], c.fields[i]);
    } else {
      AppendFieldTimesteps<double>(w, ids[i], c.fields[i]);
    }
  }
  return w.Finish();
}

std::string ContainerManifestText() {
  std::ostringstream os;
  os << "# Container (format v3) corpus -- regenerate with szx_goldengen.\n"
     << "# A diff here is a container-layout change and must be reviewed.\n";
  for (const ContainerGoldenCase& c : ContainerGoldenCases()) {
    const ByteBuffer bytes = EncodeContainerGoldenCase(c);
    os << c.file << "  bytes=" << bytes.size() << "  fnv1a64=" << std::hex
       << Fnv1a64(bytes) << std::dec << "  fields=" << c.fields.size();
    for (const ContainerGoldenField& f : c.fields) {
      os << "  [" << f.name << " "
         << (f.dtype == DataType::kFloat32 ? "f32" : "f64") << " "
         << GenName(f.gen) << " ept=" << f.elements_per_timestep
         << " ts=" << f.timesteps << " chunk=" << f.chunk_elements
         << " seed=" << f.seed << " mode=" << ModeName(f.params.mode)
         << " eb=" << f.params.error_bound << "]";
    }
    os << "\n";
  }
  return os.str();
}

void WriteContainerGoldenCorpus(const std::string& dir) {
  for (const ContainerGoldenCase& c : ContainerGoldenCases()) {
    WriteFileBytes(dir + "/" + c.file, EncodeContainerGoldenCase(c));
  }
  const std::string manifest = ContainerManifestText();
  WriteFileBytes(dir + "/" + kContainerManifestFile,
                 // szx-lint: allow(reinterpret-cast) -- views locally built manifest text as bytes for writing
                 ByteSpan(reinterpret_cast<const std::byte*>(manifest.data()),
                          manifest.size()));
}

namespace {

/// Decode checks for one field of a pinned container: error-bound oracle on
/// every timestep, then ROI probes (uncached and cache-backed) that must
/// equal the full-decode slice bit-for-bit.
template <SupportedFloat T>
std::optional<std::string> VerifyContainerField(
    const ContainerReader& reader, const ContainerReader& cached,
    std::uint32_t id, const ContainerGoldenField& f) {
  using Bits = typename FloatTraits<T>::Bits;
  const std::uint64_t ept = f.elements_per_timestep;
  for (std::uint64_t t = 0; t < f.timesteps; ++t) {
    const std::vector<T> data = Generate<T>(f.gen, ept, f.seed + t);
    std::vector<T> full;
    try {
      full = reader.DecompressTimestep<T>(id, t);
    } catch (const Error& e) {
      return f.name + ": decoder rejects the pinned container: " + e.what();
    }
    const double abs_bound =
        ResolveAbsoluteBound<T>(std::span<const T>(data), f.params);
    if (auto err = CheckErrorBound<T>(data, full, f.params, abs_bound)) {
      return f.name + " timestep " + std::to_string(t) + ": " + *err;
    }
    // Deterministic ROI probes, including a chunk-straddling one.
    const std::uint64_t probes[] = {0, ept / 3,
                                    ept - std::min<std::uint64_t>(ept, 5)};
    for (const std::uint64_t first : probes) {
      const std::uint64_t count = std::min<std::uint64_t>(
          ept - first, 2 * f.chunk_elements + 7);
      std::vector<T> roi(static_cast<std::size_t>(count));
      std::vector<T> roi_cached(roi.size());
      reader.DecompressRange<T>(id, t, first, std::span<T>(roi));
      cached.DecompressRange<T>(id, t, first, std::span<T>(roi_cached));
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t at = static_cast<std::size_t>(i);
        const Bits want = std::bit_cast<Bits>(
            full[static_cast<std::size_t>(first + i)]);
        if (std::bit_cast<Bits>(roi[at]) != want) {
          return f.name + ": ROI decode diverges from the full-decode slice "
                          "at element " +
                 std::to_string(first + i);
        }
        if (std::bit_cast<Bits>(roi_cached[at]) != want) {
          return f.name + ": cache-backed ROI decode diverges at element " +
                 std::to_string(first + i);
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> VerifyContainerGoldenCase(
    const ContainerGoldenCase& c, const std::string& dir) {
  ByteBuffer pinned;
  try {
    pinned = ReadFileBytes(dir + "/" + c.file);
  } catch (const Error& e) {
    return std::string(e.what()) + " (regenerate with szx_goldengen)";
  }
  // Re-encode under the environment-selected executor and thread count:
  // the container layout must be byte-identical for every backend width.
  const ByteBuffer fresh = EncodeContainerGoldenCase(c);
  if (fresh.size() != pinned.size()) {
    return c.file + ": writer output is " + std::to_string(fresh.size()) +
           " bytes but the pinned container is " +
           std::to_string(pinned.size()) + " -- the container layout drifted";
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (fresh[i] != pinned[i]) {
      return c.file + ": writer output diverges from the pinned container "
                      "at byte " +
             std::to_string(i) + " -- the container layout drifted";
    }
  }
  try {
    ContainerReader reader(pinned);
    ChunkCache cache(32u << 20);
    ContainerReader cached(pinned, &cache);
    if (reader.num_fields() != c.fields.size()) {
      return c.file + ": pinned container has " +
             std::to_string(reader.num_fields()) + " fields, recipe has " +
             std::to_string(c.fields.size());
    }
    for (std::uint32_t i = 0; i < c.fields.size(); ++i) {
      const ContainerGoldenField& f = c.fields[i];
      const auto err =
          f.dtype == DataType::kFloat32
              ? VerifyContainerField<float>(reader, cached, i, f)
              : VerifyContainerField<double>(reader, cached, i, f);
      if (err) return c.file + ": " + *err;
    }
  } catch (const Error& e) {
    return c.file + ": reader rejects the pinned container: " + e.what();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Damaged-container corpus.

const std::vector<DamagedContainerGoldenCase>&
DamagedContainerGoldenCases() {
  static const std::vector<DamagedContainerGoldenCase> kCases = [] {
    const auto& clean = ContainerGoldenCases();
    // Size-preserving classes only: the directory must survive injection or
    // the reader (correctly) refuses the whole container.
    return std::vector<DamagedContainerGoldenCase>{
        {"container_damaged_bitflip.szx3", clean[0], FaultClass::kBitFlip,
         401},
        {"container_damaged_zerofill.szx3", clean[2], FaultClass::kZeroFill,
         402},
    };
  }();
  return kCases;
}

ByteBuffer EncodeDamagedContainerGoldenCase(
    const DamagedContainerGoldenCase& c) {
  ByteBuffer bytes = EncodeContainerGoldenCase(c.clean);
  const ContainerReader reader(bytes);
  if (reader.num_entries() == 0) {
    throw Error("testkit: damaged-container recipe has no chunks");
  }
  // Payload region = [first chunk offset, end of last chunk): faults stay
  // off the header and directory so damage is a chunk property, not a
  // refuse-the-container property.
  const std::size_t begin =
      static_cast<std::size_t>(reader.entry(0).offset);
  const ContainerChunkEntry& last = reader.entry(reader.num_entries() - 1);
  const std::size_t end = static_cast<std::size_t>(last.offset + last.bytes);
  ByteBuffer payload(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                     bytes.begin() + static_cast<std::ptrdiff_t>(end));
  const std::size_t before = payload.size();
  InjectFault(payload, c.cls, c.fault_seed);
  if (payload.size() != before) {
    throw Error("testkit: damaged-container fault class must preserve size");
  }
  std::copy(payload.begin(), payload.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(begin));
  return bytes;
}

namespace {

template <SupportedFloat T>
std::string SalvageAllTimesteps(const ContainerReader& reader,
                                const ContainerGoldenField& f) {
  std::string out = "[";
  for (std::uint64_t t = 0; t < f.timesteps; ++t) {
    const auto r = resilience::SalvageContainerTimestep<T>(reader, 0, t);
    if (t > 0) out += ",";
    out += r.report.ToJson();
  }
  return out + "]";
}

}  // namespace

std::string ContainerSalvageReportJson(const DamagedContainerGoldenCase& c,
                                       ByteSpan container) {
  const ContainerReader reader(container);
  const ContainerGoldenField& f = c.clean.fields.at(0);
  return f.dtype == DataType::kFloat32
             ? SalvageAllTimesteps<float>(reader, f)
             : SalvageAllTimesteps<double>(reader, f);
}

std::string DamagedContainerReportFile(const DamagedContainerGoldenCase& c) {
  const std::string stem = c.file.substr(0, c.file.rfind(".szx3"));
  return stem + ".report.json";
}

std::string DamagedContainerManifestText() {
  std::ostringstream os;
  os << "# Damaged container corpus -- regenerate with szx_goldengen.\n"
     << "# Each container carries a size-preserving payload-region fault;\n"
     << "# the .report.json next to it is the expected per-timestep\n"
     << "# container-salvage report.  A diff here is a salvage-semantics\n"
     << "# change.\n";
  for (const DamagedContainerGoldenCase& c : DamagedContainerGoldenCases()) {
    const ByteBuffer bytes = EncodeDamagedContainerGoldenCase(c);
    os << c.file << "  bytes=" << bytes.size() << "  fnv1a64=" << std::hex
       << Fnv1a64(bytes) << std::dec << "  fault=" << FaultClassName(c.cls)
       << " seed=" << c.fault_seed << "  base=" << c.clean.file << "\n";
  }
  return os.str();
}

void WriteDamagedContainerGoldenCorpus(const std::string& dir) {
  for (const DamagedContainerGoldenCase& c : DamagedContainerGoldenCases()) {
    const ByteBuffer bytes = EncodeDamagedContainerGoldenCase(c);
    WriteFileBytes(dir + "/" + c.file, bytes);
    const std::string json = ContainerSalvageReportJson(c, bytes);
    // szx-lint: allow(reinterpret-cast) -- views locally built JSON text as bytes for writing
    const auto* json_bytes = reinterpret_cast<const std::byte*>(json.data());
    WriteFileBytes(dir + "/" + DamagedContainerReportFile(c),
                   ByteSpan(json_bytes, json.size()));
  }
  const std::string manifest = DamagedContainerManifestText();
  WriteFileBytes(dir + "/" + kDamagedContainerManifestFile,
                 // szx-lint: allow(reinterpret-cast) -- views locally built manifest text as bytes for writing
                 ByteSpan(reinterpret_cast<const std::byte*>(manifest.data()),
                          manifest.size()));
}

namespace {

/// Undamaged chunks must decode bit-identically to the clean container:
/// damage stays quarantined to the chunks the fault actually touched.
template <SupportedFloat T>
std::optional<std::string> CheckDamageQuarantine(
    const ContainerReader& clean, const ContainerReader& damaged,
    const ContainerGoldenField& f) {
  using Bits = typename FloatTraits<T>::Bits;
  for (std::uint64_t t = 0; t < f.timesteps; ++t) {
    const std::vector<T> want = clean.DecompressTimestep<T>(0, t);
    const auto r = resilience::SalvageContainerTimestep<T>(damaged, 0, t);
    if (!r.report.usable) {
      return "salvage of timestep " + std::to_string(t) +
             " unusable: " + r.report.error;
    }
    const std::uint64_t cpt =
        (f.elements_per_timestep + f.chunk_elements - 1) / f.chunk_elements;
    for (std::uint64_t c = 0; c < cpt; ++c) {
      // Skip chunks the report lists as damaged.
      bool is_damaged = false;
      for (const resilience::ContainerChunkDamage& d : r.report.damaged) {
        if (d.entry == damaged.EntryIndex(0, t, c)) is_damaged = true;
      }
      if (is_damaged) continue;
      const std::uint64_t begin = c * f.chunk_elements;
      const std::uint64_t end = std::min<std::uint64_t>(
          begin + f.chunk_elements, f.elements_per_timestep);
      for (std::uint64_t i = begin; i < end; ++i) {
        const std::size_t at = static_cast<std::size_t>(i);
        if (std::bit_cast<Bits>(r.data[at]) !=
            std::bit_cast<Bits>(want[at])) {
          return "undamaged chunk " + std::to_string(c) + " of timestep " +
                 std::to_string(t) + " diverges from the clean decode";
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> VerifyDamagedContainerGoldenCase(
    const DamagedContainerGoldenCase& c, const std::string& dir) {
  ByteBuffer pinned;
  ByteBuffer pinned_report;
  try {
    pinned = ReadFileBytes(dir + "/" + c.file);
    pinned_report = ReadFileBytes(dir + "/" + DamagedContainerReportFile(c));
  } catch (const Error& e) {
    return std::string(e.what()) + " (regenerate with szx_goldengen)";
  }
  const ByteBuffer fresh = EncodeDamagedContainerGoldenCase(c);
  if (fresh != pinned) {
    return c.file + ": re-injected container diverges from the pinned "
                    "bytes -- the writer or fault injector drifted";
  }
  const std::string report = ContainerSalvageReportJson(c, pinned);
  const std::string expected(
      // szx-lint: allow(reinterpret-cast) -- checked-in JSON bytes back to text for comparison
      reinterpret_cast<const char*>(pinned_report.data()),
      pinned_report.size());
  if (report != expected) {
    return c.file + ": container-salvage report diverges from " +
           DamagedContainerReportFile(c) + " -- salvage semantics drifted";
  }
  try {
    const ByteBuffer clean_bytes = EncodeContainerGoldenCase(c.clean);
    const ContainerReader clean(clean_bytes);
    const ContainerReader damaged(pinned);
    const ContainerGoldenField& f = c.clean.fields.at(0);
    const auto err = f.dtype == DataType::kFloat32
                         ? CheckDamageQuarantine<float>(clean, damaged, f)
                         : CheckDamageQuarantine<double>(clean, damaged, f);
    if (err) return c.file + ": " + *err;
  } catch (const Error& e) {
    return c.file + ": " + std::string(e.what());
  }
  return std::nullopt;
}

}  // namespace szx::testkit
