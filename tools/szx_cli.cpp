// szx_cli -- command-line front end for the SZx codec.
//
//   szx_cli compress   -i data.f32 -o data.szx [-t f32|f64]
//                      [-m rel|abs|pwrel] [-e 1e-3] [-b 128] [--omp [N]]
//                      [--threads N] [--kernel scalar|avx2|neon]
//                      [--hybrid] [--integrity]
//   szx_cli decompress -i data.szx -o recon.f32 [--omp [N]] [--threads N]
//                      [--kernel scalar|avx2|neon]
//   szx_cli info       -i data.szx
//   szx_cli verify     -i data.f32 -z data.szx          (prints metrics)
//   szx_cli verify     -z data.szx        (checksum / structural verification)
//   szx_cli salvage    -i data.szx -o recon.f32 [--report PATH]
//                      [--sentinel VAL] [--threads N]
//   szx_cli tune       -i data.f32 [-t f32|f64] [-m ...] [-e ...]
//                      (suggests a block size per Sec. 5.3)
//   szx_cli pack       -o out.szx3 --field NAME:PATH[:f32|f64] ...
//                      [--timesteps K] [--chunk N] [-m ...] [-e ...] [-b ...]
//                      [--integrity] [--threads N]
//   szx_cli unpack     -i in.szx3 -o out.f32 --field NAME [--timestep T]
//                      [--first N --count N] [--threads N]
//   szx_cli query      -i in.szx3 [--json]   (directory + chunk checksums)
//   szx_cli client     --port P [--host H] --op ping|compress|decompress|
//                      salvage|query [-i IN] [-o OUT] [--deadline MS]
//                      [--report PATH] [--no-degrade] [--field-index N]
//                      [--timestep T] [-t ...] [-m ...] [-e ...] [-b ...]
//                      [--integrity]     (submit one job to a szx_serve)
//
// Raw files are flat little-endian float32/float64 arrays (the SDRBench
// convention).
//
// Exit codes (stable contract, covered by tests/cli/test_cli.cpp):
//   0  success
//   2  usage error (bad flags, bad combination of arguments)
//   3  corruption / verification failure (bad stream, bound violated,
//      salvage found damage, server answered with a non-OK status)
//   4  I/O error (cannot open/read/write a file; cannot connect to or
//      talk to a szx_serve daemon)
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/json.hpp"
#include "core/kernels/kernels.hpp"
#include "core/omp_codec.hpp"
#include "core/tuning.hpp"
#include "core/validate.hpp"
#include "hybrid/hybrid.hpp"
#include "metrics/metrics.hpp"
#include "resilience/salvage.hpp"
#include "serve/client.hpp"
#include "serve_net.hpp"

namespace {

using namespace szx;

// File-system failures are distinct from stream corruption in the exit-code
// contract; ReadFile/WriteFile throw this and main maps it to exit 4.
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void Usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  szx_cli compress   -i IN -o OUT [-t f32|f64]"
               " [-m rel|abs|pwrel] [-e BOUND] [-b BLOCK] [--omp [N]]"
               " [--threads N] [--kernel scalar|avx2|neon]"
               " [--hybrid] [--integrity]\n"
               "  szx_cli decompress -i IN -o OUT [--omp [N]] [--threads N]"
               " [--kernel scalar|avx2|neon]\n"
               "  szx_cli info       -i IN\n"
               "  szx_cli verify     -i RAW -z COMPRESSED   (distortion check)\n"
               "  szx_cli verify     -z COMPRESSED          (integrity check)\n"
               "  szx_cli salvage    -i IN -o OUT [--report PATH]"
               " [--sentinel VAL] [--threads N]\n"
               "  szx_cli tune       -i IN [-t f32|f64] [-m MODE] [-e BOUND]\n"
               "  szx_cli validate   -i IN [-t f32|f64] [--deep]\n"
               "  szx_cli pack       -o OUT --field NAME:PATH[:f32|f64] ..."
               " [--timesteps K] [--chunk N] [-m MODE] [-e BOUND] [-b BLOCK]"
               " [--integrity] [--threads N]\n"
               "  szx_cli unpack     -i IN -o OUT --field NAME [--timestep T]"
               " [--first N --count N] [--threads N]\n"
               "  szx_cli query      -i IN [--json]\n"
               "  szx_cli client     --port P [--host H] --op"
               " ping|compress|decompress|salvage|query [-i IN] [-o OUT]"
               " [--deadline MS] [--report PATH] [--no-degrade]"
               " [--field-index N] [--timestep T] [-t f32|f64] [-m MODE]"
               " [-e BOUND] [-b BLOCK] [--integrity]\n"
               "exit codes: 0 success, 2 usage, 3 corruption/verification"
               " failure or non-OK server status, 4 I/O or connection"
               " error\n");
  std::exit(2);
}

ByteBuffer ReadFile(const std::string& path) {
  // tellg() at the end of a directory or a pipe is garbage or -1, which
  // would otherwise size the buffer.
  std::error_code ec;
  const bool regular = std::filesystem::is_regular_file(path, ec);
  if (ec) throw IoError("cannot open " + path + ": " + ec.message());
  if (!regular) throw IoError("cannot open " + path + ": not a regular file");
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw IoError("cannot open " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) throw IoError("cannot size " + path);
  in.seekg(0);
  // szx-overwrite: in.read fills all size bytes, or the check below throws
  ByteBuffer buf(static_cast<std::size_t>(size));
  // szx-lint: allow(reinterpret-cast) -- ifstream::read requires char*; this is the file-I/O boundary
  in.read(reinterpret_cast<char*>(buf.data()), size);
  if (!in) throw IoError("cannot read " + path);
  return buf;
}

void WriteFile(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open " + path + " for writing");
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out) throw IoError("cannot write " + path);
}

struct Args {
  std::string input, output, compressed, report;
  std::string dtype = "f32";
  std::string mode = "rel";
  double error_bound = 1e-3;
  double sentinel = std::numeric_limits<double>::quiet_NaN();
  std::uint32_t block_size = 128;
  std::string kernel;  // empty = dispatcher's own choice
  bool omp = false;
  bool hybrid = false;
  bool deep = false;
  bool integrity = false;
  bool json = false;
  int threads = 0;
  std::vector<std::string> fields;  // pack: NAME:PATH[:dtype]; unpack: NAME
  std::uint64_t timesteps = 1;      // pack: split each field file into K
  std::uint64_t chunk = 0;          // pack: chunk elements (0 = default)
  std::uint64_t timestep = 0;       // unpack: which timestep
  std::uint64_t first = 0;          // unpack ROI start
  std::uint64_t count = 0;          // unpack ROI length
  bool has_range = false;
  std::string host = "127.0.0.1";   // client: szx_serve address
  int port = -1;                    // client: szx_serve port (required)
  std::string op = "ping";          // client: job opcode
  std::uint32_t deadline_ms = 0;    // client: per-request deadline (0 = none)
  std::uint32_t field_index = 0;    // client query: container field index
  bool no_degrade = false;          // client: strict mode (no partials)

  ErrorBoundMode Mode() const {
    if (mode == "abs") return ErrorBoundMode::kAbsolute;
    if (mode == "pwrel") return ErrorBoundMode::kPointwiseRelative;
    return ErrorBoundMode::kValueRangeRelative;
  }
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "-i") a.input = next();
    else if (arg == "-o") a.output = next();
    else if (arg == "-z") a.compressed = next();
    else if (arg == "-t") a.dtype = next();
    else if (arg == "-m") a.mode = next();
    else if (arg == "-e") a.error_bound = std::atof(next().c_str());
    else if (arg == "-b") a.block_size = static_cast<std::uint32_t>(
                              std::atoi(next().c_str()));
    else if (arg == "--omp") {
      a.omp = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        a.threads = std::atoi(argv[++i]);
      }
    } else if (arg == "--threads") {
      // Explicit thread count: implies the chunk-parallel codec paths.
      a.omp = true;
      a.threads = std::atoi(next().c_str());
      if (a.threads < 1) Usage("--threads must be >= 1");
    } else if (arg == "--kernel") {
      a.kernel = next();
    } else if (arg == "--hybrid") {
      a.hybrid = true;
    } else if (arg == "--deep") {
      a.deep = true;
    } else if (arg == "--integrity") {
      a.integrity = true;
    } else if (arg == "--report") {
      a.report = next();
    } else if (arg == "--sentinel") {
      a.sentinel = std::atof(next().c_str());
    } else if (arg == "--field") {
      a.fields.push_back(next());
    } else if (arg == "--timesteps") {
      a.timesteps = std::strtoull(next().c_str(), nullptr, 10);
      if (a.timesteps < 1) Usage("--timesteps must be >= 1");
    } else if (arg == "--chunk") {
      a.chunk = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--timestep") {
      a.timestep = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--first") {
      a.first = std::strtoull(next().c_str(), nullptr, 10);
      a.has_range = true;
    } else if (arg == "--count") {
      a.count = std::strtoull(next().c_str(), nullptr, 10);
      a.has_range = true;
    } else if (arg == "--json") {
      a.json = true;
    } else if (arg == "--host") {
      a.host = next();
    } else if (arg == "--port") {
      a.port = std::atoi(next().c_str());
      if (a.port < 0 || a.port > 65535) Usage("--port must be 0..65535");
    } else if (arg == "--op") {
      a.op = next();
    } else if (arg == "--deadline") {
      const long v = std::strtol(next().c_str(), nullptr, 10);
      if (v < 0) Usage("--deadline must be >= 0 (milliseconds)");
      a.deadline_ms = static_cast<std::uint32_t>(v);
    } else if (arg == "--field-index") {
      a.field_index = static_cast<std::uint32_t>(
          std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--no-degrade") {
      a.no_degrade = true;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (a.dtype != "f32" && a.dtype != "f64") Usage("-t must be f32 or f64");
  if (a.mode != "rel" && a.mode != "abs" && a.mode != "pwrel") {
    Usage("-m must be rel, abs or pwrel");
  }
  if (!a.kernel.empty() && a.kernel != "list") {
    kernels::Kind parsed{};
    if (!kernels::ParseKind(a.kernel.c_str(), parsed)) {
      Usage("--kernel must be scalar, avx2, neon or list");
    }
  }
  return a;
}

// `--kernel list`: one row per tier of the dispatch table, plus which one
// the dispatcher would run right now.
void PrintKernelTable() {
  const kernels::Kind active = kernels::ActiveKind();
  std::printf("kernel   compiled  supported  active\n");
  for (const kernels::TierInfo& t : kernels::KernelTiers()) {
    std::printf("%-7s  %-8s  %-9s  %s\n", kernels::KindName(t.kind),
                t.compiled ? "yes" : "no", t.supported ? "yes" : "no",
                t.kind == active ? "*" : "");
  }
}

// Installs the requested block-kernel implementation for the whole run.
void ApplyKernelChoice(const Args& a) {
  if (!a.kernel.empty()) {
    if (a.kernel == "list") {
      PrintKernelTable();
      std::exit(0);
    }
    kernels::Kind want = kernels::Kind::kScalar;
    (void)kernels::ParseKind(a.kernel.c_str(), want);  // validated in Parse
    // An unavailable tier is a usage error, never a silent fallback, so a
    // benchmark never measures the wrong ISA.  (SZX_KERNEL keeps its
    // fallback: the forced-kernel test matrix runs on every machine.)
    if (!kernels::KindSupported(want)) {
      Usage((a.kernel + " kernels are not available in this build/on this "
                        "CPU (see --kernel list)")
                .c_str());
    }
    kernels::SetActiveKind(want);
  }
}

template <typename T>
int DoCompress(const Args& a) {
  const ByteBuffer raw = ReadFile(a.input);
  if (raw.size() % sizeof(T) != 0) {
    Usage("input size is not a multiple of the element size");
  }
  std::vector<T> data(raw.size() / sizeof(T));
  ByteCursor(raw).ReadSpan(std::span<T>(data));
  Params p;
  p.mode = a.Mode();
  p.error_bound = a.error_bound;
  p.block_size = a.block_size;
  p.integrity = a.integrity;
  CompressionStats stats;
  ByteBuffer stream;
  if (a.hybrid) {
    hybrid::HybridStats hstats;
    stream = hybrid::Compress<T>(data, p, &hstats);
    stats = hstats.szx;
    stats.compressed_bytes = stream.size();
  } else {
    stream = a.omp ? CompressOmp<T>(data, p, &stats, a.threads)
                   : Compress<T>(data, p, &stats);
  }
  WriteFile(a.output, stream.data(), stream.size());
  std::printf("%zu -> %zu bytes (ratio %.3f), %llu/%llu constant blocks\n",
              raw.size(), stream.size(), stats.CompressionRatio(sizeof(T)),
              static_cast<unsigned long long>(stats.num_constant_blocks),
              static_cast<unsigned long long>(stats.num_blocks));
  return 0;
}

int DoDecompress(const Args& a) {
  ByteBuffer stream = ReadFile(a.input);
  if (hybrid::IsHybridStream(stream)) {
    stream = hybrid::Unwrap(stream);
  }
  const Header h = PeekHeader(stream);
  if (h.dtype == static_cast<std::uint8_t>(DataType::kFloat32)) {
    const auto out = a.omp ? DecompressOmp<float>(stream, a.threads)
                           : Decompress<float>(stream);
    WriteFile(a.output, out.data(), out.size() * sizeof(float));
    std::printf("wrote %zu float32 values\n", out.size());
  } else {
    const auto out = a.omp ? DecompressOmp<double>(stream, a.threads)
                           : Decompress<double>(stream);
    WriteFile(a.output, out.data(), out.size() * sizeof(double));
    std::printf("wrote %zu float64 values\n", out.size());
  }
  return 0;
}

int DoQuery(const Args& a);

int DoInfo(const Args& a) {
  ByteBuffer stream = ReadFile(a.input);
  if (IsContainer(stream)) {
    // Format-v3 container: info degrades to the query summary.
    return DoQuery(a);
  }
  if (hybrid::IsHybridStream(stream)) {
    std::printf("hybrid wrapper (SZx + lossless stage)\n");
    stream = hybrid::Unwrap(stream);
  }
  const Header h = PeekHeader(stream);
  std::printf("szx stream v%d\n", h.version);
  std::printf("  dtype          %s\n", h.dtype == 0 ? "float32" : "float64");
  std::printf("  elements       %llu\n",
              static_cast<unsigned long long>(h.num_elements));
  std::printf("  block size     %u\n", h.block_size);
  std::printf("  blocks         %llu (%llu constant)\n",
              static_cast<unsigned long long>(h.num_blocks),
              static_cast<unsigned long long>(h.num_constant));
  const char* mode_name =
      h.eb_mode == 0 ? "abs" : (h.eb_mode == 1 ? "rel" : "pwrel");
  std::printf("  bound          %s %.6g (abs %.6g)\n", mode_name,
              h.error_bound_user, h.error_bound_abs);
  std::printf("  solution       %c\n", "ABC"[h.solution]);
  std::printf("  payload        %llu bytes%s\n",
              static_cast<unsigned long long>(h.payload_bytes),
              (h.flags & kFlagRawPassthrough) ? " (raw passthrough)" : "");
  return 0;
}

template <typename T>
int DoTune(const Args& a) {
  const ByteBuffer raw = ReadFile(a.input);
  if (raw.size() % sizeof(T) != 0) {
    Usage("input size is not a multiple of the element size");
  }
  std::vector<T> data(raw.size() / sizeof(T));
  ByteCursor(raw).ReadSpan(std::span<T>(data));
  Params p;
  p.mode = a.Mode();
  p.error_bound = a.error_bound;
  const auto sweep = SweepBlockSizes<T>(data, p);
  std::printf("%-10s %10s\n", "blocksize", "sampled CR");
  for (const auto& c : sweep) {
    std::printf("%-10u %10.3f\n", c.block_size, c.sampled_ratio);
  }
  const auto choice = ChooseBlockSize<T>(data, p);
  std::printf("suggested block size: %u (CR %.3f)\n", choice.block_size,
              choice.sampled_ratio);
  return 0;
}

template <typename T>
int DoValidate(const Args& a) {
  ByteBuffer stream = ReadFile(a.input);
  if (hybrid::IsHybridStream(stream)) {
    stream = hybrid::Unwrap(stream);
  }
  const ValidationReport r = ValidateStream<T>(stream, a.deep);
  if (r.ok) {
    std::printf("stream OK (%llu elements, %llu payload bytes%s)\n",
                static_cast<unsigned long long>(r.header.num_elements),
                static_cast<unsigned long long>(r.payload_bytes_walked),
                a.deep ? ", deep-checked" : "");
    return 0;
  }
  std::printf("stream INVALID: %s\n", r.error.c_str());
  return 3;
}

template <typename T>
int DoVerifyIntegrity(const Args& a, const ByteBuffer& stream) {
  // Footer path (format v2): checksum every section and payload chunk.
  // v1 streams carry no checksums, so fall back to a deep structural walk.
  const Header h = PeekHeader(stream);
  if (h.version == kFormatVersionIntegrity) {
    const resilience::DamageReport r = resilience::VerifyIntegrity<T>(stream);
    if (!a.report.empty()) {
      const std::string json = r.ToJson();
      WriteFile(a.report, json.data(), json.size());
    }
    if (r.clean) {
      std::printf("integrity OK (%llu blocks, %zu chunks verified)\n",
                  static_cast<unsigned long long>(h.num_blocks),
                  r.chunks.size());
      return 0;
    }
    std::printf("integrity FAILED: %s\n",
                r.error.empty() ? "checksum mismatch" : r.error.c_str());
    std::printf("%s\n", r.ToJson().c_str());
    return 3;
  }
  const ValidationReport r = ValidateStream<T>(stream, /*deep=*/true);
  if (r.ok) {
    std::printf("structure OK (v%d stream has no checksums; deep-walked "
                "%llu payload bytes)\n",
                h.version,
                static_cast<unsigned long long>(r.payload_bytes_walked));
    return 0;
  }
  std::printf("structure INVALID: %s\n", r.error.c_str());
  return 3;
}

template <typename T>
int DoSalvage(const Args& a, const ByteBuffer& stream) {
  resilience::SalvageOptions opt;
  opt.num_threads = a.omp ? a.threads : 1;
  opt.sentinel = a.sentinel;
  const auto res = resilience::SalvageDecode<T>(stream, opt);
  const resilience::DamageReport& r = res.report;
  if (!a.report.empty()) {
    const std::string json = r.ToJson();
    WriteFile(a.report, json.data(), json.size());
  }
  if (!r.usable) {
    std::fprintf(stderr, "salvage failed: %s\n", r.error.c_str());
    return 3;
  }
  WriteFile(a.output, res.data.data(), res.data.size() * sizeof(T));
  std::printf("salvaged %zu elements: %llu recovered, %llu mu-filled, "
              "%llu lost (of %llu blocks)%s\n",
              res.data.size(),
              static_cast<unsigned long long>(r.blocks_recovered),
              static_cast<unsigned long long>(r.blocks_mu_filled),
              static_cast<unsigned long long>(r.blocks_lost),
              static_cast<unsigned long long>(r.num_blocks),
              r.clean ? "" : " -- stream was damaged");
  return r.clean ? 0 : 3;
}

// One --field spec for pack: NAME:PATH[:f32|f64] (dtype defaults to -t).
struct PackField {
  std::string name;
  std::string path;
  DataType dtype = DataType::kFloat32;
};

PackField ParsePackField(const std::string& spec, const std::string& dt) {
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos || c1 == 0 || c1 + 1 >= spec.size()) {
    Usage("--field expects NAME:PATH[:f32|f64]");
  }
  PackField f;
  f.name = spec.substr(0, c1);
  std::string rest = spec.substr(c1 + 1);
  std::string dtype = dt;
  const std::size_t c2 = rest.rfind(':');
  if (c2 != std::string::npos &&
      (rest.substr(c2 + 1) == "f32" || rest.substr(c2 + 1) == "f64")) {
    dtype = rest.substr(c2 + 1);
    rest = rest.substr(0, c2);
  }
  if (rest.empty()) Usage("--field expects NAME:PATH[:f32|f64]");
  f.path = rest;
  f.dtype = dtype == "f64" ? DataType::kFloat64 : DataType::kFloat32;
  return f;
}

template <typename T>
void PackAppend(ContainerWriter& w, std::uint32_t id, const ByteBuffer& raw,
                std::uint64_t timesteps, std::uint64_t ept, int threads) {
  std::vector<T> data(static_cast<std::size_t>(ept));
  ByteCursor cur(raw);
  for (std::uint64_t t = 0; t < timesteps; ++t) {
    cur.ReadSpan(std::span<T>(data));
    w.AppendTimestep<T>(id, data, threads);
  }
}

int DoPack(const Args& a) {
  ContainerWriter w;
  for (const std::string& spec : a.fields) {
    const PackField f = ParsePackField(spec, a.dtype);
    const std::size_t elem =
        f.dtype == DataType::kFloat32 ? sizeof(float) : sizeof(double);
    const ByteBuffer raw = ReadFile(f.path);
    if (raw.size() % elem != 0) {
      Usage((f.path + ": size is not a multiple of the element size")
                .c_str());
    }
    const std::uint64_t total = raw.size() / elem;
    if (total == 0 || total % a.timesteps != 0) {
      Usage((f.path + ": element count does not split into --timesteps")
                .c_str());
    }
    const std::uint64_t ept = total / a.timesteps;
    ContainerWriter::FieldSpec spec_out;
    spec_out.name = f.name;
    spec_out.params.mode = a.Mode();
    spec_out.params.error_bound = a.error_bound;
    spec_out.params.block_size = a.block_size;
    spec_out.params.integrity = a.integrity;
    spec_out.elements_per_timestep = ept;
    spec_out.chunk_elements = a.chunk;
    const std::uint32_t id = w.AddField(spec_out, f.dtype);
    if (f.dtype == DataType::kFloat32) {
      PackAppend<float>(w, id, raw, a.timesteps, ept, a.threads);
    } else {
      PackAppend<double>(w, id, raw, a.timesteps, ept, a.threads);
    }
  }
  const ByteBuffer out = w.Finish();
  WriteFile(a.output, out.data(), out.size());
  std::printf("packed %zu field(s) x %llu timestep(s) -> %zu bytes\n",
              a.fields.size(), static_cast<unsigned long long>(a.timesteps),
              out.size());
  return 0;
}

template <typename T>
int DoUnpackField(const Args& a, const ContainerReader& r,
                  std::uint32_t field) {
  const ContainerField& f = r.field(field);
  const std::uint64_t first = a.has_range ? a.first : 0;
  const std::uint64_t count =
      a.has_range ? a.count : f.elements_per_timestep;
  std::vector<T> out(static_cast<std::size_t>(count));
  r.DecompressRange<T>(field, a.timestep, first, std::span<T>(out),
                       a.threads);
  WriteFile(a.output, out.data(), out.size() * sizeof(T));
  std::printf("wrote %zu %s values (field %s, timestep %llu, first %llu)\n",
              out.size(),
              f.dtype == DataType::kFloat32 ? "float32" : "float64",
              f.name.c_str(), static_cast<unsigned long long>(a.timestep),
              static_cast<unsigned long long>(first));
  return 0;
}

int DoUnpack(const Args& a) {
  const ByteBuffer bytes = ReadFile(a.input);
  const ContainerReader r(bytes);
  std::uint32_t field = 0;
  if (!a.fields.empty()) {
    const auto found = r.FindField(a.fields.front());
    if (!found) {
      std::fprintf(stderr, "szx error: no field named %s\n",
                   a.fields.front().c_str());
      return 3;
    }
    field = *found;
  } else if (r.num_fields() != 1) {
    Usage("--field NAME required for multi-field containers");
  }
  if (a.has_range && a.count == 0) Usage("--first needs a nonzero --count");
  return r.field(field).dtype == DataType::kFloat32
             ? DoUnpackField<float>(a, r, field)
             : DoUnpackField<double>(a, r, field);
}

int DoQuery(const Args& a) {
  const ByteBuffer bytes = ReadFile(a.input);
  const ContainerReader r(bytes);
  // Checksum every chunk so damage shows up in the directory listing (and
  // in the exit code) without decoding anything.
  std::vector<std::uint64_t> damaged;
  for (std::uint64_t e = 0; e < r.num_entries(); ++e) {
    if (!r.VerifyChunk(e)) damaged.push_back(e);
  }
  if (a.json) {
    std::string os = "{\"fields\":[";
    for (std::uint32_t i = 0; i < r.num_fields(); ++i) {
      const ContainerField& f = r.field(i);
      if (i > 0) os += ",";
      os += "{\"name\":\"" + JsonEscape(f.name) + "\",\"dtype\":\"";
      os += f.dtype == DataType::kFloat32 ? "f32" : "f64";
      os += "\",\"elements_per_timestep\":" +
            std::to_string(f.elements_per_timestep) +
            ",\"timesteps\":" + std::to_string(f.timesteps) +
            ",\"chunk_elements\":" + std::to_string(f.chunk_elements) +
            ",\"chunks_per_timestep\":" +
            std::to_string(f.chunks_per_timestep) +
            ",\"first_entry\":" + std::to_string(f.first_entry) + "}";
    }
    os += "],\"entries\":" + std::to_string(r.num_entries()) +
          ",\"damaged_entries\":[";
    for (std::size_t i = 0; i < damaged.size(); ++i) {
      if (i > 0) os += ",";
      os += std::to_string(damaged[i]);
    }
    os += "]}\n";
    std::fputs(os.c_str(), stdout);
  } else {
    std::printf("szx container v3: %zu field(s), %llu chunk(s)\n",
                static_cast<std::size_t>(r.num_fields()),
                static_cast<unsigned long long>(r.num_entries()));
    for (std::uint32_t i = 0; i < r.num_fields(); ++i) {
      const ContainerField& f = r.field(i);
      std::printf("  %-16s %s  %llu elem/ts x %llu ts, chunk %llu "
                  "(%llu/ts), entries [%llu, %llu)\n",
                  f.name.c_str(),
                  f.dtype == DataType::kFloat32 ? "f32" : "f64",
                  static_cast<unsigned long long>(f.elements_per_timestep),
                  static_cast<unsigned long long>(f.timesteps),
                  static_cast<unsigned long long>(f.chunk_elements),
                  static_cast<unsigned long long>(f.chunks_per_timestep),
                  static_cast<unsigned long long>(f.first_entry),
                  static_cast<unsigned long long>(
                      f.first_entry +
                      f.timesteps * f.chunks_per_timestep));
    }
    if (damaged.empty()) {
      std::printf("  all chunk checksums OK\n");
    } else {
      std::printf("  %zu DAMAGED chunk(s):", damaged.size());
      for (const std::uint64_t e : damaged) std::printf(" %llu",
          static_cast<unsigned long long>(e));
      std::printf("\n");
    }
  }
  return damaged.empty() ? 0 : 3;
}

// Distortion check of a stream against its raw input.  The verdict is the
// stream mode's own guarantee, checked by the conformance oracle
// (metrics::CheckErrorBound): a pointwise-relative stream's header holds no
// absolute bound (error_bound_abs is 0), so comparing against it alone
// would refuse every correct one.
template <SupportedFloat T>
int DoVerify(const Args& a, const ByteBuffer& stream,
             std::size_t stored_bytes) {
  const ByteBuffer raw = ReadFile(a.input);
  std::vector<T> data(raw.size() / sizeof(T));
  ByteCursor(raw).ReadSpan(std::span<T>(data));
  const std::vector<T> recon = Decompress<T>(stream);
  if (recon.size() != data.size()) Usage("element count mismatch");
  const Header h = PeekHeader(stream);
  Params p;
  p.mode = static_cast<ErrorBoundMode>(h.eb_mode);
  p.error_bound = h.error_bound_user;
  const std::optional<std::string> violation = metrics::CheckErrorBound<T>(
      data, recon, p, h.error_bound_abs);
  const auto d = metrics::ComputeDistortion<T>(data, recon);
  const char* verdict = violation ? "VIOLATED" : "OK";
  if (p.mode == ErrorBoundMode::kPointwiseRelative) {
    std::printf("max err  %.6g (bound %.6g * |d|)  %s\n", d.max_abs_error,
                h.error_bound_user, verdict);
  } else {
    std::printf("max err  %.6g (bound %.6g)  %s\n", d.max_abs_error,
                h.error_bound_abs, verdict);
  }
  if (violation) std::fprintf(stderr, "%s\n", violation->c_str());
  std::printf("PSNR     %.2f dB\n", d.psnr_db);
  std::printf("ratio    %.3f\n",
              static_cast<double>(raw.size()) /
                  static_cast<double>(stored_bytes));
  return violation ? 3 : 0;
}

// ---------------------------------------------------------------------------
// `client`: submit one job to a running szx_serve daemon (docs/serve.md).

serve::Opcode ParseClientOp(const std::string& op) {
  if (op == "ping") return serve::Opcode::kPing;
  if (op == "compress") return serve::Opcode::kCompress;
  if (op == "decompress") return serve::Opcode::kDecompress;
  if (op == "salvage") return serve::Opcode::kSalvage;
  if (op == "query") return serve::Opcode::kQuery;
  Usage("--op must be ping, compress, decompress, salvage or query");
}

// Splits a report+data response body, prints/saves the report, and writes
// the payload to -o.  Returns 0 for kOk, 3 for anything degraded.
int HandleReportAndData(const Args& a, const serve::ClientResponse& rsp) {
  const serve::ReportAndData split = serve::SplitReportAndData(rsp.body);
  if (!a.report.empty()) {
    WriteFile(a.report, split.report.data(), split.report.size());
  } else {
    std::fprintf(stderr, "%s\n", split.report.c_str());
  }
  if (!a.output.empty()) {
    WriteFile(a.output, split.data.data(), split.data.size());
  }
  return rsp.header.status == serve::Status::kOk ? 0 : 3;
}

int DoClient(const Args& a) {
  if (a.port < 0) Usage("client requires --port");
  const serve::Opcode op = ParseClientOp(a.op);
  if (op != serve::Opcode::kPing && a.input.empty()) {
    Usage(("--op " + a.op + " requires -i").c_str());
  }

  ByteBuffer body;
  switch (op) {
    case serve::Opcode::kPing:
      if (!a.input.empty()) body = ReadFile(a.input);
      break;
    case serve::Opcode::kCompress: {
      serve::CompressSpec spec;
      spec.dtype = a.dtype == "f64" ? DataType::kFloat64 : DataType::kFloat32;
      spec.mode = a.Mode();
      spec.integrity = a.integrity ? 1 : 0;
      spec.block_size = a.block_size;
      spec.error_bound = a.error_bound;
      serve::AppendCompressSpec(body, spec);
      const ByteBuffer raw = ReadFile(a.input);
      ByteWriter(body).WriteBytes(raw.data(), raw.size());
      break;
    }
    case serve::Opcode::kDecompress:
    case serve::Opcode::kSalvage:
      body = ReadFile(a.input);
      break;
    case serve::Opcode::kQuery: {
      serve::QuerySpec spec;
      spec.field = a.field_index;
      spec.timestep = a.timestep;
      serve::AppendQuerySpec(body, spec);
      const ByteBuffer container = ReadFile(a.input);
      ByteWriter(body).WriteBytes(container.data(), container.size());
      break;
    }
  }

  const int fd = servenet::ConnectTcp(
      a.host, static_cast<std::uint16_t>(a.port));
  if (fd < 0) {
    std::fprintf(stderr, "szx client: cannot connect to %s:%d: %s\n",
                 a.host.c_str(), a.port, std::strerror(errno));
    return 4;
  }
  servenet::FdTransport transport(fd);
  serve::Client client(transport);

  serve::ClientResponse rsp;
  try {
    rsp = client.Call(op, body, a.deadline_ms,
                      a.no_degrade ? serve::kFlagNoDegrade : 0);
  } catch (const serve::TransportError& e) {
    std::fprintf(stderr, "szx client: transport error: %s\n", e.what());
    return 4;
  }

  std::fprintf(stderr, "status %s", serve::StatusName(rsp.header.status));
  if (rsp.header.status == serve::Status::kBusy) {
    std::fprintf(stderr, " (retry in %u ms)", rsp.header.info);
  }
  if ((rsp.header.flags & serve::kFlagBodyDamaged) != 0) {
    std::fprintf(stderr, " (request body was damaged in transit)");
  }
  std::fprintf(stderr, "\n");

  switch (rsp.header.status) {
    case serve::Status::kOk:
      // Salvage and query answer report+data even on full success.
      if (op == serve::Opcode::kSalvage || op == serve::Opcode::kQuery) {
        return HandleReportAndData(a, rsp);
      }
      if (!a.output.empty()) {
        WriteFile(a.output, rsp.body.data(), rsp.body.size());
      }
      return 0;
    case serve::Status::kPartial:
      return HandleReportAndData(a, rsp);
    default:
      // Error statuses carry a JSON reason (or a report) in the body.
      if (!rsp.body.empty()) {
        const std::string reason(
            // szx-lint: allow(reinterpret-cast) -- response reason text is printable bytes at the tool boundary, not stream parsing
            reinterpret_cast<const char*>(rsp.body.data()), rsp.body.size());
        std::fprintf(stderr, "%s\n", reason.c_str());
      }
      return 3;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string cmd = argv[1];
  try {
    const Args a = Parse(argc, argv);
    ApplyKernelChoice(a);
    if (cmd == "compress") {
      if (a.input.empty() || a.output.empty()) Usage("-i and -o required");
      return a.dtype == "f32" ? DoCompress<float>(a) : DoCompress<double>(a);
    }
    if (cmd == "decompress") {
      if (a.input.empty() || a.output.empty()) Usage("-i and -o required");
      return DoDecompress(a);
    }
    if (cmd == "info") {
      if (a.input.empty()) Usage("-i required");
      return DoInfo(a);
    }
    if (cmd == "verify") {
      if (a.compressed.empty()) Usage("-z required");
      ByteBuffer stream = ReadFile(a.compressed);
      const std::size_t stored_bytes = stream.size();
      if (hybrid::IsHybridStream(stream)) stream = hybrid::Unwrap(stream);
      const bool f32 = PeekHeader(stream).dtype ==
                       static_cast<std::uint8_t>(DataType::kFloat32);
      if (!a.input.empty()) {
        return f32 ? DoVerify<float>(a, stream, stored_bytes)
                   : DoVerify<double>(a, stream, stored_bytes);
      }
      // Integrity-only mode: no raw reference needed.
      return f32 ? DoVerifyIntegrity<float>(a, stream)
                 : DoVerifyIntegrity<double>(a, stream);
    }
    if (cmd == "salvage") {
      if (a.input.empty() || a.output.empty()) Usage("-i and -o required");
      const ByteBuffer stream = ReadFile(a.input);
      // Dtype dispatch must survive a damaged header: peek leniently and
      // fall back to the -t flag when even the header is gone.
      bool is_f64 = a.dtype == "f64";
      try {
        is_f64 = PeekHeader(stream).dtype ==
                 static_cast<std::uint8_t>(DataType::kFloat64);
      } catch (const Error&) {
      }
      return is_f64 ? DoSalvage<double>(a, stream)
                    : DoSalvage<float>(a, stream);
    }
    if (cmd == "tune") {
      if (a.input.empty()) Usage("-i required");
      return a.dtype == "f32" ? DoTune<float>(a) : DoTune<double>(a);
    }
    if (cmd == "pack") {
      if (a.output.empty()) Usage("-o required");
      if (a.fields.empty()) Usage("at least one --field NAME:PATH required");
      return DoPack(a);
    }
    if (cmd == "unpack") {
      if (a.input.empty() || a.output.empty()) Usage("-i and -o required");
      return DoUnpack(a);
    }
    if (cmd == "query") {
      if (a.input.empty()) Usage("-i required");
      return DoQuery(a);
    }
    if (cmd == "validate") {
      if (a.input.empty()) Usage("-i required");
      return a.dtype == "f32" ? DoValidate<float>(a)
                              : DoValidate<double>(a);
    }
    if (cmd == "client") {
      return DoClient(a);
    }
    Usage(("unknown command " + cmd).c_str());
  } catch (const IoError& e) {
    std::fprintf(stderr, "szx io error: %s\n", e.what());
    return 4;
  } catch (const Error& e) {
    std::fprintf(stderr, "szx error: %s\n", e.what());
    return 3;
  }
}
