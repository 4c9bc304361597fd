// Golden-stream corpus: a checked-in set of compressed streams pinning the
// on-disk format.
//
// Each case names a canonical input (generator, size, seed -- all
// bit-reproducible) and the Params used to compress it.  The corpus test
// re-compresses the canonical input and requires byte equality with the
// checked-in file, and decodes the checked-in file and requires the
// error-bound oracle to hold -- so ANY change to the stream format, encoder
// decisions, or decoder semantics surfaces as an explicit diff of
// tests/golden/ that has to be reviewed and regenerated on purpose
// (tools/szx_goldengen).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/generators.hpp"

namespace szx::testkit {

struct GoldenCase {
  std::string file;  ///< file name inside the corpus directory
  DataType dtype;
  Gen gen;
  std::size_t n;
  std::uint64_t seed;
  Params params;
};

/// The corpus definition: float/double crossed with every error-bound mode
/// and commit solution, plus the format's special paths (raw passthrough,
/// lossless blocks, constant streams, subnormals).
const std::vector<GoldenCase>& GoldenCases();

/// Compresses the case's canonical input (what goldengen writes to disk).
ByteBuffer EncodeGoldenCase(const GoldenCase& c);

/// The full manifest text (one line per case: file, size, FNV-1a hash,
/// params), so corpus drift is readable in review even for binary files.
std::string ManifestText();
inline constexpr const char* kManifestFile = "MANIFEST.txt";

/// Writes every golden stream plus the manifest into `dir`.
void WriteGoldenCorpus(const std::string& dir);

/// Checks one case against the corpus in `dir`: byte equality of the
/// re-encoded stream and error-bound conformance of the decoded one.
/// Returns std::nullopt on success.
std::optional<std::string> VerifyGoldenCase(const GoldenCase& c,
                                            const std::string& dir);

/// File helpers (throw szx::Error on I/O failure).
ByteBuffer ReadFileBytes(const std::string& path);
void WriteFileBytes(const std::string& path, ByteSpan bytes);

// ---------------------------------------------------------------------------
// Damaged-stream corpus: pinned fault-injected streams plus their expected
// DamageReport JSON, so salvage semantics are part of the golden contract
// (a behavior change in the salvage pipeline shows up as a reviewable diff
// of tests/golden/damaged_*.report.json).

struct DamagedGoldenCase {
  std::string file;   ///< damaged stream file (tests/golden/damaged_*.szx)
  GoldenCase clean;   ///< recipe for the pristine integrity (v2) stream
  FaultClass cls;     ///< injected fault class
  std::uint64_t fault_seed;
};

/// Every fault class on a float32 integrity wave, plus a float64 bit flip.
const std::vector<DamagedGoldenCase>& DamagedGoldenCases();

/// Rebuilds the damaged stream from its recipe (clean encode + injection).
ByteBuffer EncodeDamagedGoldenCase(const DamagedGoldenCase& c);

/// Salvages `stream` with default options and returns the report JSON.
std::string SalvageReportJson(const DamagedGoldenCase& c, ByteSpan stream);

/// `file` with its .szx suffix replaced by .report.json.
std::string DamagedReportFile(const DamagedGoldenCase& c);

/// Manifest for the damaged corpus (one line per case).
std::string DamagedManifestText();
inline constexpr const char* kDamagedManifestFile = "DAMAGED_MANIFEST.txt";

/// Writes damaged_*.szx + damaged_*.report.json + the manifest into `dir`.
void WriteDamagedGoldenCorpus(const std::string& dir);

/// Checks one damaged case: the re-injected stream must be byte-identical
/// to the checked-in file, and salvaging the checked-in file must produce
/// exactly the checked-in report JSON.  Returns std::nullopt on success.
std::optional<std::string> VerifyDamagedGoldenCase(const DamagedGoldenCase& c,
                                                   const std::string& dir);

// ---------------------------------------------------------------------------
// Container corpus: pinned format-v3 containers (core/container.hpp), the
// seekable multi-field framing.  Byte equality of a re-encode pins the
// container layout (header, chunk framing, directory); the verify step also
// proves ROI decode == full-decode slice on the pinned bytes, with and
// without a decoded-chunk cache.

struct ContainerGoldenField {
  std::string name;
  DataType dtype;
  Gen gen;
  std::size_t elements_per_timestep;
  std::uint64_t timesteps;
  std::uint64_t chunk_elements;
  std::uint64_t seed;  ///< timestep t uses seed + t
  Params params;
};

struct ContainerGoldenCase {
  std::string file;  ///< file name inside the corpus directory
  std::vector<ContainerGoldenField> fields;
};

/// Single-field, multi-field/mixed-dtype/ragged-tail, and integrity (v2
/// chunk) containers.
const std::vector<ContainerGoldenCase>& ContainerGoldenCases();

/// Builds the case's container (what goldengen writes to disk).
ByteBuffer EncodeContainerGoldenCase(const ContainerGoldenCase& c);

/// Manifest for the container corpus (one line per case).
std::string ContainerManifestText();
inline constexpr const char* kContainerManifestFile = "CONTAINER_MANIFEST.txt";

/// Writes container_*.szx3 + the manifest into `dir`.
void WriteContainerGoldenCorpus(const std::string& dir);

/// Checks one case: re-encode must be byte-identical (the container layout
/// drifted otherwise), every (field, timestep) must decode within its
/// error bound, and deterministic ROI probes must match the full-decode
/// slice bit-for-bit both uncached and through a shared ChunkCache.
/// Returns std::nullopt on success.
std::optional<std::string> VerifyContainerGoldenCase(
    const ContainerGoldenCase& c, const std::string& dir);

// Damaged-container corpus: a size-preserving fault injected into the
// payload region only (the directory must survive or nothing can be
// located), plus the pinned per-timestep container-salvage report.

struct DamagedContainerGoldenCase {
  std::string file;           ///< damaged container (container_damaged_*.szx3)
  ContainerGoldenCase clean;  ///< recipe for the pristine container
  FaultClass cls;             ///< size-preserving class (bit flip, zero fill)
  std::uint64_t fault_seed;
};

const std::vector<DamagedContainerGoldenCase>& DamagedContainerGoldenCases();

/// Rebuilds the damaged container (clean encode + payload-region fault).
ByteBuffer EncodeDamagedContainerGoldenCase(
    const DamagedContainerGoldenCase& c);

/// JSON array of SalvageContainerTimestep reports, one element per
/// timestep of field 0.
std::string ContainerSalvageReportJson(const DamagedContainerGoldenCase& c,
                                       ByteSpan container);

/// `file` with its .szx3 suffix replaced by .report.json.
std::string DamagedContainerReportFile(const DamagedContainerGoldenCase& c);

std::string DamagedContainerManifestText();
inline constexpr const char* kDamagedContainerManifestFile =
    "DAMAGED_CONTAINER_MANIFEST.txt";

/// Writes container_damaged_*.szx3 + .report.json + the manifest into `dir`.
void WriteDamagedContainerGoldenCorpus(const std::string& dir);

/// Re-injection must reproduce the pinned bytes; salvaging the pinned
/// container must reproduce the pinned report; undamaged chunks must decode
/// bit-identically to the clean container.  Returns std::nullopt on success.
std::optional<std::string> VerifyDamagedContainerGoldenCase(
    const DamagedContainerGoldenCase& c, const std::string& dir);

}  // namespace szx::testkit
