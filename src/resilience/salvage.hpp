// Fault-tolerant decode: verify and salvage damaged SZx streams.
//
// The SZx format is unusually salvage-friendly: block payloads are
// self-contained and the zsize directory localizes damage to individual
// blocks (paper Sec. 6.1).  With the opt-in format v2 integrity footer
// (core/integrity.hpp) every section and payload chunk carries an FNV-1a
// checksum, so SalvageDecode can decode exactly the verifiable chunks
// through the shared DecodeChunkInto core (frame_index.hpp's WalkBlocks,
// the block walk every frame reader runs) and quarantine the rest:
//
//   - chunk payload verifies + all tables verify  -> bit-exact decode
//   - chunk damaged but const/mu tables verify    -> graceful degradation:
//     every block filled with its mu (a bounded-error approximation of the
//     block, reported, never silent)
//   - tables damaged                              -> caller-supplied
//     sentinel fill (default quiet NaN)
//
// Streams without a footer (v1, or a footer destroyed by truncation/torn
// write) go through a lenient per-block walk that decodes whatever the
// surviving metadata still addresses; everything it produces is reported
// kUnverified because nothing can be checked.  That walk and the mu fill
// keep their own loops: the fallback tolerates missing sections, and the
// mu fill must not read the zsize or req sections it may be routing around.
//
// Threat model and guarantees: docs/resilience.md.  This directory is a
// lint strict zone: szx-lint refuses allow() escapes here, so every byte
// access goes through the bounds-checked ByteCursor/span primitives.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "core/integrity.hpp"

namespace szx::resilience {

/// Verification outcome for one stream section or payload chunk.
enum class Verdict : std::uint8_t {
  kOk = 0,          ///< checksum present and matched
  kCorrupt = 1,     ///< checksum present and mismatched
  kTruncated = 2,   ///< bytes missing from the stream tail
  kUnverified = 3,  ///< no checksum available (v1 stream or footer lost)
};
const char* VerdictName(Verdict v);

/// How a chunk's output range was produced.
enum class ChunkFill : std::uint8_t {
  kDecoded = 0,   ///< full payload decode
  kMuFill = 1,    ///< per-block mu approximation (tables verified)
  kSentinel = 2,  ///< caller sentinel (tables unusable)
};
const char* ChunkFillName(ChunkFill f);

/// Half-open block range [begin, end).
struct BlockRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const BlockRange&, const BlockRange&) = default;
};

struct ChunkVerdict {
  std::uint64_t first_block = 0;
  std::uint64_t last_block = 0;  ///< exclusive
  Verdict verdict = Verdict::kUnverified;
  ChunkFill fill = ChunkFill::kDecoded;

  friend bool operator==(const ChunkVerdict&, const ChunkVerdict&) = default;
};

/// Structured result of a verification or salvage pass.  Deterministic for
/// a given (stream, options) input, independent of thread count.
struct DamageReport {
  bool usable = false;  ///< output was produced (possibly degraded)
  bool clean = false;   ///< every checksum verified; output is bit-exact
  std::string error;    ///< fatal reason when !usable

  std::uint8_t version = 0;
  bool has_footer = false;
  Verdict footer = Verdict::kUnverified;
  Verdict header = Verdict::kUnverified;
  Verdict type_bits = Verdict::kUnverified;
  Verdict const_mu = Verdict::kUnverified;
  Verdict ncb_req = Verdict::kUnverified;
  Verdict ncb_mu = Verdict::kUnverified;
  Verdict ncb_zsize = Verdict::kUnverified;

  std::uint64_t num_elements = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t blocks_recovered = 0;  ///< decoded from payload bytes
  std::uint64_t blocks_mu_filled = 0;  ///< degraded to the block mu
  std::uint64_t blocks_lost = 0;       ///< sentinel-filled

  /// Per-chunk outcome, aligned with the footer chunk directory.  Empty for
  /// footerless streams (the fallback walk has no chunk structure).
  std::vector<ChunkVerdict> chunks;
  /// Merged block ranges that are NOT bit-exact recoveries (mu-filled,
  /// sentinel-filled, or decoded-from-suspect-bytes in the fallback walk).
  std::vector<BlockRange> damaged_blocks;
  /// Stream byte ranges implicated in the damage (corrupt sections, corrupt
  /// payload chunks, missing tails).
  std::vector<ByteRange> damaged_bytes;

  /// True iff every metadata table (and the header) verified.
  [[nodiscard]] bool AllTablesVerify() const;
  /// True iff block k lies in a damaged_blocks range.
  [[nodiscard]] bool BlockDamaged(std::uint64_t k) const;
  /// Canonical JSON rendering (stable field order) for pinned golden
  /// reports and the CLI --report output.
  [[nodiscard]] std::string ToJson() const;
};

struct SalvageOptions {
  /// 1 = serial (default); 0 = executor default width
  /// (exec::DefaultThreads); N > 1 = parallel chunk salvage.  The output and report are identical for every value.
  int num_threads = 1;
  /// Fill value for blocks whose mu is unrecoverable.
  double sentinel = std::numeric_limits<double>::quiet_NaN();
  /// Allocation cap applied only when the header could not be verified
  /// (a forged num_elements must not drive a huge allocation).
  std::uint64_t max_output_bytes = std::uint64_t{1} << 31;
};

template <SupportedFloat T>
struct SalvageResult {
  std::vector<T> data;  ///< num_elements values; empty when !report.usable
  DamageReport report;
};

/// Best-effort decode of a possibly damaged stream.  Never throws for
/// data-dependent damage; a stream too broken to produce output returns
/// report.usable == false with the reason in report.error.
template <SupportedFloat T>
[[nodiscard]] SalvageResult<T> SalvageDecode(ByteSpan stream,
                               const SalvageOptions& options = {});

/// Verification-only pass: same verdicts as SalvageDecode but no output
/// allocation and no payload decode (chunk verdicts come from checksums
/// alone).  For footerless streams only structural checks are possible.
template <SupportedFloat T>
[[nodiscard]] DamageReport VerifyIntegrity(ByteSpan stream);

}  // namespace szx::resilience
