// Regression tests for the decode-path hardening pass (docs/static-analysis.md):
// each test forges the specific corrupt stream that used to reach an unchecked
// allocation or a wrapped size computation, and pins down that the decoder now
// rejects it with szx::Error instead of over-allocating or scanning out of
// bounds.  Header field offsets below mirror the packed structs in the codec
// sources; the static_asserts on compressed sizes keep them honest.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/byte_cursor.hpp"
#include "core/common.hpp"
#include "core/container.hpp"
#include "core/integrity.hpp"
#include "core/kernels/kernels.hpp"
#include "core/omp_codec.hpp"
#include "core/random_access.hpp"
#include "core/validate.hpp"
#include "cusim/cusim_codec.hpp"
#include "lzref/lzref.hpp"
#include "resilience/container_salvage.hpp"
#include "resilience/salvage.hpp"
#include "szref/sz2.hpp"
#include "szref/szref.hpp"
#include "zfpref/zfpref.hpp"

namespace szx {
namespace {

// Little-endian field patcher; keeps the test lint-clean (no raw memcpy).
void PokeU64(ByteBuffer& buf, std::size_t off, std::uint64_t v) {
  ASSERT_LE(off + 8, buf.size());
  for (std::size_t i = 0; i < 8; ++i) {
    buf[off + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

std::vector<float> Ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(i) * 0.25f;
  }
  return v;
}

// A crafted original_bytes far beyond what the token stream could expand to
// (cap: 255 output bytes per stream byte) used to drive a multi-gigabyte
// reserve() before any token was validated.
TEST(Hardening, LzrefHugeOriginalBytesClaimRejected) {
  constexpr std::string_view kText = "hello hello hello hello";
  ByteBuffer stream =
      lzref::LzCompress(std::as_bytes(std::span<const char>(kText)));
  // LzHeader: magic[4] version reserved[3] | original_bytes @ 8.
  PokeU64(stream, 8, std::uint64_t{1} << 62);
  EXPECT_THROW(lzref::LzDecompress(stream), Error);
  PokeU64(stream, 8, ~std::uint64_t{0});
  EXPECT_THROW(lzref::LzDecompress(stream), Error);
}

// dims {2^63+1, 2, 1} multiply out to 2 mod 2^64, so the pre-fix equality
// check against num_elements == 2 passed and the Lorenzo loops ran with
// nz = 2^63+1.  The dims product is now overflow-checked.
TEST(Hardening, SzrefWrappedDimsProductRejected) {
  const std::vector<float> data = Ramp(2);
  const std::vector<std::size_t> dims{2};
  szref::SzParams p;
  p.error_bound = 1e-3;
  ByteBuffer stream = szref::SzCompress(data, dims, p);
  // SzHeader: magic[4] version ndims quant_bits eb_mode | eb_user @ 8,
  // eb_abs @ 16, dims[3] @ 24, num_elements @ 48.
  stream[5] = std::byte{3};  // ndims
  PokeU64(stream, 24, (std::uint64_t{1} << 63) + 1);
  PokeU64(stream, 32, 2);
  PokeU64(stream, 40, 1);
  EXPECT_THROW(szref::SzDecompress(stream), Error);
}

TEST(Hardening, Sz2WrappedDimsProductRejected) {
  const std::vector<float> data = Ramp(2);
  const std::vector<std::size_t> dims{2};
  szref::Sz2Params p;
  p.error_bound = 1e-3;
  ByteBuffer stream = szref::Sz2Compress(data, dims, p);
  // Sz2Header: magic[4] version ndims quant_bits eb_mode block_side @ 8,
  // reserved @ 12, eb_user @ 16, eb_abs @ 24, dims[3] @ 32.
  stream[5] = std::byte{3};  // ndims
  PokeU64(stream, 32, (std::uint64_t{1} << 63) + 1);
  PokeU64(stream, 40, 2);
  PokeU64(stream, 48, 1);
  EXPECT_THROW(szref::Sz2Decompress(stream), Error);
}

// num_elements claims 2^61 floats out of a few payload bytes; the pre-fix
// code allocated the output vector before looking at payload_bytes at all.
// CheckedAlloc now bounds the count by remaining * 512 (>= 1 bit per
// up-to-64-element block) and rejects.
TEST(Hardening, ZfprefImplausibleElementCountRejected) {
  const std::vector<float> data = Ramp(32);
  const std::vector<std::size_t> dims{32};
  zfpref::ZfpParams p;
  p.error_bound = 1e-3;
  ByteBuffer stream = zfpref::ZfpCompress(data, dims, p);
  // ZfpHeader: magic[4] version ndims reserved[2] | eb_user @ 8,
  // eb_abs @ 16, dims[3] @ 24, num_elements @ 48, payload_bytes @ 56.
  PokeU64(stream, 24, std::uint64_t{1} << 61);  // dims[0]
  PokeU64(stream, 48, std::uint64_t{1} << 61);  // num_elements (product OK)
  EXPECT_THROW(zfpref::ZfpDecompress(stream), Error);
}

TEST(Hardening, ZfpFixedRateTruncatedAndOversizedRejected) {
  const std::vector<float> data = Ramp(64);
  const std::vector<std::size_t> dims{64};
  ByteBuffer stream = zfpref::ZfpCompressFixedRate(data, dims, 8.0);
  // ZfpFixedHeader is 48 bytes; cutting just past it leaves fewer payload
  // bits than num_blocks * block_bits requires.
  EXPECT_THROW(
      zfpref::ZfpDecompressFixedRate(ByteSpan(stream.data(), 49)), Error);
  // A huge element count must be rejected by the exact bit-budget check,
  // not by attempting the allocation.
  ByteBuffer forged = stream;
  // ZfpFixedHeader: magic[4] version ndims reserved[2] | block_bits @ 8,
  // reserved2 @ 12, dims[3] @ 16, num_elements @ 40.
  PokeU64(forged, 16, std::uint64_t{1} << 61);  // dims[0]
  PokeU64(forged, 40, std::uint64_t{1} << 61);  // num_elements
  EXPECT_THROW(zfpref::ZfpDecompressFixedRate(forged), Error);
}

// A container chunk's directory checksum only proves the chunk arrived
// intact, not that its header tells the truth.  A chunk whose SZX1
// num_elements field is inflated (with its entry checksum and the directory
// trailer checksum recomputed to match) must be rejected by the element
// count probe before any output is sized from it, and container salvage
// must quarantine the chunk instead of throwing.
TEST(Hardening, ContainerLyingChunkElementCountRejected) {
  constexpr std::uint64_t kChunk = 500;
  constexpr std::uint64_t kChunks = 4;
  ContainerWriter writer;
  ContainerWriter::FieldSpec spec;
  spec.name = "ramp";
  spec.params.mode = ErrorBoundMode::kAbsolute;
  spec.params.error_bound = 1e-3;
  spec.elements_per_timestep = kChunk * kChunks;
  spec.chunk_elements = kChunk;
  const std::uint32_t f = writer.AddField(spec, DataType::kFloat32);
  writer.AppendTimestep<float>(f, Ramp(kChunk * kChunks));
  ByteBuffer container = writer.Finish();

  const ContainerReader clean(container);
  const std::uint64_t victim = clean.EntryIndex(f, 0, 1);
  const ContainerChunkEntry entry = clean.entry(victim);
  // Inside the chunk stream the SZx Header puts num_elements at offset 40.
  PokeU64(container, entry.offset + 40, std::uint64_t{1} << 61);
  // The directory ends in the entry table (u64 offset | bytes | fnv per
  // entry) followed by the trailer (u64 dir_fnv | u32 dir_bytes | "SZXD").
  const std::size_t trailer = container.size() - kDirectoryTailBytes;
  const std::size_t entries = trailer - clean.num_entries() * 24;
  const ByteSpan bytes(container);
  PokeU64(container, entries + victim * 24 + 16,
          Fnv1a64(bytes.subspan(entry.offset, entry.bytes)));
  const auto dir_begin = static_cast<std::size_t>(
      ByteCursor(bytes).Read<ContainerHeader>().directory_offset);
  PokeU64(container, trailer,
          Fnv1a64(bytes.subspan(dir_begin, trailer - dir_begin)));

  const ContainerReader reader(container);  // the directory still verifies
  ASSERT_TRUE(reader.VerifyChunk(victim));
  EXPECT_THROW((void)reader.DecompressTimestep<float>(f, 0), Error);

  resilience::ContainerSalvageResult<float> r;
  ASSERT_NO_THROW(r = resilience::SalvageContainerTimestep<float>(reader, f, 0));
  ASSERT_TRUE(r.report.usable);
  EXPECT_FALSE(r.report.clean);
  EXPECT_EQ(r.report.chunks_recovered, kChunks - 1);
  ASSERT_EQ(r.report.damaged.size(), 1u);
  EXPECT_EQ(r.report.damaged[0].entry, victim);
}

// The chunk directory (frame_index.hpp) is derived from the type-bit and
// zsize sections and validated against the header totals before any block
// decodes.  A forged type-bit section -- internally parseable but lying
// about how many blocks are constant -- must be rejected by both the serial
// and the parallel decoder, not silently walked with skewed counters.
TEST(Hardening, SzxForgedTypeBitsRejectedByBothDecoders) {
  const std::vector<float> data = Ramp(4096);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  ByteBuffer stream = Compress<float>(data, p);
  const Header h = PeekHeader(stream);
  ASSERT_EQ(h.flags & kFlagRawPassthrough, 0u);
  ASSERT_GT(h.num_blocks, 0u);
  // Flip block 0's type bit: the per-chunk popcount tallies no longer agree
  // with header.num_constant.
  stream[sizeof(Header)] ^= std::byte{1};
  EXPECT_THROW(Decompress<float>(stream), Error);
  EXPECT_THROW(DecompressOmp<float>(stream, 4), Error);
}

// A zsize table whose entries are individually plausible but whose sum no
// longer matches header.payload_bytes (the "lying directory") must fail the
// payload prefix-sum validation in both decoders.
TEST(Hardening, SzxLyingZsizeTableRejectedByBothDecoders) {
  const std::vector<float> data = Ramp(8192);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  ByteBuffer stream = Compress<float>(data, p);
  const Header h = PeekHeader(stream);
  ASSERT_EQ(h.flags & kFlagRawPassthrough, 0u);
  const std::uint64_t nnc = h.num_blocks - h.num_constant;
  ASSERT_GT(nnc, 0u);
  // Section layout: header | type_bits | const_mu | ncb_req | ncb_mu |
  // ncb_zsize | payload (format.hpp).
  const std::size_t zsize_off = sizeof(Header) + (h.num_blocks + 7) / 8 +
                                h.num_constant * sizeof(float) + nnc +
                                nnc * sizeof(float);
  ASSERT_LT(zsize_off + 2, stream.size());
  stream[zsize_off] ^= std::byte{1};  // first entry off by one byte
  EXPECT_THROW(Decompress<float>(stream), Error);
  EXPECT_THROW(DecompressOmp<float>(stream, 4), Error);
}

// Restores the process-wide kernel selection when a test ends.
class KernelKindGuard {
 public:
  KernelKindGuard() : saved_(kernels::ActiveKind()) {}
  ~KernelKindGuard() { kernels::SetActiveKind(saved_); }
  KernelKindGuard(const KernelKindGuard&) = delete;
  KernelKindGuard& operator=(const KernelKindGuard&) = delete;

 private:
  kernels::Kind saved_;
};

// Moves one payload byte of the zsize directory from block k to block k + 1
// (both non-constant, so their directory entries are k and k + 1) and
// re-seals the integrity footer over the forged prefix, so every checksum
// and the payload_bytes total still agree.  Block k is then one byte short:
// its decode runs out of mid bytes although the bytes that follow it in the
// payload section are readable.  Every decoder must reject it; the
// Solution-C kernels may read those following bytes but never use them.
// Salvage must quarantine exactly the block ranges in `quarantined`: the
// chunk holding block k, plus the next chunk when block k + 1 opens it and
// its shifted payload does not decode either.
template <SupportedFloat T>
void CheckShiftedZsizeRejected(
    std::uint64_t k, const std::vector<resilience::BlockRange>& quarantined) {
  constexpr std::uint32_t kBs = 128;
  constexpr std::uint64_t kBlocks = 256;  // four 64-block footer chunks
  std::vector<T> data(kBs * kBlocks);
  std::uint32_t lcg = 12345;
  for (std::size_t i = 0; i < data.size(); ++i) {
    lcg = lcg * 1664525u + 1013904223u;
    data[i] = static_cast<T>(std::sin(0.01 * static_cast<double>(i)) +
                             1e-3 * static_cast<double>(lcg >> 8) / 16777216.0);
  }
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-4;
  p.block_size = kBs;
  p.integrity = true;
  ByteBuffer stream = Compress<T>(data, p);
  const Header h = PeekHeader(stream);
  ASSERT_EQ(h.flags & kFlagRawPassthrough, 0u);
  ASSERT_EQ(h.num_blocks, kBlocks);
  ASSERT_EQ(h.num_constant, 0u);
  ASSERT_EQ(h.solution, static_cast<std::uint8_t>(CommitSolution::kC));
  const std::uint32_t chunk_count = IntegrityChunkCount(h);
  const std::size_t footer = IntegrityFooterBytes(chunk_count);
  const std::size_t prefix = stream.size() - footer;
  // Section layout: header | type_bits | const_mu | ncb_req | ncb_mu |
  // ncb_zsize | payload (format.hpp); no constant blocks here.
  const std::size_t zsize_off =
      sizeof(Header) + (kBlocks + 7) / 8 + kBlocks + kBlocks * sizeof(T);
  const auto zsize_at = [&](std::uint64_t b) {
    const std::size_t off = zsize_off + 2 * b;
    return static_cast<std::uint16_t>(
        std::to_integer<unsigned>(stream[off]) |
        (std::to_integer<unsigned>(stream[off + 1]) << 8));
  };
  const auto set_zsize = [&](std::uint64_t b, std::uint16_t v) {
    const std::size_t off = zsize_off + 2 * b;
    stream[off] = static_cast<std::byte>(v & 0xff);
    stream[off + 1] = static_cast<std::byte>(v >> 8);
  };
  const std::uint16_t zk = zsize_at(k);
  ASSERT_GT(zk, LeadArrayBytes(kBs) + 1) << "block " << k;
  set_zsize(k, CheckedNarrow<std::uint16_t>(zk - 1));
  set_zsize(k + 1, CheckedNarrow<std::uint16_t>(zsize_at(k + 1) + 1));
  std::vector<ChunkRef> refs(chunk_count);
  WriteIntegrityFooter<T>(ByteSpan(stream).first(prefix), refs,
                          std::span<std::byte>(stream).subspan(prefix));

  const KernelKindGuard guard;
  std::vector<resilience::DamageReport> reports;
  for (const auto kind : {kernels::Kind::kScalar, kernels::Kind::kAvx2}) {
    if (!kernels::KindSupported(kind)) continue;
    ASSERT_EQ(kernels::SetActiveKind(kind), kind);
    const std::string what = std::string(kernels::KindName(kind)) +
                             " block " + std::to_string(k);
    std::vector<T> out(data.size());
    EXPECT_THROW(DecompressInto<T>(stream, std::span<T>(out)), Error) << what;
    for (int threads = 1; threads <= 4; ++threads) {
      EXPECT_THROW(DecompressOmpInto<T>(stream, std::span<T>(out), threads),
                   Error)
          << what << " threads=" << threads;
    }
    const ValidationReport v = ValidateStream<T>(stream, /*deep=*/true);
    EXPECT_FALSE(v.ok) << what;
    EXPECT_EQ(v.error, "szx: truncated block payload (mid bytes)") << what;

    // The range decoder walks the same blocks: a range holding block k
    // that starts and ends mid-block is refused, whether block k is a
    // ragged end of the range (decoded into scratch) or a whole block
    // inside it (decoded straight into the output).  A range covering only
    // block k + 1 is not checked: block k + 1 starts one byte early and
    // the format has no per-block check that could notice.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {k * kBs + 1, kBs - 2}, {k * kBs + kBs / 2, kBs}};
    if (k > 0) ranges.emplace_back((k - 1) * kBs + kBs / 2, 2 * kBs);
    for (const auto& [first, n] : ranges) {
      std::vector<T> slab(n);
      EXPECT_THROW(DecompressRangeInto<T>(stream, first, std::span<T>(slab)),
                   Error)
          << what << " range [" << first << ", " << first + n << ")";
    }
    EXPECT_THROW(cusim::DecompressCuda<T>(stream), Error) << what;

    // The footer verifies, so salvage decodes chunk by chunk: the chunk
    // holding block k throws and is quarantined to its mu fill.
    const auto r = resilience::SalvageDecode<T>(stream);
    ASSERT_TRUE(r.report.usable) << what;
    EXPECT_TRUE(r.report.AllTablesVerify()) << what;
    EXPECT_TRUE(r.report.BlockDamaged(k)) << what;
    const std::uint64_t ck = k / kIntegrityBlocksPerChunk;
    ASSERT_EQ(r.report.chunks.size(), chunk_count) << what;
    EXPECT_EQ(r.report.chunks[ck].verdict, resilience::Verdict::kCorrupt)
        << what;
    EXPECT_EQ(r.report.chunks[ck].fill, resilience::ChunkFill::kMuFill)
        << what;
    EXPECT_EQ(r.report.damaged_blocks, quarantined) << what;
    reports.push_back(r.report);
  }
  // Both tiers quarantine the same chunks with the same report.
  for (const auto& r : reports) {
    EXPECT_EQ(r.ToJson(), reports.front().ToJson()) << "block " << k;
  }
}

// A directory that shifts one byte of zsize between two neighbouring
// blocks keeps the payload total, so it passes the directory validation;
// the short block must still be refused by the serial, chunk-parallel,
// range and cusim decoders, deep validation and salvage under every kernel
// tier, at the first block, in the middle of a chunk and across a chunk
// boundary.
TEST(Hardening, SzxZsizeShiftedBetweenBlocksRejectedByBothDecoders) {
  using R = resilience::BlockRange;
  CheckShiftedZsizeRejected<float>(0, {R{0, 64}});
  CheckShiftedZsizeRejected<double>(0, {R{0, 64}});
  CheckShiftedZsizeRejected<float>(100, {R{64, 128}});
  CheckShiftedZsizeRejected<double>(100, {R{64, 128}});
  CheckShiftedZsizeRejected<float>(63, {R{0, 64}});
  CheckShiftedZsizeRejected<double>(63, {R{0, 128}});
  CheckShiftedZsizeRejected<float>(127, {R{64, 128}});
  CheckShiftedZsizeRejected<double>(127, {R{64, 192}});
}

// The header's reserved bytes (offsets 9..15 and 20..23) must be zero on
// the wire: a forged stream with any of them set is rejected, which keeps
// them available for future format versions instead of silently carrying
// attacker-controlled garbage through every decoder.
TEST(Hardening, SzxNonzeroReservedBytesRejected) {
  const std::vector<float> data = Ramp(2048);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  const ByteBuffer clean = Compress<float>(data, p);
  ASSERT_NO_THROW(ParseHeader(clean));
  for (const std::size_t off : {9u, 12u, 15u, 20u, 23u}) {
    ByteBuffer forged = clean;
    forged[off] = std::byte{0x01};
    EXPECT_THROW(ParseHeader(forged), Error) << "reserved byte " << off;
    EXPECT_THROW(Decompress<float>(forged), Error) << "reserved byte " << off;
  }
}

}  // namespace
}  // namespace szx
