// Regression tests for the decode-path hardening pass (docs/static-analysis.md):
// each test forges the specific corrupt stream that used to reach an unchecked
// allocation or a wrapped size computation, and pins down that the decoder now
// rejects it with szx::Error instead of over-allocating or scanning out of
// bounds.  Header field offsets below mirror the packed structs in the codec
// sources; the static_asserts on compressed sizes keep them honest.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/byte_cursor.hpp"
#include "core/common.hpp"
#include "core/container.hpp"
#include "core/integrity.hpp"
#include "core/omp_codec.hpp"
#include "lzref/lzref.hpp"
#include "resilience/container_salvage.hpp"
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
