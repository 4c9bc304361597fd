// Format v2 integrity footer (opt-in, Params::integrity).
//
// A v2 stream is its v1 twin with the version byte bumped to 2, the
// kFlagIntegrity bit set, and this footer appended after the payload:
//
//   u32  footer_version (= 1)
//   u32  chunk_count
//   u64  header_fnv      FNV-1a of the 72 header bytes as written (v2)
//   u64  type_bits_fnv   per-section FNV-1a checksums (empty section ->
//   u64  const_mu_fnv    hash of zero bytes, the FNV offset basis)
//   u64  ncb_req_fnv
//   u64  ncb_mu_fnv
//   u64  ncb_zsize_fnv
//   u64  chunk_fnv[chunk_count]   payload split per the frame_index chunk
//                                 directory (raw passthrough: one chunk
//                                 covering the raw body)
//   u64  footer_fnv      FNV-1a of the footer bytes before this field
//   u32  footer_bytes    total footer size (= 72 + 8 * chunk_count)
//   char magic[4]        "SZXF"
//
// The 16-byte tail (footer_fnv | footer_bytes | magic) sits at the very end
// of the stream so a salvage decoder can locate and self-verify the footer
// from the stream tail even when the header bytes are damaged.  Decoders on
// the hot path never read the footer (ParseSections tolerates trailing
// bytes); verification is the opt-in job of src/resilience/.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "core/byte_cursor.hpp"
#include "core/frame_index.hpp"
#include "core/stream.hpp"

namespace szx {

/// FNV-1a content hash shared by the container directory checksums and the
/// integrity footer.
inline std::uint64_t Fnv1a64(ByteSpan data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : data) {
    h = (h ^ std::to_integer<std::uint8_t>(b)) * 0x100000001b3ull;
  }
  return h;
}

namespace detail {

inline constexpr std::uint64_t kXxhPrime1 = 0x9e3779b185ebca87ull;
inline constexpr std::uint64_t kXxhPrime2 = 0xc2b2ae3d27d4eb4full;
inline constexpr std::uint64_t kXxhPrime3 = 0x165667b19e3779f9ull;
inline constexpr std::uint64_t kXxhPrime4 = 0x85ebca77c2b2ae63ull;
inline constexpr std::uint64_t kXxhPrime5 = 0x27d4eb2f165667c5ull;

inline std::uint64_t XxhRound(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kXxhPrime2, 31) * kXxhPrime1;
}

inline std::uint64_t XxhMerge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ XxhRound(0, acc)) * kXxhPrime1 + kXxhPrime4;
}

}  // namespace detail

/// XXH64 (xxHash, seed 0) over a sequence of spans, hashed as if they were
/// one concatenated buffer: four independent multiply lanes over 32-byte
/// stripes, so it runs at memory speed where the byte-serial FNV-1a cannot.
/// A stripe may straddle two spans; its head waits in a 32-byte carry until
/// the next Update completes it.  The serve wire protocol hashes a frame
/// body that sits in several buffers with it, without stitching them
/// together; persistent formats keep FNV-1a.
class Xxh64Stream {
 public:
  void Update(ByteSpan data) {
    total_ += data.size();
    ByteCursor cur(data);
    if (carried_ > 0) {
      const std::size_t take = std::min(kStripe - carried_, cur.remaining());
      cur.ReadSpan(std::span(carry_).subspan(carried_, take));
      carried_ += take;
      if (carried_ < kStripe) return;
      ByteCursor stripe{ByteSpan(carry_)};
      Consume(stripe, lanes_);
      carried_ = 0;
    }
    // Lanes live in locals across the bulk loop so they stay in registers.
    std::array<std::uint64_t, 4> v = lanes_;
    while (cur.remaining() >= kStripe) Consume(cur, v);
    lanes_ = v;
    carried_ = cur.remaining();
    cur.ReadSpan(std::span(carry_).first(carried_));
  }

  [[nodiscard]] std::uint64_t Digest() const {
    using namespace detail;
    std::uint64_t h = kXxhPrime5;
    if (total_ >= kStripe) {
      const auto& [v1, v2, v3, v4] = lanes_;
      h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
          std::rotl(v4, 18);
      h = XxhMerge(XxhMerge(XxhMerge(XxhMerge(h, v1), v2), v3), v4);
    }
    h += total_;
    ByteCursor cur(ByteSpan(carry_).first(carried_));
    while (cur.remaining() >= 8) {
      h = std::rotl(h ^ XxhRound(0, cur.Read<std::uint64_t>()), 27) *
              kXxhPrime1 +
          kXxhPrime4;
    }
    if (cur.remaining() >= 4) {
      h = std::rotl(h ^ (cur.Read<std::uint32_t>() * kXxhPrime1), 23) *
              kXxhPrime2 +
          kXxhPrime3;
    }
    while (!cur.AtEnd()) {
      h = std::rotl(h ^ (cur.Read<std::uint8_t>() * kXxhPrime5), 11) *
          kXxhPrime1;
    }
    h = (h ^ (h >> 33)) * kXxhPrime2;
    h = (h ^ (h >> 29)) * kXxhPrime3;
    return h ^ (h >> 32);
  }

 private:
  static constexpr std::size_t kStripe = 32;

  static void Consume(ByteCursor& cur, std::array<std::uint64_t, 4>& v) {
    for (std::uint64_t& lane : v) {
      lane = detail::XxhRound(lane, cur.Read<std::uint64_t>());
    }
  }

  std::array<std::uint64_t, 4> lanes_ = {
      detail::kXxhPrime1 + detail::kXxhPrime2, detail::kXxhPrime2, 0,
      0 - detail::kXxhPrime1};
  std::array<std::byte, kStripe> carry_{};
  std::size_t carried_ = 0;  ///< bytes of a partial stripe held in carry_
  std::uint64_t total_ = 0;
};

/// XXH64 of one buffer (the one-span case of Xxh64Stream).
inline std::uint64_t Xxh64(ByteSpan data) {
  Xxh64Stream s;
  s.Update(data);
  return s.Digest();
}

inline constexpr std::array<char, 4> kFooterMagic = {'S', 'Z', 'X', 'F'};
inline constexpr std::uint32_t kIntegrityFooterVersion = 1;
/// Fixed footer bytes: everything except the chunk checksum array.
inline constexpr std::size_t kFooterFixedBytes = 72;
inline constexpr std::size_t kFooterTailBytes = 16;
/// Target blocks per checksummed payload chunk: coarse enough that footer
/// overhead stays negligible (8 bytes per 64 blocks), fine enough that one
/// flipped bit quarantines a small slice of the frame.
inline constexpr std::uint64_t kIntegrityBlocksPerChunk = 64;

inline std::uint64_t IntegrityFooterBytes(std::uint64_t chunk_count) {
  return kFooterFixedBytes + 8 * chunk_count;
}

/// Deterministic chunk plan for a frame's payload checksums.  Raw
/// passthrough bodies and empty frames get a single chunk; otherwise one
/// chunk per kIntegrityBlocksPerChunk blocks, clamped to the directory's
/// useful maximum (chunk bounds must sit on type-bit byte boundaries).
inline std::uint32_t IntegrityChunkCount(const Header& h) {
  if ((h.flags & kFlagRawPassthrough) != 0 || h.num_blocks == 0) return 1;
  const std::uint64_t want = h.num_blocks / kIntegrityBlocksPerChunk;
  const std::uint64_t capped =
      std::min(std::max<std::uint64_t>(want, 1), MaxUsefulChunks(h.num_blocks));
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(capped, 0xffffffffull));
}

/// Writes the integrity footer for `prefix` (a complete stream whose header
/// already carries version 2 + kFlagIntegrity) into `dst`.  `chunk_scratch`
/// must hold IntegrityChunkCount entries; it receives the chunk directory
/// as a side effect.  Throws szx::Error if the prefix is malformed or the
/// destination size disagrees with the chunk plan.
template <SupportedFloat T>
inline void WriteIntegrityFooter(ByteSpan prefix,
                                 std::span<ChunkRef> chunk_scratch,
                                 std::span<std::byte> dst) {
  const Sections<T> s = ParseSections<T>(prefix);
  const Header& h = s.header;
  const std::uint32_t chunk_count = IntegrityChunkCount(h);
  if (chunk_scratch.size() != chunk_count ||
      dst.size() != IntegrityFooterBytes(chunk_count)) {
    throw Error("szx: integrity footer size mismatch");
  }
  SpanWriter sink(dst);
  sink.Write(kIntegrityFooterVersion);
  sink.Write(chunk_count);
  sink.Write(Fnv1a64(prefix.first(sizeof(Header))));
  sink.Write(Fnv1a64(s.type_bits));
  sink.Write(Fnv1a64(s.const_mu));
  sink.Write(Fnv1a64(s.ncb_req));
  sink.Write(Fnv1a64(s.ncb_mu));
  sink.Write(Fnv1a64(s.ncb_zsize));
  if ((h.flags & kFlagRawPassthrough) != 0) {
    sink.Write(Fnv1a64(s.payload));
  } else {
    BuildChunkRefs(s, chunk_scratch);
    for (std::uint32_t c = 0; c < chunk_count; ++c) {
      const std::uint64_t begin = chunk_scratch[c].payload_base;
      const std::uint64_t end = c + 1 < chunk_count
                                    ? chunk_scratch[c + 1].payload_base
                                    : h.payload_bytes;
      sink.Write(Fnv1a64(s.payload.subspan(begin, end - begin)));
    }
  }
  // Tail: hash of everything written so far, then the locator fields.
  sink.Write(Fnv1a64(dst.first(dst.size() - kFooterTailBytes)));
  sink.Write(CheckedNarrow<std::uint32_t>(dst.size()));
  for (const char c : kFooterMagic) {
    sink.Write(static_cast<std::uint8_t>(c));
  }
  if (sink.remaining() != 0) {
    throw Error("szx: integrity footer sink underflow");
  }
}

/// Parsed locator for a stream's integrity footer.
struct IntegrityFooterView {
  std::uint32_t chunk_count = 0;
  std::uint64_t header_fnv = 0;
  std::uint64_t type_bits_fnv = 0;
  std::uint64_t const_mu_fnv = 0;
  std::uint64_t ncb_req_fnv = 0;
  std::uint64_t ncb_mu_fnv = 0;
  std::uint64_t ncb_zsize_fnv = 0;
  /// Stream byte offset where the footer begins == size of the protected
  /// prefix (header + sections + payload).
  std::uint64_t footer_offset = 0;
  ByteSpan chunk_fnvs;  ///< chunk_count * 8 raw bytes

  std::uint64_t ChunkFnv(std::uint64_t i) const {
    return LoadAt<std::uint64_t>(chunk_fnvs, i);
  }
};

/// Locates and self-verifies the footer from the stream tail.  Returns
/// nullopt when there is no footer or the footer itself fails its checksum;
/// never throws.  Deliberately independent of the header: a stream whose
/// first 72 bytes are destroyed still yields its footer.
inline std::optional<IntegrityFooterView> FindIntegrityFooter(
    ByteSpan stream) {
  const std::uint64_t min_footer = IntegrityFooterBytes(1);
  if (stream.size() < min_footer) return std::nullopt;
  ByteCursor tail(stream.subspan(stream.size() - kFooterTailBytes));
  const auto footer_fnv = tail.Read<std::uint64_t>();
  const auto footer_bytes = tail.Read<std::uint32_t>();
  std::array<char, 4> magic;
  tail.ReadBytes(magic.data(), magic.size());
  if (magic != kFooterMagic) return std::nullopt;
  if (footer_bytes < min_footer || footer_bytes > stream.size()) {
    return std::nullopt;
  }
  const ByteSpan footer =
      stream.subspan(stream.size() - footer_bytes, footer_bytes);
  if (Fnv1a64(footer.first(footer_bytes - kFooterTailBytes)) != footer_fnv) {
    return std::nullopt;
  }
  ByteCursor cur(footer);
  if (cur.Read<std::uint32_t>() != kIntegrityFooterVersion) {
    return std::nullopt;
  }
  IntegrityFooterView v;
  v.chunk_count = cur.Read<std::uint32_t>();
  if (v.chunk_count == 0 ||
      footer_bytes != IntegrityFooterBytes(v.chunk_count)) {
    return std::nullopt;
  }
  v.header_fnv = cur.Read<std::uint64_t>();
  v.type_bits_fnv = cur.Read<std::uint64_t>();
  v.const_mu_fnv = cur.Read<std::uint64_t>();
  v.ncb_req_fnv = cur.Read<std::uint64_t>();
  v.ncb_mu_fnv = cur.Read<std::uint64_t>();
  v.ncb_zsize_fnv = cur.Read<std::uint64_t>();
  v.chunk_fnvs = cur.SliceArray(v.chunk_count, 8);
  v.footer_offset = stream.size() - footer_bytes;
  return v;
}

}  // namespace szx
