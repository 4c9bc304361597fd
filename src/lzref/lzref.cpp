#include "lzref/lzref.hpp"

#include <array>

#include "core/integrity.hpp"
#include "core/stream.hpp"

namespace szx::lzref {
namespace {

constexpr std::array<char, 4> kLzMagic = {'L', 'Z', 'R', '1'};
constexpr std::size_t kHashBits = 17;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kMinMatch = 4;

#pragma pack(push, 1)
struct LzHeader {
  std::array<char, 4> magic = kLzMagic;
  std::uint8_t version = 1;
  std::uint8_t reserved[3] = {0, 0, 0};
  std::uint64_t original_bytes = 0;
  std::uint64_t checksum = 0;
};
#pragma pack(pop)

inline std::uint32_t Read32(const std::byte* p) {
  return std::to_integer<std::uint32_t>(p[0]) |
         (std::to_integer<std::uint32_t>(p[1]) << 8) |
         (std::to_integer<std::uint32_t>(p[2]) << 16) |
         (std::to_integer<std::uint32_t>(p[3]) << 24);
}

inline std::uint32_t Hash32(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Writes an LZ4-style extended length: a base nibble has already encoded
// min(len, 15); the remainder is a 255-run plus terminator byte.
void WriteExtLength(ByteBuffer& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(std::byte{255});
    len -= 255;
  }
  out.push_back(std::byte{static_cast<std::uint8_t>(len)});
}

std::size_t ReadExtLength(ByteCursor& r) {
  std::size_t len = 0;
  for (;;) {
    const auto b = r.Read<std::uint8_t>();
    len += b;
    if (b != 255) return len;
  }
}

}  // namespace

ByteBuffer LzCompress(ByteSpan input, LzStats* stats) {
  ByteBuffer out;
  out.reserve(sizeof(LzHeader) + input.size() / 2 + 64);
  LzHeader h;
  h.original_bytes = input.size();
  h.checksum = Fnv1a64(input);
  ByteWriter w(out);
  w.Write(h);

  std::uint64_t num_matches = 0;
  std::uint64_t literal_bytes = 0;

  std::vector<std::uint32_t> table(kHashSize, 0xffffffffu);
  const std::byte* base = input.data();
  const std::size_t n = input.size();
  std::size_t i = 0;
  std::size_t anchor = 0;

  auto emit_sequence = [&](std::size_t lit_len, std::size_t match_len,
                           std::size_t offset) {
    const std::uint8_t lit_nib =
        static_cast<std::uint8_t>(lit_len < 15 ? lit_len : 15);
    // match_len == 0 encodes the trailing literal-only sequence.
    const std::uint8_t mat_nib = static_cast<std::uint8_t>(
        match_len == 0 ? 0
                       : (match_len - kMinMatch < 14 ? match_len - kMinMatch + 1
                                                     : 15));
    out.push_back(std::byte{static_cast<std::uint8_t>((lit_nib << 4) |
                                                      mat_nib)});
    if (lit_len >= 15) WriteExtLength(out, lit_len - 15);
    out.insert(out.end(), base + anchor, base + anchor + lit_len);
    literal_bytes += lit_len;
    if (match_len > 0) {
      const auto off16 = CheckedNarrow<std::uint16_t>(offset);
      out.push_back(std::byte{static_cast<std::uint8_t>(off16 & 0xff)});
      out.push_back(std::byte{static_cast<std::uint8_t>(off16 >> 8)});
      if (match_len - kMinMatch >= 14) {
        WriteExtLength(out, match_len - kMinMatch - 14);
      }
      ++num_matches;
    }
  };

  if (n >= kMinMatch + 1) {
    while (i + kMinMatch <= n) {
      const std::uint32_t v = Read32(base + i);
      const std::uint32_t hsh = Hash32(v);
      const std::uint32_t cand = table[hsh];
      table[hsh] = static_cast<std::uint32_t>(i);
      if (cand != 0xffffffffu && i - cand <= kMaxOffset &&
          Read32(base + cand) == v) {
        // Extend the match forward.
        std::size_t len = kMinMatch;
        while (i + len < n && base[cand + len] == base[i + len]) ++len;
        emit_sequence(i - anchor, len, i - cand);
        i += len;
        anchor = i;
        continue;
      }
      ++i;
    }
  }
  // Trailing literals.
  emit_sequence(n - anchor, 0, 0);

  if (stats != nullptr) {
    stats->input_bytes = input.size();
    stats->compressed_bytes = out.size();
    stats->num_matches = num_matches;
    stats->literal_bytes = literal_bytes;
  }
  return out;
}

ByteBuffer LzDecompress(ByteSpan stream) {
  ByteCursor r(stream);
  const LzHeader h = r.Read<LzHeader>();
  if (h.magic != kLzMagic || h.version != 1) {
    throw Error("lzref: bad magic/version");
  }
  ByteBuffer out;
  // A compressed byte expands to at most 255 output bytes (one maxed-out
  // extended-length byte), so any larger original_bytes claim is corrupt;
  // rejecting it here keeps a 20-byte stream from demanding a 1 TB buffer.
  out.reserve(r.CheckedAlloc(h.original_bytes, 1, 255));
  while (out.size() < h.original_bytes) {
    const auto token = r.Read<std::uint8_t>();
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) lit_len += ReadExtLength(r);
    if (lit_len > 0) {
      ByteSpan lits = r.Slice(lit_len);
      out.insert(out.end(), lits.begin(), lits.end());
    }
    const std::size_t mat_nib = token & 0x0f;
    if (mat_nib == 0) continue;  // literal-only sequence
    std::size_t match_len = mat_nib - 1 + kMinMatch;
    const auto lo = r.Read<std::uint8_t>();
    const auto hi = r.Read<std::uint8_t>();
    const std::size_t offset = static_cast<std::size_t>(lo) |
                               (static_cast<std::size_t>(hi) << 8);
    if (mat_nib == 15) match_len += ReadExtLength(r);
    if (offset == 0 || offset > out.size()) {
      throw Error("lzref: corrupt match offset");
    }
    if (out.size() + match_len > h.original_bytes) {
      throw Error("lzref: output overrun");
    }
    // Byte-by-byte copy: overlapping matches are legal (RLE-style).
    std::size_t src = out.size() - offset;
    for (std::size_t k = 0; k < match_len; ++k) {
      out.push_back(out[src + k]);
    }
  }
  if (out.size() != h.original_bytes) {
    throw Error("lzref: output size mismatch");
  }
  if (Fnv1a64(out) != h.checksum) {
    throw Error("lzref: checksum mismatch");
  }
  return out;
}

ByteBuffer LzCompressFloats(std::span<const float> data, LzStats* stats) {
  return LzCompress(std::as_bytes(data), stats);
}

std::vector<float> LzDecompressFloats(ByteSpan stream) {
  const ByteBuffer bytes = LzDecompress(stream);
  if (bytes.size() % sizeof(float) != 0) {
    throw Error("lzref: stream is not a float array");
  }
  std::vector<float> out(bytes.size() / sizeof(float));
  ByteCursor(bytes).ReadSpan(std::span<float>(out));
  return out;
}

}  // namespace szx::lzref
