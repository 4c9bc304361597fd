// Compressed stream layout.
//
//   [Header]
//   [type_bits  : ceil(num_blocks / 8) bytes, bit i = 1 iff block i is
//                 non-constant]
//   [const_mu   : num_constant * sizeof(T)]       (mu per constant block)
//   [ncb_req    : num_nonconstant * 1]            (required length per block)
//   [ncb_mu     : num_nonconstant * sizeof(T)]    (mu per non-constant block)
//   [ncb_zsize  : num_nonconstant * 2]            (payload bytes per block)
//   [payload    : concatenated self-contained block payloads]
//
// Self-contained payloads plus the zsize prefix sum are what make fully
// parallel decompression possible (paper Sec. 6.1).  Sections are unaligned
// byte views; element accessors go through ByteCursor (bounds-checked,
// no unaligned-pointer UB).
// This header is the one owner of the layout: every frame reader and writer
// takes section extents, the element-type check, the output size bar and
// the header fields from here.
#pragma once

#include <array>
#include <cstddef>

#include "core/bitops.hpp"
#include "core/byte_cursor.hpp"
#include "core/common.hpp"
#include "core/stream.hpp"

namespace szx {

inline constexpr std::array<char, 4> kMagic = {'S', 'Z', 'X', '1'};
inline constexpr std::uint8_t kFormatVersion = 1;
/// Version 2 = version 1 + integrity footer appended after the payload
/// (docs/FORMAT.md "Format v2").  The sections and their bytes are
/// unchanged; a v2 stream differs from its v1 twin only in the version
/// byte, the kFlagIntegrity bit, and the trailing footer.
inline constexpr std::uint8_t kFormatVersionIntegrity = 2;

/// Header flags.
inline constexpr std::uint8_t kFlagRawPassthrough = 0x01;
/// Set iff version == 2: an integrity footer of FNV-1a section and
/// payload-chunk checksums trails the stream (core/integrity.hpp).
inline constexpr std::uint8_t kFlagIntegrity = 0x02;
inline constexpr std::uint8_t kKnownFlags =
    kFlagRawPassthrough | kFlagIntegrity;

#pragma pack(push, 1)
struct Header {
  std::array<char, 4> magic = kMagic;
  std::uint8_t version = kFormatVersion;
  std::uint8_t dtype = 0;
  std::uint8_t eb_mode = 0;
  std::uint8_t solution = 0;
  std::uint8_t flags = 0;
  std::uint8_t reserved[7] = {0, 0, 0, 0, 0, 0, 0};
  std::uint32_t block_size = 0;
  std::uint32_t reserved2 = 0;
  double error_bound_user = 0.0;  ///< bound as supplied (abs or rel)
  double error_bound_abs = 0.0;   ///< resolved absolute bound enforced
  std::uint64_t num_elements = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t num_constant = 0;
  std::uint64_t payload_bytes = 0;
};
#pragma pack(pop)
static_assert(sizeof(Header) == 72);

/// Parses and validates a header; throws szx::Error on any inconsistency.
inline Header ParseHeader(ByteSpan stream) {
  if (stream.size() < sizeof(Header)) {
    throw Error("szx: stream shorter than header");
  }
  ByteCursor cur(stream);
  const Header h = cur.Read<Header>();
  if (h.magic != kMagic) {
    throw Error("szx: bad magic");
  }
  if (h.version != kFormatVersion && h.version != kFormatVersionIntegrity) {
    throw Error("szx: unsupported format version");
  }
  if (h.flags & ~kKnownFlags) {
    throw Error("szx: unknown header flag bits");
  }
  // The integrity flag and the version byte are redundant on purpose; a
  // stream where they disagree was forged or damaged.
  if (((h.flags & kFlagIntegrity) != 0) !=
      (h.version == kFormatVersionIntegrity)) {
    throw Error("szx: integrity flag inconsistent with format version");
  }
  // Forward-compat guard: v1/v2 writers always zero the reserved bytes, so
  // a nonzero value means a future format (or corruption) this reader would
  // silently misinterpret.  Reject instead of guessing.
  for (const std::uint8_t b : h.reserved) {
    if (b != 0) throw Error("szx: nonzero reserved header bytes");
  }
  if (h.reserved2 != 0) {
    throw Error("szx: nonzero reserved header bytes");
  }
  if (h.dtype > 1 || h.eb_mode > 2 || h.solution > 2) {
    throw Error("szx: corrupt header enums");
  }
  if (h.block_size < kMinBlockSize || h.block_size > kMaxBlockSize) {
    throw Error("szx: corrupt header block size");
  }
  // Unconditional and overflow-proof: the div/mod form cannot wrap, and
  // num_elements == 0 must imply num_blocks == 0 (an inflated block count
  // over an empty output would otherwise drive decoders past the buffer).
  const std::uint64_t expected_blocks =
      h.num_elements / h.block_size +
      (h.num_elements % h.block_size != 0 ? 1 : 0);
  if (h.num_blocks != expected_blocks) {
    throw Error("szx: header block count mismatch");
  }
  if (h.num_constant > h.num_blocks) {
    throw Error("szx: header constant count exceeds block count");
  }
  return h;
}

/// The one element-type check of every typed frame reader.
template <SupportedFloat T>
inline void RequireElementType(const Header& h) {
  if (h.dtype != static_cast<std::uint8_t>(FloatTraits<T>::kTag)) {
    throw Error("szx: stream element type mismatch");
  }
}

/// ParseHeader for a frame read as T (readers that need no sections).
template <SupportedFloat T>
inline Header ParseHeaderAs(ByteSpan stream) {
  const Header h = ParseHeader(stream);
  RequireElementType<T>(h);
  return h;
}

/// The output plausibility bar of every frame decode: at most kMaxBlockSize
/// values of T per stream byte (one constant block's mu covers a block).
/// Returns h.num_elements, ready to size the output.
template <SupportedFloat T>
inline std::size_t CheckedOutputCount(ByteSpan stream, const Header& h) {
  return ByteCursor(stream).CheckedAlloc(h.num_elements, sizeof(T),
                                         kMaxBlockSize);
}

/// Lenient dtype sniff for readers that must survive a damaged header
/// (salvage dispatch): float64 iff the dtype byte exists and says so.
inline DataType SniffDtype(ByteSpan stream) {
  constexpr std::size_t kAt = offsetof(Header, dtype);
  constexpr auto kF64 = static_cast<std::uint8_t>(DataType::kFloat64);
  const bool f64 =
      stream.size() > kAt && std::to_integer<std::uint8_t>(stream[kAt]) == kF64;
  return f64 ? DataType::kFloat64 : DataType::kFloat32;
}

/// Byte range [offset, offset + length) of one section within a frame.
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// Where every section of a frame sits, and where the frame ends (and an
/// integrity footer starts).  A raw-passthrough frame has only a payload.
struct FrameExtents {
  Extent type_bits;
  Extent const_mu;
  Extent ncb_req;
  Extent ncb_mu;
  Extent ncb_zsize;
  Extent payload;
  std::uint64_t end = 0;
};

/// The one section layout, from the (possibly forged) header alone;
/// overflow-checked, so a forged header throws szx::Error instead of wrapping.
inline FrameExtents FrameExtentsOf(const Header& h, std::size_t elem_size) {
  FrameExtents x;
  std::uint64_t at = sizeof(Header);
  const auto next = [&at](std::uint64_t length) {
    const Extent e{at, length};
    at = CheckedAdd(at, length);
    return e;
  };
  const bool raw = (h.flags & kFlagRawPassthrough) != 0;
  const std::uint64_t nc = raw ? 0 : h.num_constant;
  const std::uint64_t nnc = raw ? 0 : h.num_blocks - h.num_constant;
  x.type_bits = next(raw ? 0 : (h.num_blocks + 7) / 8);
  x.const_mu = next(CheckedMul(nc, elem_size));
  x.ncb_req = next(nnc);
  x.ncb_mu = next(CheckedMul(nnc, elem_size));
  x.ncb_zsize = next(CheckedMul(nnc, 2));
  x.payload = next(raw ? CheckedMul(h.num_elements, elem_size)
                       : h.payload_bytes);
  x.end = at;
  return x;
}

/// Unaligned little-endian load of a trivially copyable value; the index is
/// bounds-checked against the section extent.
template <typename V>
inline V LoadAt(ByteSpan section, std::uint64_t index) {
  ByteCursor cur(section);
  cur.SkipArray(index, sizeof(V));
  return cur.Read<V>();
}

/// Section views over a parsed stream (zero-copy byte spans).
template <typename T>
struct Sections {
  Header header;
  ByteSpan type_bits;
  ByteSpan const_mu;   ///< num_constant values of T
  ByteSpan ncb_req;    ///< num_nonconstant uint8
  ByteSpan ncb_mu;     ///< num_nonconstant values of T
  ByteSpan ncb_zsize;  ///< num_nonconstant uint16
  ByteSpan payload;

  T ConstMu(std::uint64_t i) const { return LoadAt<T>(const_mu, i); }
  std::uint8_t Req(std::uint64_t i) const {
    return std::to_integer<std::uint8_t>(ncb_req[i]);
  }
  T NcbMu(std::uint64_t i) const { return LoadAt<T>(ncb_mu, i); }
  std::uint16_t Zsize(std::uint64_t i) const {
    return LoadAt<std::uint16_t>(ncb_zsize, i);
  }
};

/// Parses a frame of T and slices every section at its FrameExtentsOf
/// extent; trailing bytes (an integrity footer) are ignored.
template <SupportedFloat T>
inline Sections<T> ParseSections(ByteSpan stream) {
  Sections<T> s;
  s.header = ParseHeaderAs<T>(stream);
  const FrameExtents x = FrameExtentsOf(s.header, sizeof(T));
  if (x.end > stream.size()) {
    throw Error("szx: truncated stream (frame needs " +
                std::to_string(x.end) + " bytes, have " +
                std::to_string(stream.size()) + ")");
  }
  const auto slice = [stream](Extent e) {
    return stream.subspan(e.offset, e.length);
  };
  s.type_bits = slice(x.type_bits);
  s.const_mu = slice(x.const_mu);
  s.ncb_req = slice(x.ncb_req);
  s.ncb_mu = slice(x.ncb_mu);
  s.ncb_zsize = slice(x.ncb_zsize);
  s.payload = slice(x.payload);
  return s;
}

/// Bit test on the type array: true iff block k is non-constant.
inline bool IsNonConstant(ByteSpan type_bits, std::uint64_t k) {
  return (std::to_integer<unsigned>(type_bits[k >> 3]) >> (k & 7)) & 1u;
}

inline void SetNonConstant(std::byte* type_bits, std::uint64_t k) {
  type_bits[k >> 3] |= std::byte{static_cast<std::uint8_t>(1u << (k & 7))};
}

}  // namespace szx
