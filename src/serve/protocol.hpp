// szx-serve wire protocol: length-prefixed, checksummed request/response
// frames over a byte-stream transport (docs/serve.md has the full layout
// and semantics).
//
// Frame layout (all integers little-endian):
//
//   request:   "SZXQ" | u8 version | u8 opcode | u16 flags | u64 request_id
//              | u32 deadline_ms | u32 reserved | u64 body_bytes
//              | body | u64 xxh64(body)
//   response:  "SZXR" | u8 version | u8 status | u16 flags | u64 request_id
//              | u32 info | u32 reserved | u64 body_bytes
//              | body | u64 xxh64(body)
//
// Both headers are exactly 32 bytes.  The body checksum is how the server
// detects wire damage without trusting the body: a mismatched request body
// is NOT dropped -- it routes through the salvage degradation matrix
// (docs/serve.md) and yields a typed error or a partial result plus a
// DamageReport, never a closed connection with no answer.
//
// `info` carries a status-specific hint: for kBusy it is the suggested
// retry backoff in milliseconds; zero otherwise.
//
// This directory is an szx-lint strict zone: every byte that arrives from
// the network is parsed through the bounds-checked ByteCursor primitives,
// and no allow() escapes are accepted.
#pragma once

#include <array>
#include <span>
#include <string>

#include "core/byte_cursor.hpp"
#include "core/common.hpp"
#include "core/integrity.hpp"
#include "core/stream.hpp"
#include "serve/transport.hpp"

namespace szx::serve {

inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 32;
inline constexpr std::size_t kChecksumBytes = 8;

/// Job types the daemon executes.
enum class Opcode : std::uint8_t {
  kPing = 0,        ///< any body; response echoes the body back
  kCompress = 1,    ///< body = CompressSpec | raw elements; response = stream
  kDecompress = 2,  ///< body = SZx stream; response = raw elements
  kSalvage = 3,     ///< body = SZx stream; response = report JSON + elements
  kQuery = 4,       ///< body = QuerySpec | format-v3 container; response =
                    ///< metadata JSON + decoded elements (report+data body)
};

[[nodiscard]] const char* OpcodeName(Opcode op);
[[nodiscard]] bool IsKnownOpcode(std::uint8_t op);

/// Response status codes (the typed-outcome contract of docs/serve.md:
/// every accepted request gets exactly one response carrying one of these).
enum class Status : std::uint8_t {
  kOk = 0,                ///< full result in the body
  kPartial = 1,           ///< degraded result: report JSON + payload
  kBadRequest = 2,        ///< malformed frame or unusable job parameters
  kCorrupt = 3,           ///< body damaged beyond salvage; body = report JSON
  kBusy = 4,              ///< shed under overload; info = retry backoff ms
  kDeadlineExceeded = 5,  ///< deadline passed before or during execution
  kShuttingDown = 6,      ///< server is draining; job was not executed
  kInternalError = 7,     ///< unexpected failure; body = reason text
};

[[nodiscard]] const char* StatusName(Status s);

/// Request flag: the client wants strict semantics -- a damaged body yields
/// kCorrupt instead of the salvage/partial-result degradation path.
inline constexpr std::uint16_t kFlagNoDegrade = 1u << 0;

/// Response flag: the request body failed its wire checksum and the result
/// was produced from damaged bytes (set on kPartial/kCorrupt paths).
inline constexpr std::uint16_t kFlagBodyDamaged = 1u << 0;

struct RequestHeader {
  std::uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;  ///< 0 = no deadline
  std::uint64_t body_bytes = 0;
};

struct ResponseHeader {
  std::uint8_t version = kProtocolVersion;
  Status status = Status::kOk;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t info = 0;  ///< kBusy: suggested retry backoff in ms
  std::uint64_t body_bytes = 0;
};

/// WriteFrame sends a body held in up to this many parts: a server reply
/// is an owned prefix (say `u32 len | report`) plus a borrowed view of the
/// elements.
inline constexpr std::size_t kMaxBodyParts = 2;

/// What wraps a frame body on the wire: the 32-byte header and the trailing
/// XXH64.  The body is the concatenation of its parts, but it is never
/// assembled: body_bytes is the parts' total size and the checksum hashes
/// them in sequence (Xxh64Stream).
struct FrameEnvelope {
  std::array<std::byte, kFrameHeaderBytes> header{};
  std::array<std::byte, kChecksumBytes> checksum{};
};

/// Encodes the envelope of a request whose body is the concatenation of
/// `body`.  The header struct's own body_bytes is ignored.
[[nodiscard]] FrameEnvelope SealRequest(const RequestHeader& header,
                                        std::span<const ByteSpan> body);

/// Response twin of SealRequest.
[[nodiscard]] FrameEnvelope SealResponse(const ResponseHeader& header,
                                         std::span<const ByteSpan> body);

/// Writes header | body parts | checksum as one gather write
/// (Transport::WriteParts).  `body` must be the parts `envelope` was sealed
/// over.  Throws szx::Error for more than kMaxBodyParts parts and
/// TransportError when the wire fails.
void WriteFrame(Transport& t, const FrameEnvelope& envelope,
                std::span<const ByteSpan> body);

/// Appends a complete request frame (header + body + checksum): the bytes
/// WriteFrame puts on the wire for a one-part body.
void AppendRequestFrame(ByteBuffer& out, const RequestHeader& header,
                        ByteSpan body);

/// Appends a complete response frame (header + body + checksum).
void AppendResponseFrame(ByteBuffer& out, const ResponseHeader& header,
                         ByteSpan body);

/// Parses a 32-byte request header.  Throws szx::Error on short input, bad
/// magic, or an unsupported version -- after such a failure the stream's
/// framing is lost and the connection cannot continue.  Unknown opcodes and
/// nonzero reserved bytes do NOT throw (framing is still intact); the
/// server answers them with kBadRequest.
[[nodiscard]] RequestHeader ParseRequestHeader(ByteSpan bytes);

/// Parses a 32-byte response header; throws szx::Error on bad magic or
/// version (client side of the same contract).
[[nodiscard]] ResponseHeader ParseResponseHeader(ByteSpan bytes);

/// XXH64 of the body, the trailing checksum of every frame.
[[nodiscard]] inline std::uint64_t BodyChecksum(ByteSpan body) {
  return Xxh64(body);
}

/// Compression job parameters, the fixed 16-byte prefix of a kCompress
/// body (followed by the raw little-endian element bytes).
struct CompressSpec {
  DataType dtype = DataType::kFloat32;
  ErrorBoundMode mode = ErrorBoundMode::kValueRangeRelative;
  std::uint8_t integrity = 0;  ///< nonzero = append the format-v2 footer
  std::uint32_t block_size = 128;
  double error_bound = 1e-3;
};

inline constexpr std::size_t kCompressSpecBytes = 16;

void AppendCompressSpec(ByteBuffer& out, const CompressSpec& spec);

/// Reads a CompressSpec from the cursor.  Throws szx::Error on truncation
/// or out-of-range enum values (the caller maps that to kBadRequest).
[[nodiscard]] CompressSpec ReadCompressSpec(ByteCursor& cursor);

/// Container-query parameters, the fixed 16-byte prefix of a kQuery body
/// (followed by the format-v3 container bytes).  The response is a
/// report+data body: metadata/salvage JSON, then the decoded elements of
/// the selected (field, timestep).
struct QuerySpec {
  std::uint32_t field = 0;
  std::uint64_t timestep = 0;
};

inline constexpr std::size_t kQuerySpecBytes = 16;

void AppendQuerySpec(ByteBuffer& out, const QuerySpec& spec);

/// Reads a QuerySpec from the cursor.  Throws szx::Error on truncation (the
/// caller maps that to kBadRequest).
[[nodiscard]] QuerySpec ReadQuerySpec(ByteCursor& cursor);

/// Formats `{"error":"<what>"}` with quote/backslash escaping and \u00XX
/// escapes for every control byte, so arbitrary exception text (including
/// \r, \t, or embedded NUL) always yields valid JSON.
[[nodiscard]] std::string ErrorJson(const std::string& what);

/// Partial-result body layout (kPartial, and kOk for salvage jobs):
///   u32 report_bytes | report JSON | payload
void AppendReportAndData(ByteBuffer& out, const std::string& report,
                         ByteSpan data);

struct ReportAndData {
  std::string report;  ///< DamageReport / salvage JSON
  ByteSpan data;       ///< view into the parsed body
};

/// Splits a report+payload body.  Throws szx::Error on truncation.
[[nodiscard]] ReportAndData SplitReportAndData(ByteSpan body);

}  // namespace szx::serve
