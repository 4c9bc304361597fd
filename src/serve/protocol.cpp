#include "serve/protocol.hpp"

#include <array>

#include "core/json.hpp"

namespace szx::serve {

namespace {

constexpr std::array<char, 4> kRequestMagic = {'S', 'Z', 'X', 'Q'};
constexpr std::array<char, 4> kResponseMagic = {'S', 'Z', 'X', 'R'};

// Both frame kinds share this one header encoder; they differ only in the
// magic and in what the code byte and the 32-bit word carry (opcode +
// deadline for a request, status + info for a response).
struct HeaderFields {
  const std::array<char, 4>& magic;
  std::uint8_t version;
  std::uint8_t code;
  std::uint16_t flags;
  std::uint64_t request_id;
  std::uint32_t word;
};

FrameEnvelope Seal(const HeaderFields& f, std::span<const ByteSpan> body) {
  std::uint64_t body_bytes = 0;
  Xxh64Stream hash;
  for (const ByteSpan part : body) {
    body_bytes = CheckedAdd(body_bytes, part.size());
    hash.Update(part);
  }
  FrameEnvelope env;
  SpanWriter w(env.header);
  for (const char c : f.magic) w.Write(static_cast<std::uint8_t>(c));
  w.Write(f.version);
  w.Write(f.code);
  w.Write(f.flags);
  w.Write(f.request_id);
  w.Write(f.word);
  w.Write(std::uint32_t{0});  // reserved
  w.Write(body_bytes);
  SpanWriter(env.checksum).Write(hash.Digest());
  return env;
}

// Sized for the whole frame up front, so a large body is copied once.
void AppendFrame(ByteBuffer& out, const FrameEnvelope& env, ByteSpan body) {
  out.reserve(out.size() + kFrameHeaderBytes + body.size() + kChecksumBytes);
  ByteWriter w(out);
  w.WriteBytes(env.header.data(), env.header.size());
  w.WriteBytes(body.data(), body.size());
  w.WriteBytes(env.checksum.data(), env.checksum.size());
}

void CheckMagic(ByteCursor& cur, const std::array<char, 4>& magic,
                const char* what) {
  for (const char c : magic) {
    if (cur.Read<std::uint8_t>() != static_cast<std::uint8_t>(c)) {
      throw Error(std::string("szx-serve: bad ") + what + " frame magic");
    }
  }
}

}  // namespace

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kCompress: return "compress";
    case Opcode::kDecompress: return "decompress";
    case Opcode::kSalvage: return "salvage";
    case Opcode::kQuery: return "query";
  }
  return "unknown";
}

bool IsKnownOpcode(std::uint8_t op) {
  return op <= static_cast<std::uint8_t>(Opcode::kQuery);
}

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kPartial: return "partial";
    case Status::kBadRequest: return "bad-request";
    case Status::kCorrupt: return "corrupt";
    case Status::kBusy: return "busy";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kInternalError: return "internal-error";
  }
  return "unknown";
}

FrameEnvelope SealRequest(const RequestHeader& header,
                          std::span<const ByteSpan> body) {
  return Seal({kRequestMagic, header.version,
               static_cast<std::uint8_t>(header.opcode), header.flags,
               header.request_id, header.deadline_ms},
              body);
}

FrameEnvelope SealResponse(const ResponseHeader& header,
                           std::span<const ByteSpan> body) {
  return Seal({kResponseMagic, header.version,
               static_cast<std::uint8_t>(header.status), header.flags,
               header.request_id, header.info},
              body);
}

void WriteFrame(Transport& t, const FrameEnvelope& envelope,
                std::span<const ByteSpan> body) {
  if (body.size() > kMaxBodyParts) {
    throw Error("szx-serve: frame body has too many parts");
  }
  std::array<ByteSpan, kMaxBodyParts + 2> parts;
  std::size_t n = 0;
  parts[n++] = envelope.header;
  for (const ByteSpan part : body) parts[n++] = part;
  parts[n++] = envelope.checksum;
  t.WriteParts(std::span(parts).first(n));
}

void AppendRequestFrame(ByteBuffer& out, const RequestHeader& header,
                        ByteSpan body) {
  AppendFrame(out, SealRequest(header, std::span(&body, 1)), body);
}

void AppendResponseFrame(ByteBuffer& out, const ResponseHeader& header,
                         ByteSpan body) {
  AppendFrame(out, SealResponse(header, std::span(&body, 1)), body);
}

RequestHeader ParseRequestHeader(ByteSpan bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw Error("szx-serve: truncated request header");
  }
  ByteCursor cur(bytes);
  CheckMagic(cur, kRequestMagic, "request");
  RequestHeader h;
  h.version = cur.Read<std::uint8_t>();
  if (h.version != kProtocolVersion) {
    throw Error("szx-serve: unsupported protocol version " +
                std::to_string(h.version));
  }
  // Unknown opcode values survive the parse (the caller answers them with a
  // typed kBadRequest; framing is intact, so the connection continues).
  h.opcode = static_cast<Opcode>(cur.Read<std::uint8_t>());
  h.flags = cur.Read<std::uint16_t>();
  h.request_id = cur.Read<std::uint64_t>();
  h.deadline_ms = cur.Read<std::uint32_t>();
  (void)cur.Read<std::uint32_t>();  // reserved; tolerated nonzero
  h.body_bytes = cur.Read<std::uint64_t>();
  return h;
}

ResponseHeader ParseResponseHeader(ByteSpan bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw Error("szx-serve: truncated response header");
  }
  ByteCursor cur(bytes);
  CheckMagic(cur, kResponseMagic, "response");
  ResponseHeader h;
  h.version = cur.Read<std::uint8_t>();
  if (h.version != kProtocolVersion) {
    throw Error("szx-serve: unsupported protocol version " +
                std::to_string(h.version));
  }
  h.status = static_cast<Status>(cur.Read<std::uint8_t>());
  h.flags = cur.Read<std::uint16_t>();
  h.request_id = cur.Read<std::uint64_t>();
  h.info = cur.Read<std::uint32_t>();
  (void)cur.Read<std::uint32_t>();  // reserved
  h.body_bytes = cur.Read<std::uint64_t>();
  return h;
}

void AppendCompressSpec(ByteBuffer& out, const CompressSpec& spec) {
  ByteWriter w(out);
  w.Write(static_cast<std::uint8_t>(spec.dtype));
  w.Write(static_cast<std::uint8_t>(spec.mode));
  w.Write(spec.integrity);
  w.Write(std::uint8_t{0});  // reserved
  w.Write(spec.block_size);
  w.Write(spec.error_bound);
}

CompressSpec ReadCompressSpec(ByteCursor& cursor) {
  CompressSpec spec;
  const auto dtype = cursor.Read<std::uint8_t>();
  if (dtype > static_cast<std::uint8_t>(DataType::kFloat64)) {
    throw Error("szx-serve: bad dtype in compress spec");
  }
  spec.dtype = static_cast<DataType>(dtype);
  const auto mode = cursor.Read<std::uint8_t>();
  if (mode > static_cast<std::uint8_t>(ErrorBoundMode::kPointwiseRelative)) {
    throw Error("szx-serve: bad error-bound mode in compress spec");
  }
  spec.mode = static_cast<ErrorBoundMode>(mode);
  spec.integrity = cursor.Read<std::uint8_t>();
  (void)cursor.Read<std::uint8_t>();  // reserved
  spec.block_size = cursor.Read<std::uint32_t>();
  spec.error_bound = cursor.Read<double>();
  return spec;
}

void AppendQuerySpec(ByteBuffer& out, const QuerySpec& spec) {
  ByteWriter w(out);
  w.Write(spec.field);
  w.Write(std::uint32_t{0});  // reserved
  w.Write(spec.timestep);
}

QuerySpec ReadQuerySpec(ByteCursor& cursor) {
  QuerySpec spec;
  spec.field = cursor.Read<std::uint32_t>();
  (void)cursor.Read<std::uint32_t>();  // reserved
  spec.timestep = cursor.Read<std::uint64_t>();
  return spec;
}

std::string ErrorJson(const std::string& what) {
  return "{\"error\":\"" + JsonEscape(what) + "\"}";
}

void AppendReportAndData(ByteBuffer& out, const std::string& report,
                         ByteSpan data) {
  ByteWriter w(out);
  w.Write(CheckedNarrow<std::uint32_t>(report.size()));
  w.WriteBytes(report.data(), report.size());
  w.WriteBytes(data.data(), data.size());
}

ReportAndData SplitReportAndData(ByteSpan body) {
  ByteCursor cur(body);
  const auto report_bytes = cur.Read<std::uint32_t>();
  const ByteSpan report = cur.Slice(report_bytes);
  ReportAndData out;
  out.report.assign(static_cast<std::size_t>(report_bytes), '\0');
  ByteCursor(report).ReadSpan(
      std::span<char>(out.report.data(), out.report.size()));
  out.data = cur.Rest();
  return out;
}

}  // namespace szx::serve
