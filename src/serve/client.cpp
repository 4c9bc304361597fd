#include "serve/client.hpp"

#include <array>
#include <string>
#include <utility>

namespace szx::serve {

std::uint64_t Client::Send(Opcode opcode, ByteSpan body,
                           std::uint32_t deadline_ms, std::uint16_t flags) {
  RequestHeader header;
  header.opcode = opcode;
  header.flags = flags;
  header.request_id = next_id_++;
  header.deadline_ms = deadline_ms;
  const std::span<const ByteSpan> parts(&body, 1);
  WriteFrame(transport_, SealRequest(header, parts), parts);
  return header.request_id;
}

std::optional<ClientResponse> Client::Receive() {
  std::array<std::byte, kFrameHeaderBytes> header_buf{};
  if (!ReadExact(transport_, header_buf)) return std::nullopt;
  ClientResponse rsp;
  rsp.header = ParseResponseHeader(header_buf);
  if (rsp.header.body_bytes > max_body_bytes_) {
    // A valid header with an absurd size means framing can no longer be
    // trusted; fail the connection instead of attempting the allocation.
    throw TransportError("szx-serve: response body of " +
                         std::to_string(rsp.header.body_bytes) +
                         " bytes exceeds the client limit of " +
                         std::to_string(max_body_bytes_));
  }
  // szx-overwrite: ReadExact fills every byte, or the throw below drops body
  ByteBuffer body(CheckedNarrow<std::size_t>(rsp.header.body_bytes));
  if (!ReadExact(transport_, std::span<std::byte>(body))) {
    throw TransportError("szx-serve: stream ended before response body");
  }
  rsp.body = std::move(body);
  std::array<std::byte, kChecksumBytes> check{};
  if (!ReadExact(transport_, check)) {
    throw TransportError("szx-serve: stream ended before response checksum");
  }
  const auto want =
      ByteCursor(ByteSpan(check.data(), check.size())).Read<std::uint64_t>();
  rsp.body_checksum_ok = want == BodyChecksum(rsp.body);
  return rsp;
}

ClientResponse Client::Call(Opcode opcode, ByteSpan body,
                            std::uint32_t deadline_ms, std::uint16_t flags) {
  (void)Send(opcode, body, deadline_ms, flags);
  auto rsp = Receive();
  if (!rsp.has_value()) {
    throw TransportError("szx-serve: server closed before answering");
  }
  return std::move(*rsp);
}

}  // namespace szx::serve
