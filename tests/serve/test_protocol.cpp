// Wire-protocol unit tests: frame round trips, framing-loss detection,
// tolerated-unknown fields, and the body sub-layouts (CompressSpec,
// QuerySpec, report+data).
#include "serve/protocol.hpp"

#include <array>

#include <gtest/gtest.h>

namespace szx::serve {
namespace {

ByteBuffer Bytes(std::initializer_list<int> values) {
  ByteBuffer out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(Protocol, RequestFrameRoundTrips) {
  RequestHeader h;
  h.opcode = Opcode::kDecompress;
  h.flags = kFlagNoDegrade;
  h.request_id = 0xdeadbeef12345678ull;
  h.deadline_ms = 250;
  const ByteBuffer body = Bytes({1, 2, 3, 4, 5});

  ByteBuffer frame;
  AppendRequestFrame(frame, h, body);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + body.size() + kChecksumBytes);

  const RequestHeader parsed = ParseRequestHeader(frame);
  EXPECT_EQ(parsed.version, kProtocolVersion);
  EXPECT_EQ(parsed.opcode, Opcode::kDecompress);
  EXPECT_EQ(parsed.flags, kFlagNoDegrade);
  EXPECT_EQ(parsed.request_id, h.request_id);
  EXPECT_EQ(parsed.deadline_ms, 250u);
  EXPECT_EQ(parsed.body_bytes, body.size());

  // The trailing checksum covers exactly the body bytes.
  const ByteSpan tail = ByteSpan(frame).subspan(kFrameHeaderBytes + body.size());
  EXPECT_EQ(ByteCursor(tail).Read<std::uint64_t>(), BodyChecksum(body));
}

TEST(Protocol, ResponseFrameRoundTrips) {
  ResponseHeader h;
  h.status = Status::kBusy;
  h.flags = kFlagBodyDamaged;
  h.request_id = 7;
  h.info = 123;  // retry backoff hint
  ByteBuffer frame;
  AppendResponseFrame(frame, h, {});

  const ResponseHeader parsed = ParseResponseHeader(frame);
  EXPECT_EQ(parsed.status, Status::kBusy);
  EXPECT_EQ(parsed.flags, kFlagBodyDamaged);
  EXPECT_EQ(parsed.request_id, 7u);
  EXPECT_EQ(parsed.info, 123u);
  EXPECT_EQ(parsed.body_bytes, 0u);
}

TEST(Protocol, BadMagicAndVersionAreFramingLoss) {
  RequestHeader h;
  ByteBuffer frame;
  AppendRequestFrame(frame, h, {});

  ByteBuffer bad_magic = frame;
  bad_magic[0] = std::byte{'X'};
  EXPECT_THROW((void)ParseRequestHeader(bad_magic), Error);

  ByteBuffer bad_version = frame;
  bad_version[4] = std::byte{99};
  EXPECT_THROW((void)ParseRequestHeader(bad_version), Error);

  EXPECT_THROW((void)ParseRequestHeader(ByteSpan(frame).first(10)), Error);

  // A response frame is not a request frame (and vice versa).
  ByteBuffer rsp;
  AppendResponseFrame(rsp, ResponseHeader{}, {});
  EXPECT_THROW((void)ParseRequestHeader(rsp), Error);
  EXPECT_THROW((void)ParseResponseHeader(frame), Error);

  // Version 1 frames carried an FNV-1a body checksum: refusing them at
  // header parse keeps their bodies from being misread as wire damage.
  ByteBuffer v1_request = frame;
  v1_request[4] = std::byte{1};
  EXPECT_THROW((void)ParseRequestHeader(v1_request), Error);
  ByteBuffer v1_response = rsp;
  v1_response[4] = std::byte{1};
  EXPECT_THROW((void)ParseResponseHeader(v1_response), Error);
}

TEST(Protocol, FrameBuildersAllocateOnce) {
  const ByteBuffer body(1 << 20, std::byte{0x5a});
  ByteBuffer req;
  AppendRequestFrame(req, RequestHeader{}, body);
  EXPECT_LE(req.capacity() - req.size(), 64u);
  ByteBuffer rsp;
  AppendResponseFrame(rsp, ResponseHeader{}, body);
  EXPECT_LE(rsp.capacity() - rsp.size(), 64u);
}

TEST(Protocol, GatherWrittenFrameEqualsTheAppendedFrame) {
  // A body sent as two parts goes out as the very bytes AppendResponseFrame
  // builds over their concatenation: one header encoder, one checksum.
  ResponseHeader h;
  h.status = Status::kPartial;
  h.flags = kFlagBodyDamaged;
  h.request_id = 77;
  const ByteBuffer head = Bytes({4, 0, 0, 0, '{', '}', '[', ']'});
  ByteBuffer tail(100);  // szx-overwrite: the loop below writes every byte
  for (std::size_t i = 0; i < tail.size(); ++i) {
    tail[i] = static_cast<std::byte>(i * 7);
  }
  ByteBuffer whole = head;
  whole.insert(whole.end(), tail.begin(), tail.end());
  ByteBuffer want;
  AppendResponseFrame(want, h, whole);

  TransportPair pair = MakeMemoryTransportPair();
  const std::array<ByteSpan, 2> parts = {ByteSpan(head), ByteSpan(tail)};
  WriteFrame(*pair.server, SealResponse(h, parts), parts);
  pair.server->ShutdownWrite();
  ByteBuffer got(want.size() + 1, std::byte{0});
  EXPECT_EQ(ReadUpToEof(*pair.client, got), want.size());
  got.resize(want.size());  // szx-overwrite: a shrink to the bytes read
  EXPECT_EQ(got, want);

  const std::array<ByteSpan, kMaxBodyParts + 1> too_many{};
  EXPECT_THROW(WriteFrame(*pair.server, SealResponse(h, too_many), too_many),
               Error);
}

TEST(Protocol, BodyChecksumDetectsEverySingleBitFlip) {
  ByteBuffer body(4096);  // szx-overwrite: the loop below writes every byte
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  const std::uint64_t clean = BodyChecksum(body);
  std::size_t missed = 0;
  for (std::size_t bit = 0; bit < body.size() * 8; ++bit) {
    const auto mask = static_cast<std::byte>(1u << (bit % 8));
    body[bit / 8] ^= mask;
    missed += BodyChecksum(body) == clean ? 1 : 0;
    body[bit / 8] ^= mask;
  }
  EXPECT_EQ(missed, 0u);
}

TEST(Protocol, UnknownOpcodeSurvivesParsing) {
  RequestHeader h;
  ByteBuffer frame;
  AppendRequestFrame(frame, h, {});
  frame[5] = std::byte{200};  // opcode byte
  const RequestHeader parsed = ParseRequestHeader(frame);  // must not throw
  EXPECT_FALSE(IsKnownOpcode(static_cast<std::uint8_t>(parsed.opcode)));
  EXPECT_TRUE(IsKnownOpcode(static_cast<std::uint8_t>(Opcode::kQuery)));
}

TEST(Protocol, CompressSpecRoundTrips) {
  CompressSpec spec;
  spec.dtype = DataType::kFloat64;
  spec.mode = ErrorBoundMode::kAbsolute;
  spec.integrity = 1;
  spec.block_size = 64;
  spec.error_bound = 1e-4;

  ByteBuffer body;
  AppendCompressSpec(body, spec);
  ASSERT_EQ(body.size(), kCompressSpecBytes);

  ByteCursor cur(body);
  const CompressSpec parsed = ReadCompressSpec(cur);
  EXPECT_EQ(parsed.dtype, DataType::kFloat64);
  EXPECT_EQ(parsed.mode, ErrorBoundMode::kAbsolute);
  EXPECT_EQ(parsed.integrity, 1);
  EXPECT_EQ(parsed.block_size, 64u);
  EXPECT_EQ(parsed.error_bound, 1e-4);
  EXPECT_TRUE(cur.AtEnd());

  // Out-of-range enum values are rejected (the server answers kBadRequest).
  ByteBuffer bad = body;
  bad[0] = std::byte{9};
  ByteCursor bad_cur(bad);
  EXPECT_THROW((void)ReadCompressSpec(bad_cur), Error);
}

TEST(Protocol, QuerySpecRoundTrips) {
  QuerySpec spec;
  spec.field = 3;
  spec.timestep = 17;
  ByteBuffer body;
  AppendQuerySpec(body, spec);
  ASSERT_EQ(body.size(), kQuerySpecBytes);
  ByteCursor cur(body);
  const QuerySpec parsed = ReadQuerySpec(cur);
  EXPECT_EQ(parsed.field, 3u);
  EXPECT_EQ(parsed.timestep, 17u);

  ByteCursor truncated(ByteSpan(body).first(7));
  EXPECT_THROW((void)ReadQuerySpec(truncated), Error);
}

TEST(Protocol, ReportAndDataRoundTrips) {
  const std::string report = "{\"usable\":true}";
  const ByteBuffer data = Bytes({9, 8, 7});
  ByteBuffer body;
  AppendReportAndData(body, report, data);

  const ReportAndData split = SplitReportAndData(body);
  EXPECT_EQ(split.report, report);
  ASSERT_EQ(split.data.size(), data.size());
  EXPECT_TRUE(std::equal(split.data.begin(), split.data.end(), data.begin()));

  // Truncated report length is rejected.
  EXPECT_THROW((void)SplitReportAndData(ByteSpan(body).first(3)), Error);
}

TEST(Protocol, ErrorJsonEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(ErrorJson("plain text"), "{\"error\":\"plain text\"}");
  EXPECT_EQ(ErrorJson("a\"b\\c"), "{\"error\":\"a\\\"b\\\\c\"}");
  // Every byte below 0x20 -- including \r, \t, and embedded NUL -- must be
  // \u-escaped, or exception text would produce invalid JSON bodies.
  std::string ctl = "x\n\r\ty";
  ctl.push_back('\0');
  ctl.push_back('\x1f');
  EXPECT_EQ(ErrorJson(ctl),
            "{\"error\":\"x\\u000a\\u000d\\u0009y\\u0000\\u001f\"}");
}

TEST(Protocol, StatusAndOpcodeNamesAreStable) {
  EXPECT_STREQ(OpcodeName(Opcode::kSalvage), "salvage");
  EXPECT_STREQ(StatusName(Status::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(StatusName(Status::kPartial), "partial");
}

}  // namespace
}  // namespace szx::serve
