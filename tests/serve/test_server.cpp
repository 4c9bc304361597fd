// Server behavior suite: job round trips for every opcode, the typed-error
// contract, deadlines, overload shedding with backoff + budget accounting,
// backpressure under a saturating client, degradation of damaged bodies,
// and shutdown semantics.  Everything runs over bounded MemoryTransport
// pairs, so the blocking/backpressure behavior is deterministic.  The
// wire-identity test pins every gather-written reply frame byte for byte
// against a frame assembled from the in-process codec.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compressor.hpp"
#include "core/container.hpp"
#include "serve_test_util.hpp"

namespace szx::serve {
namespace {

using testutil::ServeHarness;

std::vector<float> SineData(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<float>(i) * 0.01f) * 100.0f;
  }
  return v;
}

ByteBuffer CompressBody(std::span<const float> data, bool integrity = false) {
  CompressSpec spec;
  spec.integrity = integrity ? 1 : 0;
  ByteBuffer body;
  AppendCompressSpec(body, spec);
  ByteWriter(body).WriteBytes(data.data(), data.size_bytes());
  return body;
}

ByteBuffer AsBytes(const std::string& text) {
  const ByteSpan bytes = std::as_bytes(std::span(text.data(), text.size()));
  return ByteBuffer(bytes.begin(), bytes.end());
}

std::vector<float> ToFloats(ByteSpan bytes) {
  std::vector<float> out(bytes.size() / sizeof(float));
  ByteCursor(bytes).ReadSpan(std::span<float>(out));
  return out;
}

/// Writes a request frame whose body byte at `flip_offset` is corrupted
/// AFTER the checksum was computed -- a deterministic wire-damage stand-in.
void SendDamaged(Transport& t, Opcode op, ByteSpan body,
                 std::size_t flip_offset, std::uint16_t flags = 0) {
  RequestHeader h;
  h.opcode = op;
  h.flags = flags;
  h.request_id = 99;
  ByteBuffer frame;
  AppendRequestFrame(frame, h, body);
  frame.at(kFrameHeaderBytes + flip_offset) ^= std::byte{0x40};
  t.Write(frame);
}

TEST(Server, PingEchoesBody) {
  ServeHarness h;
  Client client(h.Connect());
  const ByteBuffer body = {std::byte{1}, std::byte{2}, std::byte{3}};
  const ClientResponse rsp = client.Call(Opcode::kPing, body);
  EXPECT_EQ(rsp.header.status, Status::kOk);
  EXPECT_TRUE(rsp.body_checksum_ok);
  EXPECT_EQ(rsp.body, body);
}

TEST(Server, CompressDecompressRoundTripsThroughService) {
  ServeHarness h;
  Client client(h.Connect());
  const std::vector<float> data = SineData(10000);

  const ClientResponse enc =
      client.Call(Opcode::kCompress, CompressBody(data));
  ASSERT_EQ(enc.header.status, Status::kOk);
  ASSERT_TRUE(enc.body_checksum_ok);
  ASSERT_FALSE(enc.body.empty());

  // The service's stream equals a local compression with the same Params.
  const ByteBuffer local = Compress<float>(data, Params{});
  EXPECT_EQ(enc.body, local);

  const ClientResponse dec = client.Call(Opcode::kDecompress, enc.body);
  ASSERT_EQ(dec.header.status, Status::kOk);
  const std::vector<float> recon = ToFloats(dec.body);
  const std::vector<float> local_recon = Decompress<float>(local);
  EXPECT_EQ(recon, local_recon);
}

TEST(Server, CompressRejectsBadSpecAndRaggedPayload) {
  ServeHarness h;
  Client client(h.Connect());

  // Truncated spec.
  const ByteBuffer tiny = {std::byte{0}, std::byte{1}};
  EXPECT_EQ(client.Call(Opcode::kCompress, tiny).header.status,
            Status::kBadRequest);

  // Whole spec, ragged element payload (not a multiple of sizeof(float)).
  ByteBuffer body;
  AppendCompressSpec(body, CompressSpec{});
  body.push_back(std::byte{0});
  EXPECT_EQ(client.Call(Opcode::kCompress, body).header.status,
            Status::kBadRequest);

  // Invalid params (zero error bound) surface as kBadRequest, not a closed
  // connection.
  CompressSpec spec;
  spec.error_bound = 0.0;
  ByteBuffer bad;
  AppendCompressSpec(bad, spec);
  const std::vector<float> data(64, 1.0f);
  ByteWriter(bad).WriteBytes(data.data(), data.size() * sizeof(float));
  EXPECT_EQ(client.Call(Opcode::kCompress, bad).header.status,
            Status::kBadRequest);

  // The connection survived all three errors.
  EXPECT_EQ(client.Call(Opcode::kPing, {}).header.status, Status::kOk);
}

TEST(Server, Float64JobsDispatchOnDtype) {
  ServeHarness h;
  Client client(h.Connect());
  std::vector<double> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::cos(static_cast<double>(i) * 0.003);
  }
  CompressSpec spec;
  spec.dtype = DataType::kFloat64;
  ByteBuffer body;
  AppendCompressSpec(body, spec);
  ByteWriter(body).WriteBytes(data.data(), data.size() * sizeof(double));

  const ClientResponse enc = client.Call(Opcode::kCompress, body);
  ASSERT_EQ(enc.header.status, Status::kOk);
  const ClientResponse dec = client.Call(Opcode::kDecompress, enc.body);
  ASSERT_EQ(dec.header.status, Status::kOk);
  EXPECT_EQ(dec.body.size(), data.size() * sizeof(double));
}

TEST(Server, UnknownOpcodeGetsTypedBadRequest) {
  ServeHarness h;
  MemoryTransport& t = h.Connect();
  RequestHeader req;
  ByteBuffer frame;
  AppendRequestFrame(frame, req, {});
  frame[5] = std::byte{77};  // unregistered opcode
  t.Write(frame);
  Client client(t);
  const auto rsp = client.Receive();
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->header.status, Status::kBadRequest);
  // Framing survived: the connection still answers.
  EXPECT_EQ(client.Call(Opcode::kPing, {}).header.status, Status::kOk);
}

TEST(Server, OversizedBodyIsDrainedAndRejected) {
  ServerConfig cfg;
  cfg.max_body_bytes = 1024;
  ServeHarness h(cfg);
  Client client(h.Connect());
  const ByteBuffer big(4096, std::byte{7});
  const ClientResponse rsp = client.Call(Opcode::kPing, big);
  EXPECT_EQ(rsp.header.status, Status::kBadRequest);
  // Framing survived the oversized frame (it was drained, not truncated).
  EXPECT_EQ(client.Call(Opcode::kPing, {}).header.status, Status::kOk);
}

TEST(Server, ClientRejectsResponseBodyBeyondItsBound) {
  // A response header can carry a valid magic/version while body_bytes is
  // garbage; the client must fail the connection with TransportError, not
  // attempt a near-2^64 allocation.
  TransportPair pair = MakeMemoryTransportPair();
  ResponseHeader h;
  ByteBuffer frame;
  AppendResponseFrame(frame, h, {});
  for (std::size_t i = 24; i < kFrameHeaderBytes; ++i) {
    frame[i] = std::byte{0xFF};  // body_bytes := 2^64 - 1
  }
  pair.server->Write(ByteSpan(frame).first(kFrameHeaderBytes));

  Client client(*pair.client);
  EXPECT_THROW((void)client.Receive(), TransportError);

  // A caller-raised bound admits sizes the default would admit anyway.
  const ByteBuffer small(128, std::byte{3});
  ByteBuffer ok_frame;
  AppendResponseFrame(ok_frame, h, small);
  pair.server->Write(ok_frame);
  Client roomy(*pair.client, std::uint64_t{4} << 30);
  const auto rsp = roomy.Receive();
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->body, small);
}

TEST(Server, ClientNeverReturnsAPartlyReadBody) {
  // A peer that closes inside a response must fail Receive with
  // TransportError.  ByteBuffer does not zero what it grows, so a body
  // returned short of its header's body_bytes would carry stale heap bytes.
  const ByteBuffer body(4096, std::byte{0x5a});
  ResponseHeader h;
  ByteBuffer frame;
  AppendResponseFrame(frame, h, body);
  struct Cut {
    std::size_t body_bytes_sent;
    const char* error;
  };
  for (const Cut cut : {Cut{0, "stream ended before response body"},
                        Cut{1, "stream ended mid-frame"},
                        Cut{body.size() / 2, "stream ended mid-frame"},
                        Cut{body.size() - 1, "stream ended mid-frame"},
                        Cut{body.size(), "stream ended before response "
                                         "checksum"}}) {
    TransportPair pair = MakeMemoryTransportPair();
    pair.server->Write(
        ByteSpan(frame).first(kFrameHeaderBytes + cut.body_bytes_sent));
    pair.server->ShutdownWrite();
    Client client(*pair.client);
    try {
      (void)client.Receive();
      ADD_FAILURE() << "Receive returned after " << cut.body_bytes_sent
                    << " of " << body.size() << " body bytes";
    } catch (const TransportError& e) {
      EXPECT_NE(std::string(e.what()).find(cut.error), std::string::npos)
          << e.what();
    }
  }
}

TEST(Server, DamagedDecompressBodyDegradesToPartialWithReport) {
  ServeHarness h;
  MemoryTransport& t = h.Connect();
  Client client(t);
  const std::vector<float> data = SineData(20000);
  Params p;
  p.integrity = true;  // v2 footer: salvage can verify chunks
  const ByteBuffer stream = Compress<float>(data, p);

  // Flip one byte deep in the payload region.
  SendDamaged(t, Opcode::kDecompress, stream, stream.size() / 2);
  const auto rsp = client.Receive();
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->header.status, Status::kPartial);
  EXPECT_NE(rsp->header.flags & kFlagBodyDamaged, 0);

  const ReportAndData split = SplitReportAndData(rsp->body);
  EXPECT_NE(split.report.find("\"usable\":true"), std::string::npos)
      << split.report;
  EXPECT_EQ(split.data.size(), data.size() * sizeof(float));
}

TEST(Server, NoDegradeFlagForcesTypedCorrupt) {
  ServeHarness h;
  MemoryTransport& t = h.Connect();
  Client client(t);
  const std::vector<float> data = SineData(20000);
  Params p;
  p.integrity = true;
  const ByteBuffer stream = Compress<float>(data, p);

  SendDamaged(t, Opcode::kDecompress, stream, stream.size() / 2,
              kFlagNoDegrade);
  const auto rsp = client.Receive();
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->header.status, Status::kCorrupt);
  EXPECT_NE(rsp->header.flags & kFlagBodyDamaged, 0);
  // Connection survives: exactly one typed response per accepted frame.
  EXPECT_EQ(client.Call(Opcode::kPing, {}).header.status, Status::kOk);
}

TEST(Server, SalvageJobReturnsReportAndElements) {
  ServeHarness h;
  Client client(h.Connect());
  const std::vector<float> data = SineData(20000);
  Params p;
  p.integrity = true;
  ByteBuffer stream = Compress<float>(data, p);

  // Clean stream: salvage reports clean and returns every element.
  const ClientResponse clean = client.Call(Opcode::kSalvage, stream);
  ASSERT_EQ(clean.header.status, Status::kOk);
  ReportAndData split = SplitReportAndData(clean.body);
  EXPECT_NE(split.report.find("\"clean\":true"), std::string::npos)
      << split.report;
  EXPECT_EQ(ToFloats(split.data), Decompress<float>(stream));

  // In-body damage (valid wire frame, damaged stream): degraded result.
  stream[stream.size() / 2] ^= std::byte{0x10};
  const ClientResponse damaged = client.Call(Opcode::kSalvage, stream);
  ASSERT_EQ(damaged.header.status, Status::kPartial);
  EXPECT_EQ(damaged.header.flags & kFlagBodyDamaged, 0);  // wire was clean
  split = SplitReportAndData(damaged.body);
  EXPECT_NE(split.report.find("\"clean\":false"), std::string::npos)
      << split.report;
  EXPECT_EQ(split.data.size(), data.size() * sizeof(float));
}

ByteBuffer BuildContainer(const std::vector<float>& t0,
                          const std::vector<float>& t1,
                          const std::string& name = "temperature") {
  ContainerWriter writer;
  ContainerWriter::FieldSpec spec;
  spec.name = name;
  spec.params.integrity = true;
  spec.elements_per_timestep = t0.size();
  spec.chunk_elements = 4096;
  const std::uint32_t field = writer.AddField(spec, DataType::kFloat32);
  writer.AppendTimestep<float>(field, t0);
  writer.AppendTimestep<float>(field, t1);
  return writer.Finish();
}

TEST(Server, QueryDecodesTimestepWithMetadata) {
  ServeHarness h;
  Client client(h.Connect());
  const std::vector<float> t0 = SineData(20000);
  std::vector<float> t1 = t0;
  for (auto& v : t1) v += 1.0f;
  const ByteBuffer container = BuildContainer(t0, t1);

  ByteBuffer body;
  AppendQuerySpec(body, QuerySpec{.field = 0, .timestep = 1});
  ByteWriter(body).WriteBytes(container.data(), container.size());

  const ClientResponse rsp = client.Call(Opcode::kQuery, body);
  ASSERT_EQ(rsp.header.status, Status::kOk);
  const ReportAndData split = SplitReportAndData(rsp.body);
  EXPECT_NE(split.report.find("\"field\":\"temperature\""), std::string::npos)
      << split.report;
  EXPECT_NE(split.report.find("\"timesteps\":2"), std::string::npos);

  ContainerReader reader(container);
  EXPECT_EQ(ToFloats(split.data), reader.DecompressTimestep<float>(0, 1));
}

// A field name is arbitrary bytes: the query report must escape it into a
// valid JSON string.
TEST(Server, QueryReportEscapesTheFieldName) {
  ServeHarness h;
  Client client(h.Connect());
  const std::vector<float> t0 = SineData(5000);
  const ByteBuffer container = BuildContainer(t0, t0, "q\"b\\s\tt\x01" "e");

  ByteBuffer body;
  AppendQuerySpec(body, QuerySpec{});
  ByteWriter(body).WriteBytes(container.data(), container.size());
  const ClientResponse rsp = client.Call(Opcode::kQuery, body);
  ASSERT_EQ(rsp.header.status, Status::kOk);
  const ReportAndData split = SplitReportAndData(rsp.body);
  EXPECT_NE(split.report.find(R"("field":"q\"b\\s\u0009t\u0001e")"),
            std::string::npos)
      << split.report;
}

TEST(Server, QueryOutOfRangeAndCorruptContainers) {
  ServeHarness h;
  Client client(h.Connect());
  const std::vector<float> t0 = SineData(20000);
  const ByteBuffer container = BuildContainer(t0, t0);

  ByteBuffer body;
  AppendQuerySpec(body, QuerySpec{.field = 5, .timestep = 0});
  ByteWriter(body).WriteBytes(container.data(), container.size());
  EXPECT_EQ(client.Call(Opcode::kQuery, body).header.status,
            Status::kBadRequest);

  // A destroyed directory is terminal: nothing can be located.
  ByteBuffer broken = container;
  std::fill(broken.end() - 16, broken.end(), std::byte{0});
  ByteBuffer body2;
  AppendQuerySpec(body2, QuerySpec{});
  ByteWriter(body2).WriteBytes(broken.data(), broken.size());
  EXPECT_EQ(client.Call(Opcode::kQuery, body2).header.status,
            Status::kCorrupt);
}

TEST(Server, QueryDamagedChunkDegradesToChunkSalvage) {
  ServeHarness h;
  Client client(h.Connect());
  const std::vector<float> t0 = SineData(20000);
  ByteBuffer container = BuildContainer(t0, t0);

  // Damage one chunk's payload (after the 48-byte header, inside the chunk
  // region) so exactly that chunk's entry checksum fails.
  container[48 + 100] ^= std::byte{0x20};
  ByteBuffer body;
  AppendQuerySpec(body, QuerySpec{});
  ByteWriter(body).WriteBytes(container.data(), container.size());

  const ClientResponse rsp = client.Call(Opcode::kQuery, body);
  ASSERT_EQ(rsp.header.status, Status::kPartial);
  const ReportAndData split = SplitReportAndData(rsp.body);
  EXPECT_NE(split.report.find("\"usable\":true"), std::string::npos)
      << split.report;
  EXPECT_EQ(split.data.size(), t0.size() * sizeof(float));
}

TEST(Server, QueuedJobPastDeadlineIsNotExecuted) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  // Small pipes: the decompress response (80 KB) cannot fit, so the only
  // worker blocks mid-write until the wedge client reads.
  ServeHarness h(cfg, /*pipe_capacity=*/4096);
  MemoryTransport& wedge_t = h.Connect();
  Client wedge(wedge_t);
  const std::vector<float> zeros(20000, 0.0f);
  const std::uint64_t slow_id =
      wedge.Send(Opcode::kDecompress, Compress<float>(zeros, Params{}));
  // A full client-side pipe proves the worker is wedged in the write.
  while (wedge_t.inbox_buffered() < 4096) std::this_thread::yield();

  // Queue a 1 ms-deadline ping behind the wedged worker on a second
  // connection, then a probe ping.  Its BUSY answer (both admission slots
  // are held) is written by the connection's reader, which handles frames
  // in order, so the doomed ping was already admitted, armed and queued.
  Client client(h.Connect());
  const std::uint64_t doomed_id = client.Send(Opcode::kPing, {}, 1);
  const std::uint64_t probe_id = client.Send(Opcode::kPing, {});
  const auto probe = client.Receive();
  ASSERT_TRUE(probe.has_value());
  ASSERT_EQ(probe->header.request_id, probe_id);
  ASSERT_EQ(probe->header.status, Status::kBusy);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // > deadline

  // Unwedge: the slow job completes, then the worker finds the ping expired.
  const auto slow = wedge.Receive();
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(slow->header.request_id, slow_id);
  EXPECT_EQ(slow->header.status, Status::kOk);
  const auto doomed = client.Receive();
  ASSERT_TRUE(doomed.has_value());
  EXPECT_EQ(doomed->header.request_id, doomed_id);
  EXPECT_EQ(doomed->header.status, Status::kDeadlineExceeded);
  // Stats are counted after the response is written; the shutdown join
  // drains every job first.
  h.Shutdown();
  EXPECT_EQ(h.server().stats().deadline_exceeded, 1u);
}

TEST(Server, DeadlineCancelsMidDecode) {
  ServeHarness h;
  Client client(h.Connect());
  // A multi-chunk query decode crosses cooperative cancellation checks at
  // every chunk boundary; a 1 ms deadline cannot survive them all.
  const std::vector<float> t0 = SineData(1u << 21);
  const ByteBuffer container = BuildContainer(t0, t0);
  ByteBuffer body;
  AppendQuerySpec(body, QuerySpec{});
  ByteWriter(body).WriteBytes(container.data(), container.size());

  const ClientResponse rsp = client.Call(Opcode::kQuery, body, /*deadline=*/1);
  EXPECT_EQ(rsp.header.status, Status::kDeadlineExceeded);
}

TEST(Server, OverloadShedsWithBackoffHints) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.busy_backoff_base_ms = 4;
  cfg.busy_backoff_max_ms = 64;
  // Small pipes: the decompress response (80 KB) cannot fit, so the worker
  // blocks mid-write and the admission slot stays held deterministically.
  ServeHarness h(cfg, /*pipe_capacity=*/4096);
  MemoryTransport& wedge_t = h.Connect();
  Client wedge(wedge_t);

  const std::vector<float> zeros(20000, 0.0f);  // tiny stream, 80 KB output
  const ByteBuffer stream = Compress<float>(zeros, Params{});
  const std::uint64_t decomp_id = wedge.Send(Opcode::kDecompress, stream);

  // Give the worker time to claim the slot and block on the full pipe.
  while (h.server().stats().requests < 1) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Shed on a SECOND connection: its write mutex is free (the wedged worker
  // holds the first connection's), so every BUSY is written -- and readable
  // -- while the slot is provably still held.  Fully deterministic.
  Client client(h.Connect());
  const int kPings = 4;
  std::vector<std::uint32_t> backoffs;
  for (int i = 0; i < kPings; ++i) {
    const ClientResponse rsp = client.Call(Opcode::kPing, {});
    ASSERT_EQ(rsp.header.status, Status::kBusy);
    backoffs.push_back(rsp.header.info);
  }
  // Exponential, then capped: 4, 8, 16, 32.
  ASSERT_EQ(backoffs.size(), 4u);
  EXPECT_EQ(backoffs[0], 4u);
  EXPECT_EQ(backoffs[1], 8u);
  EXPECT_EQ(backoffs[2], 16u);
  EXPECT_EQ(backoffs[3], 32u);
  EXPECT_EQ(h.server().stats().shed_busy, 4u);

  // Unwedge: drain the big decompress; the slot frees and service resumes.
  const auto first = wedge.Receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.request_id, decomp_id);
  EXPECT_EQ(first->header.status, Status::kOk);
  // The worker releases its slot just AFTER its response drains, so the
  // first post-drain ping can race the release: honour the BUSY protocol
  // (bounded retries) rather than assuming instant resumption.
  Status resumed = Status::kBusy;
  for (int i = 0; i < 100 && resumed == Status::kBusy; ++i) {
    resumed = client.Call(Opcode::kPing, {}).header.status;
    if (resumed == Status::kBusy) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(resumed, Status::kOk);
}

TEST(Server, BusyBudgetExhaustionClosesTheConnection) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.busy_budget = 3;
  ServeHarness h(cfg, /*pipe_capacity=*/4096);
  MemoryTransport& wedge_t = h.Connect();
  Client wedge(wedge_t);

  const std::vector<float> zeros(20000, 0.0f);
  const ByteBuffer stream = Compress<float>(zeros, Params{});
  (void)wedge.Send(Opcode::kDecompress, stream);
  while (h.server().stats().requests < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Hammer a second connection while the only slot is wedged: the server
  // answers exactly budget=3 kBusy, then hangs up on the abuser.
  MemoryTransport& t = h.Connect();
  Client client(t);
  for (int i = 0; i < 7; ++i) {
    try {
      (void)client.Send(Opcode::kPing, {});
    } catch (const TransportError&) {
      break;  // server already hung up: sends may start failing
    }
  }
  t.ShutdownWrite();

  int busies = 0;
  for (;;) {
    std::optional<ClientResponse> rsp;
    try {
      rsp = client.Receive();
    } catch (const TransportError&) {
      break;  // server hard-closed mid-read is also an accepted ending
    }
    if (!rsp.has_value()) break;
    EXPECT_EQ(rsp->header.status, Status::kBusy);
    ++busies;
  }
  EXPECT_EQ(busies, 3);

  // The wedged connection was never penalised: its job still completes.
  const auto first = wedge.Receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.status, Status::kOk);
}

TEST(Server, SaturatingClientObservesBackpressure) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_inflight_per_conn = 1;
  cfg.queue_capacity = 16;
  // 2 KiB pipes and 1 KiB bodies: without backpressure 50 requests would
  // buffer ~50 KiB; with it the server cannot run more than a few ahead of
  // the (non-reading) client.
  ServeHarness h(cfg, /*pipe_capacity=*/2048);
  MemoryTransport& t = h.Connect();
  Client client(t);

  const int kJobs = 50;
  const ByteBuffer body(1000, std::byte{42});
  std::thread sender([&] {
    for (int i = 0; i < kJobs; ++i) (void)client.Send(Opcode::kPing, body);
    t.ShutdownWrite();
  });

  // Let the pipeline wedge: the client is not reading, so the server must
  // park after at most window + a pipe's worth of responses.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const ServerStats wedged = h.server().stats();
  EXPECT_LE(wedged.requests, 8u) << "server ran ahead of a blocked client";
  EXPECT_LE(t.inbox_buffered(), 2048u);  // bounded by construction

  // Drain: every request still completes, in order, intact.
  int ok = 0;
  for (;;) {
    const auto rsp = client.Receive();
    if (!rsp.has_value()) break;
    EXPECT_EQ(rsp->header.status, Status::kOk);
    EXPECT_EQ(rsp->body, body);
    ++ok;
  }
  sender.join();
  EXPECT_EQ(ok, kJobs);
  EXPECT_EQ(h.server().stats().completed_ok, static_cast<std::uint64_t>(kJobs));
}

TEST(Server, StopUnblocksParkedConnectionsAndAnswersShuttingDown) {
  ServeHarness h;
  MemoryTransport& t = h.Connect();
  Client client(t);
  EXPECT_EQ(client.Call(Opcode::kPing, {}).header.status, Status::kOk);

  h.server().Stop();
  // The parked reader was unblocked by the transport close; the connection
  // thread exits and Shutdown() joins it without hanging.
  h.Shutdown();
  const ServerStats s = h.server().stats();
  EXPECT_EQ(s.connections, 1u);
  EXPECT_EQ(s.completed_ok, 1u);
}

TEST(Server, ConnectionsAfterStopAreClosedImmediately) {
  ServeHarness h;
  h.server().Stop();
  MemoryTransport& t = h.Connect();
  Client client(t);
  // The transport is closed before any frame is read.
  EXPECT_THROW((void)client.Call(Opcode::kPing, {}), TransportError);
}

TEST(Server, ManyConcurrentConnectionsStayIsolated) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 64;
  ServeHarness h(cfg);
  constexpr int kConns = 8;
  std::vector<MemoryTransport*> transports;
  for (int i = 0; i < kConns; ++i) transports.push_back(&h.Connect());

  std::vector<std::thread> clients;
  std::vector<int> oks(kConns, 0);
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      Client client(*transports[c]);
      const std::vector<float> data = SineData(4096 + 512u * c);
      for (int r = 0; r < 5; ++r) {
        const ClientResponse enc =
            client.Call(Opcode::kCompress, CompressBody(data));
        if (enc.header.status != Status::kOk) continue;
        const ClientResponse dec =
            client.Call(Opcode::kDecompress, enc.body);
        if (dec.header.status == Status::kOk &&
            dec.body.size() == data.size() * sizeof(float)) {
          ++oks[c];
        }
      }
      transports[c]->ShutdownWrite();
    });
  }
  for (auto& th : clients) th.join();
  for (int c = 0; c < kConns; ++c) EXPECT_EQ(oks[c], 5) << "conn " << c;
  EXPECT_EQ(h.server().stats().connections, static_cast<std::uint64_t>(kConns));
}

// ---- wire byte identity ----------------------------------------------------

/// One whole response frame (header, body, checksum) as read off the wire.
ByteBuffer ReadRawFrame(Transport& t) {
  ByteBuffer frame(kFrameHeaderBytes);  // szx-overwrite: ReadExact, or dropped
  if (!ReadExact(t, frame)) return {};
  const ResponseHeader h = ParseResponseHeader(frame);
  // szx-overwrite: ReadExact below fills body and checksum; a short read fails the EXPECT
  frame.resize(kFrameHeaderBytes + h.body_bytes + kChecksumBytes);
  EXPECT_TRUE(ReadExact(t, std::span(frame).subspan(kFrameHeaderBytes)));
  return frame;
}

/// The frame a reply must be: AppendResponseFrame over the reference body.
ByteBuffer ReferenceFrame(Status status, std::uint64_t request_id,
                          ByteSpan body, std::uint16_t flags = 0) {
  ResponseHeader h;
  h.status = status;
  h.request_id = request_id;
  h.flags = flags;
  ByteBuffer frame;
  AppendResponseFrame(frame, h, body);
  return frame;
}

template <typename T>
ByteBuffer ElementBytes(const std::vector<T>& values) {
  const ByteSpan bytes = std::as_bytes(std::span(values));
  return ByteBuffer(bytes.begin(), bytes.end());
}

template <typename T>
ByteBuffer CompressRequest(const std::vector<T>& data, const Params& p) {
  CompressSpec spec;
  spec.dtype = FloatTraits<T>::kTag;
  spec.mode = p.mode;
  spec.integrity = p.integrity ? 1 : 0;
  spec.block_size = p.block_size;
  spec.error_bound = p.error_bound;
  ByteBuffer body;
  AppendCompressSpec(body, spec);
  ByteWriter(body).WriteBytes(data.data(), data.size() * sizeof(T));
  return body;
}

class WireIdentity : public ::testing::Test {
 protected:
  /// Sends one request and returns the reply frame exactly as it arrived.
  ByteBuffer Exchange(Opcode op, ByteSpan body, std::uint64_t& id,
                      std::uint16_t flags = 0) {
    id = client_.Send(op, body, 0, flags);
    return ReadRawFrame(transport_);
  }

  ServeHarness harness_;
  MemoryTransport& transport_ = harness_.Connect();
  Client client_{transport_};
};

TEST_F(WireIdentity, PingEchoFrame) {
  const ByteBuffer body = {std::byte{9}, std::byte{8}, std::byte{7}};
  std::uint64_t id = 0;
  const ByteBuffer got = Exchange(Opcode::kPing, body, id);
  EXPECT_EQ(got, ReferenceFrame(Status::kOk, id, body));
}

TEST_F(WireIdentity, CompressFramesMatchInProcessStreams) {
  // Bodies larger than the 64 KiB pipe, so both directions block and
  // resume mid-frame.
  const std::vector<float> f32 = SineData(50000);
  std::vector<double> f64(30000);
  for (std::size_t i = 0; i < f64.size(); ++i) {
    f64[i] = std::cos(static_cast<double>(i) * 0.002) * 1e3;
  }
  Params integrity;
  integrity.integrity = true;
  std::uint64_t id = 0;

  ByteBuffer got = Exchange(Opcode::kCompress,
                            CompressRequest(f32, Params{}), id);
  EXPECT_EQ(got, ReferenceFrame(Status::kOk, id,
                                Compress<float>(f32, Params{})));
  got = Exchange(Opcode::kCompress, CompressRequest(f64, Params{}), id);
  EXPECT_EQ(got, ReferenceFrame(Status::kOk, id,
                                Compress<double>(f64, Params{})));
  got = Exchange(Opcode::kCompress, CompressRequest(f32, integrity), id);
  EXPECT_EQ(got, ReferenceFrame(Status::kOk, id,
                                Compress<float>(f32, integrity)));
}

TEST_F(WireIdentity, DecompressFramesMatchInProcessDecode) {
  const std::vector<float> f32 = SineData(50000);
  std::vector<double> f64(30000);
  for (std::size_t i = 0; i < f64.size(); ++i) {
    f64[i] = std::sin(static_cast<double>(i) * 0.003) * 50.0;
  }
  const ByteBuffer s32 = Compress<float>(f32, Params{});
  const ByteBuffer s64 = Compress<double>(f64, Params{});
  std::uint64_t id = 0;

  ByteBuffer got = Exchange(Opcode::kDecompress, s32, id);
  EXPECT_EQ(got, ReferenceFrame(Status::kOk, id,
                                ElementBytes(Decompress<float>(s32))));
  got = Exchange(Opcode::kDecompress, s64, id);
  EXPECT_EQ(got, ReferenceFrame(Status::kOk, id,
                                ElementBytes(Decompress<double>(s64))));
}

TEST_F(WireIdentity, QueryFrameIsReportThenTimestep) {
  const std::vector<float> t0 = SineData(20000);
  std::vector<float> t1 = t0;
  for (auto& v : t1) v *= 0.5f;
  const ByteBuffer container = BuildContainer(t0, t1);
  ByteBuffer body;
  AppendQuerySpec(body, QuerySpec{.field = 0, .timestep = 1});
  ByteWriter(body).WriteBytes(container.data(), container.size());

  ByteBuffer want;
  AppendReportAndData(
      want,
      "{\"type\":\"query\",\"num_fields\":1,\"field\":\"temperature\","
      "\"dtype\":\"float32\",\"timestep\":1,\"timesteps\":2,"
      "\"elements_per_timestep\":20000,\"chunks_per_timestep\":5}",
      ElementBytes(ContainerReader(container).DecompressTimestep<float>(0, 1)));
  std::uint64_t id = 0;
  const ByteBuffer got = Exchange(Opcode::kQuery, body, id);
  EXPECT_EQ(got, ReferenceFrame(Status::kOk, id, want));
}

TEST_F(WireIdentity, ErrorFramesCarryTheirJson) {
  // kBadRequest: a ragged element payload.
  ByteBuffer ragged;
  AppendCompressSpec(ragged, CompressSpec{});
  ragged.push_back(std::byte{0});
  std::uint64_t id = 0;
  ByteBuffer got = Exchange(Opcode::kCompress, ragged, id);
  EXPECT_EQ(got, ReferenceFrame(
                     Status::kBadRequest, id,
                     AsBytes(ErrorJson("raw payload is not a whole element "
                                       "count"))));

  // kCorrupt: a truncated stream under strict semantics carries the
  // decoder's own error text.
  const ByteBuffer stream = Compress<float>(SineData(5000), Params{});
  const ByteBuffer cut(stream.begin(),
                       stream.begin() +
                           static_cast<std::ptrdiff_t>(stream.size() / 2));
  std::string what;
  try {
    (void)Decompress<float>(cut);
  } catch (const Error& e) {
    what = e.what();
  }
  ASSERT_FALSE(what.empty());
  got = Exchange(Opcode::kDecompress, cut, id, kFlagNoDegrade);
  EXPECT_EQ(got, ReferenceFrame(Status::kCorrupt, id,
                                AsBytes(ErrorJson(what))));
}

}  // namespace
}  // namespace szx::serve
