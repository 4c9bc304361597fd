// In-process service grid (BENCH_serve.json, schema szx-bench-serve-v1):
//   grid_serve --out=PATH [--smoke] [--force]
//
// An in-process serve::Server over MemoryTransport pairs (the real frame
// codec and admission path, no kernel sockets) driven by 1/2/4 concurrent
// client connections x compress and decompress jobs x 1/2/4 workers,
// reporting requests/s and payload GB/s per cell, with the conn_scaling
// series.
#include <exception>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

using namespace szx;
using bench::JsonWriter;
using bench::TimeTrimmed;
using bench::TrimmedTiming;

constexpr double kRelEb = 1e-3;

struct ServeRow {
  std::string bench;  // compress | decompress
  int connections;
  int workers;
  std::uint64_t requests;       // requests completed per timed rep
  std::uint64_t payload_bytes;  // uncompressed payload moved per rep
  TrimmedTiming timing;

  double Rps() const { return static_cast<double>(requests) / timing.mean_s; }
  double Gbps() const {
    return static_cast<double>(payload_bytes) / 1e9 / timing.mean_s;
  }
  void Write(JsonWriter& w) const {
    w.Field("bench", bench);
    w.Field("connections", connections);
    w.Field("workers", workers);
    w.Field("requests", requests);
    w.Field("payload_bytes", payload_bytes);
    bench::WriteTiming(w, timing);
    w.Field("rps", Rps());
    w.Field("gbps", Gbps());
  }
};

// One client connection: its own MemoryTransport pair and server-side
// connection thread, issuing `reqs` synchronous Calls; returns the last
// response body.  Every response must be kOk -- this is a throughput
// bench, shedding or degradation in the middle would silently time a
// different code path.
ByteBuffer RunClient(serve::Server& server, int reqs, serve::Opcode op,
                     const ByteBuffer& body) {
  serve::TransportPair pair = serve::MakeMemoryTransportPair();
  std::thread conn([&server, &pair] { server.ServeConnection(*pair.server); });
  bool ok = true;
  ByteBuffer last;
  try {
    serve::Client client(*pair.client);
    for (int r = 0; r < reqs && ok; ++r) {
      serve::ClientResponse rsp = client.Call(op, body);
      ok = rsp.header.status == serve::Status::kOk;
      last = std::move(rsp.body);
    }
  } catch (...) {
    pair.client->Close();
    conn.join();
    throw;
  }
  if (ok) {
    pair.client->ShutdownWrite();  // drain to EOF, not a hard close
  } else {
    pair.client->Close();
  }
  conn.join();
  if (!ok) throw std::runtime_error("serve grid: non-OK response");
  return last;
}

// One grid cell: `connections` concurrent clients.  A client's failure is
// forwarded out of its thread and rethrown once every client has joined.
TrimmedTiming TimeServeCell(serve::Server& server, int connections, int reqs,
                            serve::Opcode op, const ByteBuffer& body,
                            int reps) {
  return TimeTrimmed(reps, [&] {
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(connections));
    std::vector<std::thread> clients;
    clients.reserve(errors.size());
    for (std::exception_ptr& error : errors) {
      clients.emplace_back([&server, reqs, op, &body, &error] {
        try {
          RunClient(server, reqs, op, body);
        } catch (...) {
          error = std::current_exception();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bench::GridSpec spec{"szx-bench-serve-v1", 0.25, 0.01, 5};
  return bench::GridMain(argc, argv, spec, [](const bench::GridRun& run) {
    const int reqs_per_conn = run.smoke ? 2 : 8;
    const std::vector<float>& vf = run.field.values;
    const std::uint64_t raw_bytes = vf.size() * sizeof(float);

    // Request bodies: a compress job is spec + raw elements; a decompress
    // job is the compressed stream a compress job answers with.
    serve::CompressSpec cspec;
    cspec.error_bound = kRelEb;
    ByteBuffer compress_body;
    serve::AppendCompressSpec(compress_body, cspec);
    const auto raw = std::as_bytes(std::span<const float>(vf));
    compress_body.insert(compress_body.end(), raw.begin(), raw.end());

    ByteBuffer decompress_body;
    {
      serve::Server bootstrap;
      decompress_body =
          RunClient(bootstrap, 1, serve::Opcode::kCompress, compress_body);
    }

    struct OpCase {
      const char* name;
      serve::Opcode op;
      const ByteBuffer* body;
    };
    const OpCase cases[] = {
        {"compress", serve::Opcode::kCompress, &compress_body},
        {"decompress", serve::Opcode::kDecompress, &decompress_body},
    };

    std::vector<ServeRow> rows;
    for (const int workers : {1, 2, 4}) {
      serve::ServerConfig config;
      config.workers = workers;
      // Room for every client's synchronous window: the grid measures job
      // throughput, never the shed path (kBusy would be a different bench).
      config.queue_capacity = 64;
      serve::Server server(config);
      for (const int connections : {1, 2, 4}) {
        for (const OpCase& oc : cases) {
          const auto t = TimeServeCell(server, connections, reqs_per_conn,
                                       oc.op, *oc.body, run.reps);
          const auto total_reqs = static_cast<std::uint64_t>(connections) *
                                  static_cast<std::uint64_t>(reqs_per_conn);
          rows.push_back({oc.name, connections, workers, total_reqs,
                          total_reqs * raw_bytes, t});
        }
      }
    }

    bench::GridDoc doc;
    doc.field_extras = {{"raw_bytes", raw_bytes},
                        {"compressed_bytes", decompress_body.size()}};
    doc.body = [rows = std::move(rows), reqs_per_conn](JsonWriter& w) {
      w.Field("requests_per_connection", reqs_per_conn);
      w.Field("rel_eb", kRelEb);
      bench::WriteRows(w, "results", rows);
      // Throughput at N connections over the same cell at 1 connection --
      // how much service-level concurrency the admission path actually
      // converts into work instead of queueing.
      bench::WriteRatioSeries(
          w, "conn_scaling", rows,
          [](const ServeRow& r, const ServeRow& b) {
            return r.connections != 1 && b.connections == 1 &&
                   b.bench == r.bench && b.workers == r.workers;
          },
          [](JsonWriter& o, const ServeRow& r, const ServeRow& b) {
            o.Field("bench", r.bench);
            o.Field("connections", r.connections);
            o.Field("workers", r.workers);
            o.Field("speedup", r.Rps() / b.Rps());
          });
    };
    return doc;
  });
}
