// serve_mixed: clients of the szx_serve daemon over real loopback TCP.
// The serve layers (framing, checksums, socket I/O, admission) do most of
// the work, and a codec gain can be eaten by queueing.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/executor.hpp"
#include "data/datasets.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve_net.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using szx::serve::Opcode;
using szx::serve::Status;

constexpr int kConns = 2;
// One daemon worker, not two: the two connections then queue for it, and
// fewer threads compete for the host's vCPUs.  With two workers the
// latencies followed the hypervisor's steal time run to run (README.md).
constexpr int kWorkers = 1;
constexpr std::uint32_t kDeadlineMs = 10000;
// ~125 requests a second: p90 per 1-second window.
constexpr double kTailPct = 90;
constexpr double kTailWindowS = 1;
constexpr std::array<Opcode, 3> kOps = {Opcode::kCompress, Opcode::kDecompress,
                                        Opcode::kQuery};
constexpr std::array<const char*, 3> kOpSpan = {
    "serve_mixed.compress", "serve_mixed.decompress", "serve_mixed.query"};
// No recorded traffic says which requests are common, so none is favoured:
// opcodes are drawn uniformly, and body sizes uniformly from kClasses sizes
// spaced evenly in log between 1e5 and 1e6 elements (1e3 to 1e4 at tiny
// size).
constexpr std::size_t kClasses = 10;

// ---- daemon process ------------------------------------------------------

class Daemon {
 public:
  explicit Daemon(const std::string& bin) {
    const std::string workers = std::to_string(kWorkers);
    const char* argv[] = {bin.c_str(), "--port",        "0",
                          "--workers", workers.c_str(), nullptr};
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    // vfork, not fork: a fork copies this process's page tables, which
    // costs in proportion to the benchmark's inputs and would count inside
    // setup_s as the daemon's start.
    const pid_t pid = ::vfork();
    if (pid < 0) throw std::runtime_error("vfork failed");
    if (pid == 0) {
      // Child: plain system calls only until exec.  The death signal keeps
      // a killed benchmark from leaving the daemon behind.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(bin.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    pid_ = pid;
    ::close(fds[1]);
    const int out = fds[0];
    std::string line;
    char ch = 0;
    pollfd p{out, POLLIN, 0};
    while (line.find('\n') == std::string::npos) {
      if (::poll(&p, 1, 10000) <= 0 || ::read(out, &ch, 1) != 1) break;
      line += ch;
    }
    ::close(out);
    const auto at = line.rfind(' ');
    if (line.rfind("szx-serve listening on", 0) != 0 || at == std::string::npos) {
      Stop();
      throw std::runtime_error("szx_serve did not report its port");
    }
    port_ = static_cast<std::uint16_t>(std::stoul(line.substr(at + 1)));
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  double PeakRssMb() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (f >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        f >> kb;
        return kb / 1024.0;
      }
      f.ignore(1 << 10, '\n');
    }
    return 0;
  }

  // SIGTERM drains gracefully; a daemon that will not exit is killed.
  // Either way the child is reaped before this returns.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

struct Conn {
  std::unique_ptr<szx::servenet::FdTransport> transport;
  std::unique_ptr<szx::serve::Client> client;
};

Conn Connect(std::uint16_t port) {
  const int fd = szx::servenet::ConnectTcp("127.0.0.1", port);
  if (fd < 0) throw std::runtime_error("cannot connect to szx_serve");
  Conn c;
  c.transport = std::make_unique<szx::servenet::FdTransport>(fd);
  c.client = std::make_unique<szx::serve::Client>(*c.transport);
  return c;
}

// ---- inputs --------------------------------------------------------------

struct SizeClass {
  std::size_t n = 0;
  std::vector<float> raw;
  szx::ByteBuffer compress_body;  ///< CompressSpec | raw elements
  szx::ByteBuffer stream;         ///< expected kCompress reply
  szx::ByteBuffer decoded;        ///< expected kDecompress reply
  szx::ByteBuffer query_body;     ///< QuerySpec | container
  szx::ByteBuffer query_data;     ///< expected kQuery data
  szx::ByteBuffer container;
  std::array<double, 3> codec_ms{};  ///< in-process codec time per op
};

szx::ByteBuffer Bytes(std::span<const float> v) {
  szx::ByteBuffer b(v.size_bytes());
  std::memcpy(b.data(), v.data(), v.size_bytes());
  return b;
}

// Each class is cut from one of three preset fields (each >= 1e6
// elements), rotated by a seeded offset, so the seed moves block boundaries
// without changing what the field is.  References come from the in-process
// codec, which the daemon must match byte for byte.
std::vector<SizeClass> MakeServeSet(const Options& opts, Result& r) {
  using szx::data::App;
  const bool tiny = opts.size == Size::kTiny;
  const std::vector<float> presets[] = {
      szx::data::GenerateField(App::kNyx, "temperature", tiny ? 0.2 : 0.8)
          .values,
      szx::data::GenerateField(App::kMiranda, "pressure", tiny ? 0.2 : 0.6)
          .values,
      szx::data::GenerateField(App::kHurricane, "U", tiny ? 0.2 : 0.7).values};
  const double smallest = tiny ? 1e3 : 1e5;
  Rng rng(opts.seed ^ 0x632be59bd9b4e019ull);
  const szx::Params params;
  std::vector<SizeClass> set(kClasses);
  for (std::size_t k = 0; k < kClasses; ++k) {
    SizeClass& c = set[k];
    c.n = static_cast<std::size_t>(std::lround(
        smallest * std::pow(10.0, static_cast<double>(k) / (kClasses - 1))));
    const std::vector<float>& field = presets[k % std::size(presets)];
    const std::size_t off = rng.Below(field.size());
    c.raw.resize(c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      c.raw[i] = field[(off + i) % field.size()];
    }
    const double bound = szx::ResolveAbsoluteBound<float>(c.raw, params);

    szx::serve::CompressSpec spec;  // f32, REL 1e-3, block 128
    szx::serve::AppendCompressSpec(c.compress_body, spec);
    const szx::ByteBuffer raw = Bytes(c.raw);
    c.compress_body.insert(c.compress_body.end(), raw.begin(), raw.end());
    c.stream = szx::Compress<float>(c.raw, params);
    const std::vector<float> dec = szx::Decompress<float>(c.stream);
    if (ExceedsBound(c.raw, dec, bound)) r.Fail("serve reference decode");
    c.decoded = Bytes(dec);

    // Two timesteps; the query reads the second, a seeded rotation.
    std::vector<float> t1(c.n);
    std::rotate_copy(c.raw.begin(),
                     c.raw.begin() + static_cast<std::ptrdiff_t>(rng.Below(c.n)),
                     c.raw.end(), t1.begin());
    szx::ContainerWriter w;
    szx::ContainerWriter::FieldSpec fs;
    fs.name = "field";
    fs.params = params;
    fs.elements_per_timestep = c.n;
    (void)w.AddField(fs, szx::DataType::kFloat32);
    w.AppendTimestep<float>(0, c.raw);
    w.AppendTimestep<float>(0, t1);
    c.container = w.Finish();
    szx::serve::QuerySpec q;
    q.field = 0;
    q.timestep = 1;
    szx::serve::AppendQuerySpec(c.query_body, q);
    c.query_body.insert(c.query_body.end(), c.container.begin(),
                        c.container.end());
    const std::vector<float> qd =
        szx::ContainerReader(c.container).DecompressTimestep<float>(0, 1);
    if (ExceedsBound(t1, qd, szx::ResolveAbsoluteBound<float>(t1, params))) {
      r.Fail("serve reference query decode");
    }
    c.query_data = Bytes(qd);
  }
  return set;
}

const szx::ByteBuffer& Body(const SizeClass& c, std::size_t op) {
  return op == 0 ? c.compress_body : op == 1 ? c.stream : c.query_body;
}

bool ReplyMatches(const SizeClass& c, std::size_t op, szx::ByteSpan body) {
  const auto same = [&](const szx::ByteBuffer& want, szx::ByteSpan got) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), want.size()) == 0;
  };
  if (op == 0) return same(c.stream, body);
  if (op == 1) return same(c.decoded, body);
  return same(c.query_data, szx::serve::SplitReportAndData(body).data);
}

// ---- the closed loop -----------------------------------------------------

struct ServeStats {
  std::vector<double> lat_ms;
  std::vector<double> at_s;  ///< when each reply arrived, from loop start
  /// Latencies by [op][size class].
  std::array<std::array<std::vector<double>, kClasses>, 3> by_op_size;
  std::vector<double> send_ms;
  std::vector<double> overhead_ms;
  std::uint64_t attempted = 0, failed = 0, busy = 0, deadline = 0;
};

void Merge(ServeStats& into, const ServeStats& from) {
  auto app = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  app(into.lat_ms, from.lat_ms);
  app(into.at_s, from.at_s);
  for (std::size_t o = 0; o < 3; ++o) {
    for (std::size_t k = 0; k < kClasses; ++k) {
      app(into.by_op_size[o][k], from.by_op_size[o][k]);
    }
  }
  app(into.send_ms, from.send_ms);
  app(into.overhead_ms, from.overhead_ms);
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.busy += from.busy;
  into.deadline += from.deadline;
}

// Runs the machine controls between requests: each connection parks before
// its next request while they run, so the probes never share the host with
// a request in flight.
class ControlGate {
 public:
  /// A connection, between two requests.
  void Between() {
    std::unique_lock<std::mutex> lk(m_);
    if (!want_) return;
    ++parked_;
    cv_.notify_all();
    const std::uint64_t gen = gen_;
    cv_.wait(lk, [&] { return gen_ != gen; });
  }
  /// A connection whose loop has ended.
  void Leave() {
    std::lock_guard<std::mutex> lk(m_);
    ++left_;
    cv_.notify_all();
  }
  /// The controller: waits until every connection is parked or gone, runs
  /// the controls, then releases the connections.
  void Run(Controls& controls) {
    std::unique_lock<std::mutex> lk(m_);
    want_ = true;
    cv_.wait(lk, [&] { return parked_ + left_ == kConns; });
    controls.RunNow();
    want_ = false;
    parked_ = 0;
    ++gen_;
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool want_ = false;
  int parked_ = 0;
  int left_ = 0;
  std::uint64_t gen_ = 0;
};

// Each caller waits for its reply before sending the next request.
void ConnLoop(szx::serve::Client& client, const std::vector<SizeClass>& set,
              std::uint64_t seed, Clock::time_point start,
              Clock::time_point deadline, ControlGate& gate, ServeStats& st) {
  Rng rng(seed);
  try {
    while (Clock::now() < deadline) {
      gate.Between();
      const std::size_t op = rng.Below(kOps.size());
      const std::size_t k = rng.Below(set.size());
      const SizeClass& c = set[k];
      trace::Scope root(kOpSpan[op], trace::NewRequest());
      Clock::time_point t0, t1, t2;
      std::optional<szx::serve::ClientResponse> rsp;
      {
        trace::Scope span("serve.Client::Send");
        t0 = Clock::now();
        (void)client.Send(kOps[op], Body(c, op), kDeadlineMs);
        t1 = Clock::now();
      }
      {
        trace::Scope span("serve.Client::Receive");
        rsp = client.Receive();
        t2 = Clock::now();
      }
      trace::Scope span("bench.verify");
      ++st.attempted;
      if (!rsp.has_value()) {
        ++st.failed;
        break;
      }
      const Status status = rsp->header.status;
      if (status == Status::kBusy) ++st.busy;
      if (status == Status::kDeadlineExceeded) ++st.deadline;
      if (status != Status::kOk || !rsp->body_checksum_ok ||
          !ReplyMatches(c, op, rsp->body)) {
        ++st.failed;
      }
      const double ms = Ms(t2 - t0);
      st.lat_ms.push_back(ms);
      st.at_s.push_back(Sec(t2 - start));
      st.by_op_size[op][k].push_back(ms);
      st.send_ms.push_back(Ms(t1 - t0));
      st.overhead_ms.push_back(ms - c.codec_ms[op]);
    }
  } catch (const std::exception& e) {
    ++st.attempted;
    ++st.failed;
    std::fprintf(stderr, "perfbench: serve connection failed: %s\n", e.what());
  }
  gate.Leave();
}

void RunConns(std::array<Conn, kConns>& conns, const std::vector<SizeClass>& set,
              std::uint64_t seed, Clock::duration budget, Controls& controls,
              ServeStats& out) {
  const auto start = Clock::now();
  const auto deadline = start + budget;
  std::array<ServeStats, kConns> per;
  ControlGate gate;
  std::vector<std::thread> threads;
  for (int i = 0; i < kConns; ++i) {
    threads.emplace_back([&, i] {
      ConnLoop(*conns[i].client, set, seed * kConns + i + 1, start, deadline,
               gate, per[i]);
    });
  }
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (controls.Due() && Clock::now() < deadline) gate.Run(controls);
  }
  for (auto& t : threads) t.join();
  for (const auto& p : per) Merge(out, p);
}

struct Session {
  std::unique_ptr<Daemon> daemon;
  std::array<Conn, kConns> conns;

  // Connections first, then stop and reap the daemon.
  void Close() {
    for (auto& c : conns) c = Conn{};
    daemon.reset();
  }
  ~Session() { Close(); }
};

// The program's set-up: daemon spawn until the first kOk ping on every
// connection.
double StartSession(Session& s) {
  const auto t0 = Clock::now();
  s.daemon = std::make_unique<Daemon>(SZX_SERVE_BIN);
  for (auto& c : s.conns) {
    c = Connect(s.daemon->port());
    const auto rsp = c.client->Call(Opcode::kPing, {});
    if (rsp.header.status != Status::kOk) {
      throw std::runtime_error("szx_serve ping failed");
    }
  }
  return Sec(Clock::now() - t0);
}

// In-process codec time for the same bodies, on the calls the daemon's
// jobs make: the base of serve.server_overhead_ms.
void MeasureCodec(std::vector<SizeClass>& set) {
  const szx::Params params;
  szx::ScratchArena arena;
  for (SizeClass& c : set) {
    std::vector<double> ms[3];
    for (int i = 0; i < 15; ++i) {
      auto t0 = Clock::now();
      (void)szx::CompressInto<float>(c.raw, params, arena);
      ms[0].push_back(Ms(Clock::now() - t0));
      t0 = Clock::now();
      (void)szx::Decompress<float>(c.stream);
      ms[1].push_back(Ms(Clock::now() - t0));
      t0 = Clock::now();
      const szx::ContainerReader reader(c.container);
      (void)reader.DecompressTimestep<float>(0, 1);
      ms[2].push_back(Ms(Clock::now() - t0));
    }
    for (int o = 0; o < 3; ++o) c.codec_ms[o] = Median(ms[o]);
  }
}

void ServeLayerMetrics(const std::vector<SizeClass>& set, const ServeStats& st,
                       Result& r) {
  // Checksum and framing on the largest and the middle body.
  const szx::ByteBuffer& big = set.back().compress_body;
  std::vector<double> ck_ms, frame_us;
  std::uint64_t sink = 0;
  for (int i = 0; i < 30; ++i) {
    const auto t0 = Clock::now();
    sink += szx::serve::BodyChecksum(big);
    ck_ms.push_back(Ms(Clock::now() - t0));
  }
  szx::ByteBuffer frame;
  for (int i = 0; i < 100; ++i) {
    frame.clear();
    const auto t0 = Clock::now();
    szx::serve::RequestHeader h;
    h.opcode = Opcode::kCompress;
    h.request_id = static_cast<std::uint64_t>(i);
    szx::serve::AppendRequestFrame(frame, h, set[1].compress_body);
    sink += szx::serve::ParseRequestHeader(frame).body_bytes;
    frame_us.push_back(Ms(Clock::now() - t0) * 1e3);
  }
  if (sink == 0) r.Fail("serve probe sink");
  r.Set("serve.checksum_gbps",
        static_cast<double>(big.size()) / Median(ck_ms) / 1e6, "GB/s");
  r.Set("serve.frame_us", Median(frame_us), "us");
  r.Set("serve.send_ms", Median(st.send_ms), "ms");
  r.Set("serve.server_overhead_ms", Median(st.overhead_ms), "ms");
  const char* names[] = {"serve.p50_ms.compress", "serve.p50_ms.decompress",
                         "serve.p50_ms.query"};
  for (std::size_t o = 0; o < 3; ++o) {
    std::vector<double> v;
    for (const auto& k : st.by_op_size[o]) v.insert(v.end(), k.begin(), k.end());
    r.Set(names[o], Median(v), "ms");
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(1, st.attempted));
  r.Set("serve.busy_frac", static_cast<double>(st.busy) / n, "fraction");
  r.Set("serve.deadline_frac", static_cast<double>(st.deadline) / n,
        "fraction");
}

Clock::duration Budget(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

void ServeLayerBurst(const Options& opts, double seconds, Result& out) {
  trace::Scope root("probe.serve_burst", trace::NewRequest());
  std::vector<SizeClass> set = MakeServeSet(opts, out);
  MeasureCodec(set);
  Session s;
  (void)StartSession(s);
  Controls controls;
  ServeStats st;
  RunConns(s.conns, set, opts.seed ^ 0x5bd1e995ull, Budget(seconds), controls,
           st);
  out.attempted += st.attempted;
  out.failed += st.failed;
  ServeLayerMetrics(set, st, out);
}

Result RunServeMixed(const Options& opts) {
  Result r;
  std::vector<SizeClass> set = MakeServeSet(opts, r);
  if (opts.trace) MeasureCodec(set);

  Session s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 25; ++rep) {
    s.Close();
    setup_s.push_back(StartSession(s));
  }

  Controls controls;
  controls.RunNow();
  ServeStats all, untraced, traced;
  const CpuTimes cpu0 = ReadCpuTimes();
  double wall_s = 0;
  if (!opts.trace) {
    const auto t0 = Clock::now();
    RunConns(s.conns, set, opts.seed, Budget(opts.seconds), controls, all);
    wall_s = Sec(Clock::now() - t0);
  } else {
    for (int q = 0; q < 4; ++q) {
      trace::Enable(q % 2 == 1);
      ServeStats st;
      RunConns(s.conns, set, opts.seed + static_cast<std::uint64_t>(q),
               Budget(opts.seconds / 4), controls, st);
      trace::Enable(false);
      Merge(q % 2 == 1 ? traced : untraced, st);
      Merge(all, st);
    }
  }
  r.Note("cpu_steal_frac", StealFrac(cpu0, ReadCpuTimes()));
  const double daemon_rss_mb = s.daemon->PeakRssMb();
  s.Close();
  r.attempted = all.attempted;
  r.failed = all.failed;

  const Tail tail =
      WindowTail(all.at_s, all.lat_ms, opts.seconds, kTailWindowS, kTailPct);
  std::uint64_t in_bytes = 0;
  for (const auto& c : set) in_bytes += c.raw.size() * sizeof(float);
  r.Note("connections", kConns);
  r.Note("daemon_workers", kWorkers);
  r.Note("size_classes_elements",
         "[" + std::to_string(set.front().n) + "," + std::to_string(set.back().n) +
             "]");
  r.Note("input_bytes", static_cast<double>(in_bytes));
  r.Note("working_set_bytes", static_cast<double>(in_bytes));
  r.Note("loop_wall_s", wall_s);
  NoteTail(r, tail);
  r.Note("memcpy_gbps", controls.MemcpyGbps());
  r.Note("compute_probe_ms", controls.ComputeMs());
  std::string by = "{";
  for (std::size_t o = 0; o < kOps.size(); ++o) {
    for (std::size_t k = 0; k < set.size(); ++k) {
      const auto& v = all.by_op_size[o][k];
      if (by.size() > 1) by += ",";
      by += "\"" + std::string(szx::serve::OpcodeName(kOps[o])) + "/" +
            std::to_string(set[k].n) + "\":[" + JsonNumber(Median(v)) + "," +
            JsonNumber(Percentile(v, 0.9)) + "," + std::to_string(v.size()) +
            "]";
    }
  }
  r.Note("p50_p90_count_by_op_size", by + "}");

  if (!opts.trace) {
    // Throughputs at the per-size-class median latency of each opcode.
    // ops_per_s: kConns closed-loop callers at the mix-weighted median
    // latency (Little's law), which leaves out the clients' reply checks;
    // with a uniform mix that is the mean of the per-class medians.
    double c_bytes = 0, c_ms = 0, d_ms = 0, z_bytes = 0, all_ms = 0;
    for (std::size_t k = 0; k < set.size(); ++k) {
      c_bytes += static_cast<double>(set[k].raw.size() * sizeof(float));
      z_bytes += static_cast<double>(set[k].stream.size());
      c_ms += Median(all.by_op_size[0][k]);
      d_ms += Median(all.by_op_size[1][k]);
      for (std::size_t o = 0; o < kOps.size(); ++o) {
        all_ms += Median(all.by_op_size[o][k]);
      }
    }
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("compress_gbps", c_bytes / c_ms / 1e6, "GB/s");
    r.Set("decompress_gbps", c_bytes / d_ms / 1e6, "GB/s");
    r.Set("ratio", c_bytes / z_bytes, "x");
    r.Set("op_p50_ms", Median(all.lat_ms), "ms");
    r.Set("op_tail_ms", tail.value, "ms");
    const double cells = static_cast<double>(kOps.size() * set.size());
    r.Set("ops_per_s", kConns * 1e3 * cells / all_ms, "1/s");
    r.Set("peak_rss_mb", daemon_rss_mb, "MB");
    return r;
  }

  NoteTraceOverhead(Median(untraced.lat_ms), Median(traced.lat_ms), r);
  ServeLayerMetrics(set, all, r);
  LayerSuiteSpec spec;
  for (const auto& c : set) spec.core_fields.emplace_back(c.raw);
  spec.own_serve_loop = true;
  RunLayerSuite(opts, spec, r);
  r.Set("machine.memcpy_gbps", controls.MemcpyGbps(), "GB/s");
  r.Set("machine.compute_probe_ms", controls.ComputeMs(), "ms");
  FinishTrace(opts, r);
  return r;
}

}  // namespace pb
