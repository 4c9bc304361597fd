// szx_serve -- TCP daemon exposing the szx-serve job protocol
// (docs/serve.md) on a loopback socket.
//
//   szx_serve [--port N] [--workers N] [--queue N] [--window N]
//             [--max-body BYTES] [--no-degrade] [--max-conns N]
//
// Prints exactly one line `szx-serve listening on PORT` to stdout once the
// socket is bound (PORT is kernel-assigned when --port is 0 or omitted), so
// scripts and tests can parse the port without racing the bind.  SIGINT /
// SIGTERM trigger a graceful stop: in-flight jobs finish, parked
// connections are answered kShuttingDown, then the process exits 0.
//
// Exit codes: 0 clean shutdown, 2 usage error, 4 cannot bind/listen.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "serve/server.hpp"
#include "serve_net.hpp"

namespace {

using namespace szx;

// The signal handler must unblock accept().  It uses shutdown(2)
// (async-signal-safe per POSIX.1-2008), NOT close(2): shutdown wakes the
// blocked accept with EINVAL while keeping the fd number reserved, so main
// stays the one and only closer and a racing close can never hit an fd
// already recycled by a live connection socket.  volatile sig_atomic_t is
// the C signal idiom, not an atomics site -- no inter-thread ordering is
// built on it.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_listen_fd = -1;

extern "C" void HandleStopSignal(int) {
  g_stop = 1;
  const int fd = g_listen_fd;
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

[[noreturn]] void Usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: szx_serve [--port N] [--workers N] [--queue N]"
               " [--window N] [--max-body BYTES] [--no-degrade]"
               " [--max-conns N]\n"
               "exit codes: 0 clean shutdown, 2 usage, 4 cannot bind\n");
  std::exit(2);
}

struct DaemonArgs {
  std::uint16_t port = 0;
  std::uint64_t max_conns = 0;  // 0 = serve until a stop signal
  serve::ServerConfig config;
};

// Pins glibc malloc's two thresholds for the daemon's lifetime.  By
// default glibc raises its mmap threshold to the size of each large mapped
// block it frees and trims the heap top past twice that, so whether a
// multi-MB request body, its decoded copy and the response frame reuse
// heap pages or land in fresh zero-filled ones depends on the order of
// earlier requests.  Under a mixed closed loop of 0.4-4 MB bodies the
// daemon then took ~5 or ~230 page faults per request from one run to the
// next.  Fixed values keep every body up to 32 MiB (glibc's cap) in the
// heap, and a free top chunk stays mapped until it reaches twice that.
void PinMallocThresholds() {
#if defined(__GLIBC__)
  (void)::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  (void)::mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

DaemonArgs Parse(int argc, char** argv) {
  DaemonArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--port") {
      const long v = std::strtol(next(), nullptr, 10);
      if (v < 0 || v > 65535) Usage("--port must be 0..65535");
      a.port = static_cast<std::uint16_t>(v);
    } else if (arg == "--workers") {
      const long v = std::strtol(next(), nullptr, 10);
      if (v < 1) Usage("--workers must be >= 1");
      a.config.workers = static_cast<std::uint32_t>(v);
    } else if (arg == "--queue") {
      const long v = std::strtol(next(), nullptr, 10);
      if (v < 1) Usage("--queue must be >= 1");
      a.config.queue_capacity = static_cast<std::uint32_t>(v);
    } else if (arg == "--window") {
      const long v = std::strtol(next(), nullptr, 10);
      if (v < 1) Usage("--window must be >= 1");
      a.config.max_inflight_per_conn = static_cast<std::uint32_t>(v);
    } else if (arg == "--max-body") {
      const long long v = std::strtoll(next(), nullptr, 10);
      if (v < 1) Usage("--max-body must be >= 1");
      a.config.max_body_bytes = static_cast<std::uint64_t>(v);
    } else if (arg == "--no-degrade") {
      a.config.allow_degrade = false;
    } else if (arg == "--max-conns") {
      a.max_conns = std::strtoull(next(), nullptr, 10);
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const DaemonArgs a = Parse(argc, argv);
  PinMallocThresholds();

  std::uint16_t port = 0;
  const int listen_fd = servenet::ListenTcp(a.port, port);
  if (listen_fd < 0) {
    std::fprintf(stderr, "szx_serve: cannot listen on port %u: %s\n",
                 static_cast<unsigned>(a.port), std::strerror(errno));
    return 4;
  }
  g_listen_fd = listen_fd;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGPIPE, SIG_IGN);  // a dead peer is a TransportError, not death

  std::printf("szx-serve listening on %u\n", static_cast<unsigned>(port));
  std::fflush(stdout);

  serve::Server server(a.config);
  std::vector<std::thread> conns;
  std::uint64_t served = 0;
  while (a.max_conns == 0 || served < a.max_conns) {
    const int fd = servenet::AcceptConn(listen_fd);
    if (fd < 0) break;  // listen socket shut down by a signal (or fatal)
    ++served;
    conns.emplace_back([&server, fd] {
      servenet::FdTransport transport(fd);
      server.ServeConnection(transport);
    });
  }

  // Main is the sole closer of the listen fd.  Publish -1 first so a
  // handler firing from here on skips its shutdown() instead of touching
  // an fd number the kernel may be about to recycle.
  g_listen_fd = -1;
  ::close(listen_fd);

  // Signal stop: force-close live connections so the process exits
  // promptly.  --max-conns drain: let every accepted connection run to its
  // natural end before stopping the pool.
  const bool forced = g_stop != 0;
  if (forced) {
    server.Stop();
    for (std::thread& t : conns) t.join();
  } else {
    for (std::thread& t : conns) t.join();
    server.Stop();
  }
  const serve::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "szx_serve: served %llu connections, %llu requests "
               "(%llu ok, %llu partial, %llu shed)\n",
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.completed_ok),
               static_cast<unsigned long long>(stats.completed_partial),
               static_cast<unsigned long long>(stats.shed_busy));
  return 0;
}
