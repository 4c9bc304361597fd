// POSIX TCP plumbing for szx-serve -- deliberately OUTSIDE src/serve/ (a
// lint strict zone): sockaddr juggling and fd ownership live here at the
// tool boundary, while the protocol/server logic stays transport-agnostic.
//
// Everything retries EINTR and treats short reads/writes as the normal
// case.
#ifndef SZX_TOOLS_SERVE_NET_HPP_
#define SZX_TOOLS_SERVE_NET_HPP_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "serve/transport.hpp"

namespace szx::servenet {

/// Blocking socket transport: one fd, owned.  Read returns what the kernel
/// has (short reads are normal); WriteParts (and Write, its one-part case)
/// is one writev loop that resumes until every byte is accepted.
///
/// Close() only shuts the socket down (SHUT_RDWR): that is what actually
/// wakes a thread parked in a blocking read/write (a bare ::close on a
/// socket fd does NOT unblock concurrent readers on Linux), and it keeps
/// the fd number reserved so a response can never land on a recycled fd.
/// The ::close itself happens in the destructor, once the owning
/// connection thread has drained its jobs and no other thread can touch
/// the transport.
class FdTransport final : public serve::Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override {
    Close();
    if (fd_ >= 0) ::close(fd_);
  }
  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

  std::size_t Read(std::span<std::byte> out) override {
    if (out.empty()) return 0;
    for (;;) {
      const ssize_t n = ::read(fd_, out.data(), out.size());
      if (n >= 0) return static_cast<std::size_t>(n);  // 0 = orderly EOF
      if (errno == EINTR) continue;
      throw serve::TransportError(std::string("socket read: ") +
                                  std::strerror(errno));
    }
  }

  void Write(ByteSpan data) override { WriteParts(std::span(&data, 1)); }

  /// writev of every part, resumed after a partial write (a signal or a
  /// send timeout can cut one short at any byte, even inside a part).
  void WriteParts(std::span<const ByteSpan> parts) override {
    std::size_t part = 0;  // first unsent byte is parts[part][off]
    std::size_t off = 0;
    int stalls = 0;
    for (;;) {
      while (part < parts.size() && off == parts[part].size()) {
        ++part;
        off = 0;
      }
      if (part == parts.size()) return;
      std::array<iovec, kMaxIov> iov{};
      int n = 0;
      for (std::size_t i = part; i < parts.size() && n < kMaxIov; ++i) {
        const ByteSpan rest = parts[i].subspan(i == part ? off : 0);
        if (rest.empty()) continue;
        iov[n].iov_base = const_cast<std::byte*>(rest.data());
        iov[n].iov_len = rest.size();
        ++n;
      }
      const ssize_t sent = ::writev(fd_, iov.data(), n);
      if (sent > 0) {
        stalls = 0;
        for (auto left = static_cast<std::size_t>(sent); left > 0;) {
          const std::size_t step = std::min(left, parts[part].size() - off);
          left -= step;
          off += step;
          if (off == parts[part].size()) {
            ++part;
            off = 0;
          }
        }
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      if (sent == 0) {
        // POSIX permits a zero-byte result that is not an error; errno is
        // stale then, so retry under a bounded budget (iosim's WriteFull
        // discipline) instead of reporting a meaningless strerror.
        if (++stalls > kMaxWriteStalls) {
          throw serve::TransportError(
              "socket write: made no progress past the retry budget");
        }
        continue;
      }
      throw serve::TransportError(std::string("socket write: ") +
                                  std::strerror(errno));
    }
  }

  void ShutdownWrite() override { ::shutdown(fd_, SHUT_WR); }

  void Close() override {
    // szx-mo: acq_rel exchange -- sole ordering point between concurrent
    // closers (connection thread, pool workers, Server::Stop); exactly one
    // caller performs the shutdown, the rest see it already done.
    if (!shut_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);  // blocked reads return 0, writes fail
    }
  }

 private:
  static constexpr int kMaxWriteStalls = 64;
  static constexpr int kMaxIov = 16;  ///< parts per writev; more loop

  const int fd_;  ///< immutable for the object's lifetime: no close/IO race
  std::atomic<bool> shut_{false};
};

/// Binds and listens on 127.0.0.1:port (port 0 = kernel-assigned); returns
/// the fd and stores the actual port.  Returns -1 on failure with errno set.
inline int ListenTcp(std::uint16_t port, std::uint16_t& actual_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // szx-lint: allow(reinterpret-cast) -- the BSD socket ABI types bind/accept/getsockname against the sockaddr base struct
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  // szx-lint: allow(reinterpret-cast) -- the BSD socket ABI types bind/accept/getsockname against the sockaddr base struct
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return -1;
  }
  actual_port = ntohs(addr.sin_port);
  return fd;
}

/// Accepts one connection, retrying EINTR.  Returns -1 on failure.
inline int AcceptConn(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// Connects to host:port (numeric IPv4, e.g. "127.0.0.1").  Returns -1 on
/// failure with errno set.
inline int ConnectTcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    return -1;
  }
  for (;;) {
    // szx-lint: allow(reinterpret-cast) -- the BSD socket ABI types bind/accept/getsockname against the sockaddr base struct
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    return -1;
  }
}

}  // namespace szx::servenet

#endif  // SZX_TOOLS_SERVE_NET_HPP_
