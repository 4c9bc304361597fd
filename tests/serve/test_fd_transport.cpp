// FdTransport contract tests over real socket fds (AF_UNIX socketpair).
// The load-bearing property is the Transport blocking contract
// (src/serve/transport.hpp): Close() must wake a thread parked in a
// blocking Read -- the server's Stop() and write-poison paths depend on it
// -- and must be idempotent and safe to race against Read/Write.  A bare
// ::close would NOT provide this (a closed fd does not unblock a
// concurrent ::read on Linux) and would free the fd number while pool
// workers may still write; the shutdown-then-close-in-destructor design
// under test here is the fix.
//
// WriteParts is the gather write every frame leaves by; it must put the
// exact concatenation of its parts on the wire even when writev stops
// short (a signal or a send timeout can cut it at any byte).
#include "serve_net.hpp"

#include <pthread.h>
#include <sys/socket.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace szx::servenet {
namespace {

class FdTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A Write against a shut-down peer must surface as TransportError,
    // not SIGPIPE (the daemon ignores SIGPIPE for the same reason).
    std::signal(SIGPIPE, SIG_IGN);
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }

  int fds_[2] = {-1, -1};
};

TEST_F(FdTransportTest, RoundTripsBytes) {
  FdTransport a(fds_[0]);
  FdTransport b(fds_[1]);
  const std::array<std::byte, 5> out = {std::byte{1}, std::byte{2},
                                        std::byte{3}, std::byte{4},
                                        std::byte{5}};
  a.Write(ByteSpan(out));
  std::array<std::byte, 5> in{};
  ASSERT_EQ(b.Read(in), in.size());
  EXPECT_EQ(in, out);
}

TEST_F(FdTransportTest, CloseWakesBlockedReaderWithEof) {
  FdTransport a(fds_[0]);
  FdTransport b(fds_[1]);

  std::atomic<bool> woke{false};
  std::size_t got = 99;
  std::thread reader([&] {
    std::array<std::byte, 16> buf{};
    got = a.Read(buf);  // parks: the peer never writes
    // szx-mo: relaxed -- standalone progress flag; `got` is published by
    // the join, not by this store.
    woke.store(true, std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // szx-mo: relaxed -- heuristic not-yet-woken probe, no data read off it.
  EXPECT_FALSE(woke.load(std::memory_order_relaxed));

  a.Close();  // must unblock the reader as orderly EOF, not hang or throw
  reader.join();
  // szx-mo: relaxed -- the join above already ordered the reader's writes.
  EXPECT_TRUE(woke.load(std::memory_order_relaxed));
  EXPECT_EQ(got, 0u);

  a.Close();  // idempotent
}

TEST_F(FdTransportTest, CloseFailsLocalWritesAndEofsThePeer) {
  FdTransport a(fds_[0]);
  FdTransport b(fds_[1]);
  a.Close();
  const std::array<std::byte, 4> data{};
  EXPECT_THROW(a.Write(ByteSpan(data)), serve::TransportError);
  std::array<std::byte, 4> buf{};
  EXPECT_EQ(b.Read(buf), 0u);  // peer sees EOF once the buffer drains
}

TEST_F(FdTransportTest, PeerCloseUnblocksLocalReader) {
  FdTransport a(fds_[0]);
  auto b = std::make_unique<FdTransport>(fds_[1]);

  std::size_t got = 99;
  std::thread reader([&] {
    std::array<std::byte, 16> buf{};
    got = a.Read(buf);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b->Close();
  reader.join();
  EXPECT_EQ(got, 0u);
}

extern "C" void IgnoreSignal(int) {}

TEST_F(FdTransportTest, WritePartsResumesPartialWritesInOrder) {
  // A tiny send buffer holds a few KiB; the big part is many times that,
  // so the write parks repeatedly while the peer drains it.  Signals
  // without SA_RESTART interrupt the parked writev, which then returns
  // the bytes it had moved so far -- the partial write WriteParts resumes.
  const int small = 4096;
  ASSERT_EQ(::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::getsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);

  std::vector<std::byte> big(static_cast<std::size_t>(sndbuf) * 64);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>((i * 131 + i / 251) & 0xFF);
  }
  const std::array<std::byte, 3> head = {std::byte{0xA1}, std::byte{0xA2},
                                         std::byte{0xA3}};
  const std::array<std::byte, 1> mid = {std::byte{0x5C}};
  const std::array<std::byte, 8> tail = {std::byte{1}, std::byte{2},
                                         std::byte{3}, std::byte{4},
                                         std::byte{5}, std::byte{6},
                                         std::byte{7}, std::byte{8}};
  const std::array<ByteSpan, 7> parts = {ByteSpan{}, ByteSpan(head),
                                         ByteSpan(big), ByteSpan{},
                                         ByteSpan(mid), ByteSpan(tail),
                                         ByteSpan{}};
  std::vector<std::byte> want;
  for (const ByteSpan p : parts) want.insert(want.end(), p.begin(), p.end());

  struct sigaction act {};
  struct sigaction old {};
  act.sa_handler = IgnoreSignal;  // no SA_RESTART: writev returns early
  ASSERT_EQ(::sigaction(SIGUSR1, &act, &old), 0);

  FdTransport a(fds_[0]);
  FdTransport b(fds_[1]);
  std::vector<std::byte> got;
  std::thread reader([&] {
    std::array<std::byte, 1000> buf{};
    for (;;) {
      const std::size_t n = b.Read(buf);
      if (n == 0) return;
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  std::atomic<bool> done{false};
  const pthread_t writer_thread = ::pthread_self();
  std::thread interrupter([&] {
    // szx-mo: acquire pairs with the release store after WriteParts; no
    // data is read off the flag, it only ends the signal loop.
    while (!done.load(std::memory_order_acquire)) {
      (void)::pthread_kill(writer_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  a.WriteParts(parts);
  // szx-mo: release pairs with the interrupter's acquire load.
  done.store(true, std::memory_order_release);
  interrupter.join();
  a.ShutdownWrite();
  reader.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);

  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
}

TEST_F(FdTransportTest, WritePartsOfOnlyEmptyPartsSendsNothing) {
  FdTransport a(fds_[0]);
  FdTransport b(fds_[1]);
  const std::array<ByteSpan, 2> empty = {ByteSpan{}, ByteSpan{}};
  a.WriteParts(empty);
  a.WriteParts({});
  a.ShutdownWrite();
  std::array<std::byte, 4> buf{};
  EXPECT_EQ(b.Read(buf), 0u);
}

}  // namespace
}  // namespace szx::servenet
