// Chaos wrapper over a serve Transport: injects the storage-fault classes
// of fault_injector.hpp into the byte stream a client writes, so the chaos
// suite can prove the server's degradation matrix (docs/serve.md) holds
// under wire damage, not just in-memory damage.
//
// Each Write (or WriteParts) call is treated as one unit of damage (the
// serve client writes whole frames, so a damaged write is a damaged frame).  The mapping keeps
// the injector's storage semantics on the wire:
//
//   kBitFlip / kZeroFill / kDuplicate  -> payload mutated in place, size
//       kept: framing survives, the body checksum fails, and the server
//       must answer with a typed error or a partial+report response.
//   kTruncate  -> the surviving prefix is written, then the write side
//       shuts down (peer died mid-frame): the server must treat the torn
//       frame as a connection-level failure without crashing or leaking.
//   kTornWrite -> bytes from a random offset zeroed, size kept (the tail
//       of the frame arrives as zeros -- header intact or not depending on
//       the offset; both must be survivable).
//
// Deterministic: write k mutates with seed `seed + k`, so any chaos
// failure replays from its printed (class, seed) pair.  Records of every
// injection are kept for assertions.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/transport.hpp"
#include "testkit/fault_injector.hpp"

namespace szx::testkit {

class FaultyTransport final : public serve::Transport {
 public:
  /// Damages every `damage_every`-th write (1 = all), starting with the
  /// first.  `inner` must outlive this wrapper.
  FaultyTransport(serve::Transport& inner, FaultClass cls, std::uint64_t seed,
                  std::uint32_t damage_every = 1);

  [[nodiscard]] std::size_t Read(std::span<std::byte> out) override;
  void Write(ByteSpan data) override;
  /// Gathers the parts into one Write, so a frame sent as a gather write is
  /// still damaged as one unit.
  void WriteParts(std::span<const ByteSpan> parts) override;
  void ShutdownWrite() override;
  void Close() override;

  /// Ground truth of every injection performed so far.
  [[nodiscard]] const std::vector<FaultRecord>& records() const {
    return records_;
  }

 private:
  serve::Transport& inner_;
  FaultClass cls_;
  std::uint64_t seed_;
  std::uint32_t damage_every_;
  std::uint64_t writes_ = 0;
  bool truncated_ = false;  ///< a kTruncate fired; stream is half-closed
  std::vector<FaultRecord> records_;
};

}  // namespace szx::testkit
