#include "testkit/faulty_transport.hpp"

namespace szx::testkit {

FaultyTransport::FaultyTransport(serve::Transport& inner, FaultClass cls,
                                 std::uint64_t seed,
                                 std::uint32_t damage_every)
    : inner_(inner),
      cls_(cls),
      seed_(seed),
      damage_every_(damage_every == 0 ? 1 : damage_every) {}

std::size_t FaultyTransport::Read(std::span<std::byte> out) {
  return inner_.Read(out);
}

void FaultyTransport::Write(ByteSpan data) {
  const std::uint64_t k = writes_++;
  if (truncated_) {
    // The truncation already half-closed the stream; a real dead peer
    // writes nothing more.
    throw serve::TransportError("faulty-transport: write after truncation");
  }
  if (k % damage_every_ != 0) {
    inner_.Write(data);
    return;
  }
  ByteBuffer mutated(data.begin(), data.end());
  records_.push_back(InjectFault(mutated, cls_, seed_ + k));
  inner_.Write(mutated);
  if (cls_ == FaultClass::kTruncate) {
    truncated_ = true;
    inner_.ShutdownWrite();
  }
}

void FaultyTransport::WriteParts(std::span<const ByteSpan> parts) {
  ByteBuffer frame;
  for (const ByteSpan part : parts) {
    frame.insert(frame.end(), part.begin(), part.end());
  }
  Write(frame);
}

void FaultyTransport::ShutdownWrite() {
  if (!truncated_) inner_.ShutdownWrite();
}

void FaultyTransport::Close() { inner_.Close(); }

}  // namespace szx::testkit
