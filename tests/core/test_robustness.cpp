// Fuzz-style robustness: systematic corruption and truncation sweeps over
// real compressed streams.  The decoder must never crash, hang, or read
// out of bounds -- every outcome is either a clean szx::Error or a decode
// (possibly of corrupt data; the core format trades checksums for speed,
// the hybrid wrapper and the v3 container add integrity).
#include <gtest/gtest.h>

#include "core/compressor.hpp"
#include "core/omp_codec.hpp"
#include "cusim/cusim_codec.hpp"
#include "../test_util.hpp"

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;
using testing::Rng;

ByteBuffer SampleStream(CommitSolution sol = CommitSolution::kC) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, 20000, 42);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  p.solution = sol;
  return Compress<float>(data, p);
}

// Every decode either throws szx::Error or succeeds; nothing else.  And a
// decode that succeeds must hand back exactly the element count the header
// declares -- a mismatch means the decoder dropped or invented elements.
template <typename Decode>
void MustNotCrash(ByteSpan stream, Decode&& decode) {
  std::size_t decoded = 0;
  try {
    decoded = decode(stream);
  } catch (const Error&) {
    return;  // Expected for detectable corruption.
  }
  ASSERT_EQ(decoded, PeekHeader(stream).num_elements);
}

TEST(Robustness, TruncationSweepSerial) {
  const ByteBuffer stream = SampleStream();
  // Every prefix length in a coarse sweep plus all near-boundary lengths.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < stream.size(); n += 97) lengths.push_back(n);
  for (std::size_t n = 0; n < 80 && n < stream.size(); ++n) {
    lengths.push_back(n);
    lengths.push_back(stream.size() - 1 - n);
  }
  for (const std::size_t n : lengths) {
    MustNotCrash(ByteSpan(stream.data(), n),
                 [](ByteSpan s) { return Decompress<float>(s).size(); });
  }
}

TEST(Robustness, SingleByteFlipSweep) {
  const ByteBuffer original = SampleStream();
  Rng rng(7);
  // Flip every header byte and a sample of body bytes.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < sizeof(Header); ++i) positions.push_back(i);
  for (int k = 0; k < 300; ++k) {
    positions.push_back(sizeof(Header) +
                        rng.Next() % (original.size() - sizeof(Header)));
  }
  for (const std::size_t pos : positions) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      ByteBuffer bad = original;
      bad[pos] ^= std::byte{flip};
      MustNotCrash(bad, [](ByteSpan s) { return Decompress<float>(s).size(); });
      MustNotCrash(bad, [](ByteSpan s) { return DecompressOmp<float>(s, 2).size(); });
      MustNotCrash(bad, [](ByteSpan s) { return cusim::DecompressCuda<float>(s).size(); });
    }
  }
}

TEST(Robustness, FlipSweepSolutionsAB) {
  for (const CommitSolution sol : {CommitSolution::kA, CommitSolution::kB}) {
    const ByteBuffer original = SampleStream(sol);
    Rng rng(9);
    for (int k = 0; k < 200; ++k) {
      ByteBuffer bad = original;
      bad[rng.Next() % bad.size()] ^= std::byte{0x42};
      MustNotCrash(bad, [](ByteSpan s) { return Decompress<float>(s).size(); });
    }
  }
}

TEST(Robustness, RandomGarbageInputs) {
  Rng rng(11);
  for (int k = 0; k < 200; ++k) {
    ByteBuffer junk(rng.Next() % 4096);  // szx-overwrite: filled below
    for (auto& b : junk) {
      b = std::byte{static_cast<std::uint8_t>(rng.Next() & 0xff)};
    }
    MustNotCrash(junk, [](ByteSpan s) { return Decompress<float>(s).size(); });
    MustNotCrash(junk, [](ByteSpan s) { return Decompress<double>(s).size(); });
  }
}

TEST(Robustness, GarbageWithValidMagic) {
  // Valid magic + random rest exercises the header validators.
  Rng rng(13);
  for (int k = 0; k < 200; ++k) {
    // szx-overwrite: the loop below writes every byte
    ByteBuffer junk(sizeof(Header) + rng.Next() % 2048);
    for (auto& b : junk) {
      b = std::byte{static_cast<std::uint8_t>(rng.Next() & 0xff)};
    }
    junk[0] = std::byte{'S'};
    junk[1] = std::byte{'Z'};
    junk[2] = std::byte{'X'};
    junk[3] = std::byte{'1'};
    junk[4] = std::byte{1};  // version
    MustNotCrash(junk, [](ByteSpan s) { return Decompress<float>(s).size(); });
    MustNotCrash(junk, [](ByteSpan s) { return DecompressOmp<float>(s, 2).size(); });
  }
}

TEST(Robustness, SwappedSections) {
  // Splice the payload of one stream onto the metadata of another.
  const auto a = SampleStream();
  const auto data2 = MakePattern<float>(Pattern::kUniformNoise, 20000, 99);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-2;
  const auto b = Compress<float>(data2, p);
  ByteBuffer spliced(a.begin(), a.begin() + a.size() / 2);
  spliced.insert(spliced.end(), b.begin() + b.size() / 2, b.end());
  MustNotCrash(spliced, [](ByteSpan s) { return Decompress<float>(s).size(); });
}

}  // namespace
}  // namespace szx
