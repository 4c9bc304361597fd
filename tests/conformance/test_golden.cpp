// Conformance tier: golden-stream corpus.
//
// The checked-in streams under tests/golden/ pin the on-disk format.  Any
// encoder or format change shows up here as a byte diff and must be
// regenerated on purpose with tools/szx_goldengen (see docs/testing.md).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

#include "testkit/fuzzer.hpp"
#include "testkit/golden.hpp"

namespace szx::testkit {
namespace {

class GoldenCorpus : public ::testing::TestWithParam<int> {
 protected:
  const GoldenCase& Case() const {
    return GoldenCases()[static_cast<std::size_t>(GetParam())];
  }
};

// Byte equality of the re-encoded stream plus error-bound conformance of
// the decoded golden file.
TEST_P(GoldenCorpus, EncoderAndDecoderMatchGoldenStream) {
  const auto why = VerifyGoldenCase(Case(), SZX_GOLDEN_DIR);
  ASSERT_FALSE(why.has_value()) << *why;
}

// Golden streams must satisfy every cross-decoder invariant (the same probe
// the fuzzer uses) -- catches decoder-side drift against old streams.
TEST_P(GoldenCorpus, GoldenStreamPassesCrossDecoderProbe) {
  const ByteBuffer stream =
      ReadFileBytes(std::string(SZX_GOLDEN_DIR) + "/" + Case().file);
  bool accepted = false;
  const auto why = Case().dtype == DataType::kFloat32
                       ? ProbeStream<float>(stream, &accepted)
                       : ProbeStream<double>(stream, &accepted);
  ASSERT_FALSE(why.has_value()) << Case().file << ": " << *why;
  EXPECT_TRUE(accepted) << Case().file << ": decoder rejects a golden stream";
}

std::string GoldenName(const ::testing::TestParamInfo<int>& info) {
  std::string name = GoldenCases()[static_cast<std::size_t>(info.param)].file;
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, GoldenCorpus,
    ::testing::Range(0, static_cast<int>(GoldenCases().size())), GoldenName);

// The manifest is regenerated in-process and must match the checked-in one:
// catches silently added/removed/renamed corpus files, not just content.
TEST(GoldenManifest, MatchesCheckedInManifest) {
  const ByteBuffer raw =
      ReadFileBytes(std::string(SZX_GOLDEN_DIR) + "/" + kManifestFile);
  // szx-lint: allow(reinterpret-cast) -- views manifest file bytes as text for comparison
  const std::string on_disk(reinterpret_cast<const char*>(raw.data()),
                            raw.size());
  EXPECT_EQ(on_disk, ManifestText())
      << "tests/golden/MANIFEST.txt is stale -- regenerate with szx_goldengen "
         "and review the diff";
}

// A scratch directory private to this process: the ctest reruns start the
// same binary concurrently, so a shared TempDir() file would race.
std::string PrivateTempDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "szx_golden_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

// Self-check: a corrupted golden file must be detected.  Writes a mutated
// copy of the corpus into a temp dir and requires VerifyGoldenCase to flag
// it -- the demonstration that byte-level drift cannot pass silently.
TEST(GoldenSelfCheck, MutatedGoldenStreamIsDetected) {
  const GoldenCase& c = GoldenCases().front();
  ByteBuffer bytes = ReadFileBytes(std::string(SZX_GOLDEN_DIR) + "/" + c.file);
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  const std::string dir = PrivateTempDir("mutated");
  WriteFileBytes(dir + "/" + c.file, bytes);
  const auto why = VerifyGoldenCase(c, dir);
  ASSERT_TRUE(why.has_value())
      << "a flipped byte in " << c.file << " went undetected";
  EXPECT_NE(why->find("diverges"), std::string::npos) << *why;
  std::filesystem::remove_all(dir);
}

TEST(GoldenSelfCheck, TruncatedGoldenStreamIsDetected) {
  const GoldenCase& c = GoldenCases().front();
  ByteBuffer bytes = ReadFileBytes(std::string(SZX_GOLDEN_DIR) + "/" + c.file);
  bytes.resize(bytes.size() - 1);  // szx-overwrite: a shrink by one byte
  const std::string dir = PrivateTempDir("truncated");
  WriteFileBytes(dir + "/" + c.file, bytes);
  EXPECT_TRUE(VerifyGoldenCase(c, dir).has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace szx::testkit
