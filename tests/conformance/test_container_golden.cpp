// Container tier: pinned format-v3 containers.
//
// Each checked-in container under tests/golden/ must be byte-reproducible
// from its recipe at the environment-selected pool width (the reruns in
// tests/CMakeLists.txt sweep SZX_THREADS), every (field, timestep) must decode within
// its bound, and ROI probes must equal the full-decode slice bit-for-bit.
// The damaged cases freeze container-salvage semantics: a payload-region
// fault degrades only the chunks it touches.
#include <string>

#include <gtest/gtest.h>

#include "testkit/golden.hpp"

namespace szx::testkit {
namespace {

#ifndef SZX_GOLDEN_DIR
#error "SZX_GOLDEN_DIR must be defined by the build"
#endif

class ContainerCorpus : public ::testing::TestWithParam<int> {
 protected:
  const ContainerGoldenCase& Case() const {
    return ContainerGoldenCases()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(ContainerCorpus, WriterAndReaderMatchPinnedContainer) {
  const auto why = VerifyContainerGoldenCase(Case(), SZX_GOLDEN_DIR);
  ASSERT_FALSE(why.has_value()) << *why;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ContainerCorpus,
    ::testing::Range(0, static_cast<int>(ContainerGoldenCases().size())),
    [](const ::testing::TestParamInfo<int>& param) {
      std::string name =
          ContainerGoldenCases()[static_cast<std::size_t>(param.param)].file;
      for (char& ch : name) {
        if (ch == '.' || ch == '-') ch = '_';
      }
      return name;
    });

TEST(ContainerManifest, MatchesDisk) {
  const ByteBuffer pinned = ReadFileBytes(std::string(SZX_GOLDEN_DIR) + "/" +
                                          kContainerManifestFile);
  const std::string fresh = ContainerManifestText();
  const std::string on_disk(
      // szx-lint: allow(reinterpret-cast) -- checked-in manifest bytes back to text for comparison
      reinterpret_cast<const char*>(pinned.data()), pinned.size());
  EXPECT_EQ(fresh, on_disk)
      << "container manifest drifted -- regenerate with szx_goldengen";
}

TEST(DamagedContainer, EveryCaseVerifies) {
  for (const DamagedContainerGoldenCase& c : DamagedContainerGoldenCases()) {
    const auto err = VerifyDamagedContainerGoldenCase(c, SZX_GOLDEN_DIR);
    EXPECT_FALSE(err.has_value()) << *err;
  }
}

TEST(DamagedContainer, ManifestMatchesDisk) {
  const ByteBuffer pinned = ReadFileBytes(
      std::string(SZX_GOLDEN_DIR) + "/" + kDamagedContainerManifestFile);
  const std::string fresh = DamagedContainerManifestText();
  const std::string on_disk(
      // szx-lint: allow(reinterpret-cast) -- checked-in manifest bytes back to text for comparison
      reinterpret_cast<const char*>(pinned.data()), pinned.size());
  EXPECT_EQ(fresh, on_disk)
      << "damaged-container manifest drifted -- regenerate with szx_goldengen";
}

}  // namespace
}  // namespace szx::testkit
