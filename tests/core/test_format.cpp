// Stream format parsing and corruption rejection.
#include "core/format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/integrity.hpp"
#include "core/random_access.hpp"
#include "core/validate.hpp"
#include "resilience/salvage.hpp"
#include "testkit/golden.hpp"
#include "../test_util.hpp"

#ifndef SZX_GOLDEN_DIR
#error "SZX_GOLDEN_DIR must be defined by the build"
#endif

namespace szx {
namespace {

using testing::MakePattern;
using testing::Pattern;

ByteBuffer SampleStream(std::size_t n = 5000) {
  const auto data = MakePattern<float>(Pattern::kNoisySine, n, 8);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  return Compress<float>(data, p);
}

TEST(Format, HeaderSizeIsStable) {
  // The on-disk header is part of the format contract.
  EXPECT_EQ(sizeof(Header), 72u);
}

TEST(Format, ParseSectionsPartitionsWholeStream) {
  const ByteBuffer stream = SampleStream();
  const Sections<float> s = ParseSections<float>(stream);
  const Header& h = s.header;
  const std::uint64_t nnc = h.num_blocks - h.num_constant;
  const std::size_t expected = sizeof(Header) + (h.num_blocks + 7) / 8 +
                               h.num_constant * sizeof(float) + nnc +
                               nnc * sizeof(float) + nnc * 2 +
                               h.payload_bytes;
  EXPECT_EQ(expected, stream.size());
  EXPECT_EQ(s.payload.size(), h.payload_bytes);
}

TEST(Format, TypeBitsMatchSectionCounts) {
  const ByteBuffer stream = SampleStream();
  const Sections<float> s = ParseSections<float>(stream);
  std::uint64_t nc = 0;
  for (std::uint64_t k = 0; k < s.header.num_blocks; ++k) {
    nc += IsNonConstant(s.type_bits, k) ? 0 : 1;
  }
  EXPECT_EQ(nc, s.header.num_constant);
}

TEST(Format, SetAndTestNonConstantBits) {
  ByteBuffer bits(4, std::byte{0});
  SetNonConstant(bits.data(), 0);
  SetNonConstant(bits.data(), 9);
  SetNonConstant(bits.data(), 31);
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_EQ(IsNonConstant(bits, k), k == 0 || k == 9 || k == 31) << k;
  }
}

TEST(Format, RejectsVersionMismatch) {
  ByteBuffer stream = SampleStream();
  stream[4] = std::byte{99};  // version field
  EXPECT_THROW(ParseHeader(stream), Error);
}

TEST(Format, RejectsCorruptEnums) {
  {
    ByteBuffer stream = SampleStream();
    stream[5] = std::byte{7};  // dtype
    EXPECT_THROW(ParseHeader(stream), Error);
  }
  {
    ByteBuffer stream = SampleStream();
    stream[6] = std::byte{9};  // eb_mode
    EXPECT_THROW(ParseHeader(stream), Error);
  }
  {
    ByteBuffer stream = SampleStream();
    stream[7] = std::byte{5};  // solution
    EXPECT_THROW(ParseHeader(stream), Error);
  }
}

TEST(Format, RejectsInconsistentBlockCount) {
  ByteBuffer stream = SampleStream();
  Header h = ParseHeader(stream);
  h.num_blocks += 1;
  // szx-lint: allow(raw-memcpy) -- test forges a corrupt header in place
  std::memcpy(stream.data(), &h, sizeof(Header));
  EXPECT_THROW(ParseHeader(stream), Error);
}

TEST(Format, RejectsConstantCountOverflow) {
  ByteBuffer stream = SampleStream();
  Header h = ParseHeader(stream);
  h.num_constant = h.num_blocks + 1;
  // szx-lint: allow(raw-memcpy) -- test forges a corrupt header in place
  std::memcpy(stream.data(), &h, sizeof(Header));
  EXPECT_THROW(ParseHeader(stream), Error);
}

TEST(Format, CorruptZsizeCaughtOnDecode) {
  // Inflating a zsize makes the payload walk overrun; must throw, not crash.
  const auto data = MakePattern<float>(Pattern::kUniformNoise, 4096, 8);
  Params p;
  p.mode = ErrorBoundMode::kAbsolute;
  p.error_bound = 1e-3;
  ByteBuffer stream = Compress<float>(data, p);
  const Sections<float> s = ParseSections<float>(stream);
  ASSERT_GT(s.header.num_blocks - s.header.num_constant, 0u);
  // Locate the zsize section within the buffer and corrupt its first entry.
  const std::size_t zsize_off =
      static_cast<std::size_t>(s.ncb_zsize.data() - stream.data());
  const std::uint16_t big = 0xffff;
  // szx-lint: allow(raw-memcpy) -- test corrupts a zsize entry in place
  // szx-lint: allow(ptr-arith) -- same: deliberate in-place stream corruption
  std::memcpy(stream.data() + zsize_off, &big, 2);
  EXPECT_THROW(Decompress<float>(stream), Error);
}

TEST(Format, LoadAtHandlesUnalignedOffsets) {
  ByteBuffer raw(11, std::byte{0});
  const double v = 2.718281828;
  // szx-lint: allow(raw-memcpy) -- test plants an unaligned value to probe LoadAt
  // szx-lint: allow(ptr-arith) -- same: building the unaligned fixture
  std::memcpy(raw.data() + 3, &v, sizeof(double));
  // szx-lint: allow(ptr-arith) -- same: building the unaligned fixture
  ByteSpan section(raw.data() + 3, 8);
  EXPECT_EQ(LoadAt<double>(section, 0), v);
}

// ParseSections slices `stream` at exactly the FrameExtentsOf extents, and
// the frame ends where the integrity footer (if any) begins.
template <SupportedFloat T>
void ExpectLayoutAgrees(ByteSpan stream, const std::string& label) {
  const Sections<T> s = ParseSections<T>(stream);
  const Header& h = s.header;
  const FrameExtents x = FrameExtentsOf(h, sizeof(T));
  const auto expect_at = [&](ByteSpan section, const Extent& e,
                             const char* name) {
    EXPECT_EQ(static_cast<std::uint64_t>(section.data() - stream.data()),
              e.offset)
        << label << " " << name;
    EXPECT_EQ(section.size(), e.length) << label << " " << name;
  };
  expect_at(s.type_bits, x.type_bits, "type_bits");
  expect_at(s.const_mu, x.const_mu, "const_mu");
  expect_at(s.ncb_req, x.ncb_req, "ncb_req");
  expect_at(s.ncb_mu, x.ncb_mu, "ncb_mu");
  expect_at(s.ncb_zsize, x.ncb_zsize, "ncb_zsize");
  expect_at(s.payload, x.payload, "payload");
  const std::uint64_t footer =
      h.version == kFormatVersionIntegrity
          ? IntegrityFooterBytes(IntegrityChunkCount(h))
          : 0;
  EXPECT_EQ(x.end + footer, stream.size()) << label;
}

TEST(Format, LayoutAgreesWithEveryGolden) {
  int raw = 0;
  int f64 = 0;
  for (const testkit::GoldenCase& c : testkit::GoldenCases()) {
    const ByteBuffer v1 = testkit::ReadFileBytes(
        std::string(SZX_GOLDEN_DIR) + "/" + c.file);
    testkit::GoldenCase twin = c;
    twin.params.integrity = true;
    const ByteBuffer v2 = testkit::EncodeGoldenCase(twin);
    ASSERT_EQ(ParseHeader(v1).version, kFormatVersion) << c.file;
    ASSERT_EQ(ParseHeader(v2).version, kFormatVersionIntegrity) << c.file;
    if (c.dtype == DataType::kFloat64) {
      ExpectLayoutAgrees<double>(v1, c.file);
      ExpectLayoutAgrees<double>(v2, c.file + " (v2 twin)");
      ++f64;
    } else {
      ExpectLayoutAgrees<float>(v1, c.file);
      ExpectLayoutAgrees<float>(v2, c.file + " (v2 twin)");
    }
    raw += (ParseHeader(v1).flags & kFlagRawPassthrough) != 0 ? 1 : 0;
  }
  // The corpus covers both element types and the raw-passthrough frame.
  EXPECT_GT(raw, 0);
  EXPECT_GT(f64, 0);
}

// Runs `f`, which must throw szx::Error naming the element-type mismatch.
template <typename F>
void ExpectTypeMismatch(F&& f, const char* reader) {
  try {
    f();
    ADD_FAILURE() << reader << " accepted a float32 frame as float64";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("element type mismatch"),
              std::string::npos)
        << reader << ": " << e.what();
  }
}

TEST(Format, EveryReaderRefusesTheOtherElementType) {
  const std::string dir = SZX_GOLDEN_DIR;
  const ByteBuffer v1 = testkit::ReadFileBytes(dir + "/f32_abs_c_wave.szx");
  const auto& cases = testkit::GoldenCases();
  const auto it =
      std::find_if(cases.begin(), cases.end(), [](const auto& c) {
        return c.file == "f32_abs_c_wave.szx";
      });
  ASSERT_NE(it, cases.end());
  testkit::GoldenCase twin = *it;
  twin.params.integrity = true;
  const ByteBuffer v2 = testkit::EncodeGoldenCase(twin);
  const Header h = ParseHeader(v1);
  ASSERT_EQ(h.dtype, static_cast<std::uint8_t>(DataType::kFloat32));

  ExpectTypeMismatch([&] { (void)Decompress<double>(v1); }, "Decompress");
  ExpectTypeMismatch([&] { (void)DecompressRange<double>(v1, 10, 20); },
                     "DecompressRange");
  const ValidationReport v = ValidateStream<double>(v1, /*deep=*/true);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("element type mismatch"), std::string::npos)
      << "ValidateStream: " << v.error;
  // Both salvage paths refuse, and their reports keep the header fields.
  for (const ByteBuffer* stream : {&v2, &v1}) {
    const resilience::DamageReport r =
        resilience::SalvageDecode<double>(*stream).report;
    const char* path = stream == &v2 ? "footer" : "footerless";
    EXPECT_FALSE(r.usable) << path;
    EXPECT_NE(r.error.find("element type mismatch"), std::string::npos)
        << path << " salvage: " << r.error;
    EXPECT_EQ(r.version, ParseHeader(*stream).version) << path;
    EXPECT_EQ(r.num_elements, h.num_elements) << path;
    EXPECT_EQ(r.num_blocks, h.num_blocks) << path;
  }
  // A container query probes its float32 chunk streams as float64.
  const ByteBuffer container =
      testkit::ReadFileBytes(dir + "/container_single_f32.szx3");
  const ContainerReader reader(container);
  ASSERT_EQ(reader.field(0).dtype, DataType::kFloat32);
  ExpectTypeMismatch([&] { (void)reader.DecompressTimestep<double>(0, 0); },
                     "ContainerReader::DecompressTimestep");
}

}  // namespace
}  // namespace szx
