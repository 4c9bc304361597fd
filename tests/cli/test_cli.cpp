// End-to-end integration tests of the szx_cli binary (path injected by
// CMake as SZX_CLI_PATH): compress / info / verify / decompress round
// trips through real files, plus failure modes.
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/container.hpp"
#include "core/kernels/kernels.hpp"

#include "../test_util.hpp"

namespace {

#ifndef SZX_CLI_PATH
#error "SZX_CLI_PATH must be defined by the build"
#endif

std::string TempPath(const char* name) {
  // Unique per test case and per process: ctest runs these in parallel, and
  // a shared fixed path would let one test's TearDown delete another's files.
  const char* dir = std::getenv("TMPDIR");
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(dir != nullptr ? dir : "/tmp") + "/szx_cli_test_" +
         info->name() + "_" + std::to_string(::getpid()) + "_" + name;
}

int RunCli(const std::string& args) {
  const std::string cmd =
      std::string(SZX_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

// Actual process exit code, for the documented contract:
// 0 success, 2 usage, 3 corruption/verification failure, 4 I/O error.
int CliExitCode(const std::string& args) {
  const int status = RunCli(args);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void WriteFloats(const std::string& path, const std::vector<float>& v) {
  std::ofstream out(path, std::ios::binary);
  // szx-lint: allow(reinterpret-cast) -- ofstream::write requires char*; file-I/O boundary
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<float> ReadFloats(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<float> v(size / sizeof(float));
  // szx-lint: allow(reinterpret-cast) -- ifstream::read requires char*; file-I/O boundary
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size));
  return v;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = szx::testing::MakePattern<float>(
        szx::testing::Pattern::kNoisySine, 50000, 77);
    raw_ = TempPath("in.f32");
    compressed_ = TempPath("out.szx");
    recon_ = TempPath("recon.f32");
    WriteFloats(raw_, data_);
  }

  void TearDown() override {
    std::remove(raw_.c_str());
    std::remove(compressed_.c_str());
    std::remove(recon_.c_str());
  }

  std::vector<float> data_;
  std::string raw_, compressed_, recon_;
};

TEST_F(CliTest, CompressDecompressRoundTrip) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                " -m abs -e 1e-3"),
            0);
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_), 0);
  const auto recon = ReadFloats(recon_);
  ASSERT_EQ(recon.size(), data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    ASSERT_NEAR(recon[i], data_[i], 1e-3) << i;
  }
}

TEST_F(CliTest, VerifyPassesOnValidStream) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ + " -e 1e-3"),
            0);
  EXPECT_EQ(RunCli("verify -i " + raw_ + " -z " + compressed_), 0);
}

// verify checks each mode's own guarantee: a pointwise-relative stream
// stores error_bound_abs = 0, yet its reconstruction is correct.
TEST_F(CliTest, VerifyPassesOnPointwiseRelativeStream) {
  ASSERT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_ +
                        " -m pwrel -e 1e-3"),
            0);
  EXPECT_EQ(CliExitCode("verify -i " + raw_ + " -z " + compressed_), 0);
}

TEST_F(CliTest, VerifyPassesOnFloat64Stream) {
  const std::string raw64 = TempPath("in.f64");
  {
    std::ofstream out(raw64, std::ios::binary);
    for (std::size_t i = 0; i < 10000; ++i) {
      const auto bytes = std::bit_cast<std::array<char, sizeof(double)>>(
          std::sin(0.001 * static_cast<double>(i)));
      out.write(bytes.data(), bytes.size());
    }
  }
  ASSERT_EQ(CliExitCode("compress -i " + raw64 + " -o " + compressed_ +
                        " -t f64 -m rel -e 1e-4"),
            0);
  EXPECT_EQ(CliExitCode("verify -i " + raw64 + " -z " + compressed_), 0);
  std::remove(raw64.c_str());
}

TEST_F(CliTest, VerifyFailsWhenTheBoundIsViolated) {
  ASSERT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_ +
                        " -m abs -e 1e-3"),
            0);
  // The reference moves one value by 1000x the bound after compression.
  std::vector<float> moved = data_;
  moved[1234] += 1.0f;
  WriteFloats(raw_, moved);
  EXPECT_EQ(CliExitCode("verify -i " + raw_ + " -z " + compressed_), 3);
}

TEST_F(CliTest, InfoSucceeds) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ + " -b 64"), 0);
  EXPECT_EQ(RunCli("info -i " + compressed_), 0);
}

TEST_F(CliTest, OmpFlagRoundTrip) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                " -e 1e-4 --omp 4"),
            0);
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_ +
                " --omp 4"),
            0);
  const auto recon = ReadFloats(recon_);
  ASSERT_EQ(recon.size(), data_.size());
}

TEST_F(CliTest, ThreadsFlagRoundTrip) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                " -m abs -e 1e-3 --threads 4"),
            0);
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_ +
                " --threads 4"),
            0);
  const auto recon = ReadFloats(recon_);
  ASSERT_EQ(recon.size(), data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    ASSERT_NEAR(recon[i], data_[i], 1e-3) << i;
  }
}

TEST_F(CliTest, KernelFlagProducesIdenticalStreams) {
  const std::string scalar_out = TempPath("scalar.szx");
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + scalar_out +
                " -e 1e-3 --kernel scalar"),
            0);
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                " -e 1e-3 --kernel avx2"),
            0);
  // Byte-identical streams regardless of implementation (the kernel
  // contract); on machines without AVX2 the flag falls back to scalar and
  // equality is trivially preserved.
  EXPECT_EQ(ReadBytes(compressed_), ReadBytes(scalar_out));
  // Decode under each kernel and check the reconstruction round-trips.
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_ +
                " --kernel scalar --threads 2"),
            0);
  const auto recon = ReadFloats(recon_);
  ASSERT_EQ(recon.size(), data_.size());
  std::remove(scalar_out.c_str());
}

TEST_F(CliTest, ThreadsFlagMatchesSerialStream) {
  // The chunk-parallel encoder and decoder must match the serial ones byte
  // for byte.
  const std::string serial_z = TempPath("serial.szx");
  const std::string serial_recon = TempPath("serial.f32");
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + serial_z + " -e 1e-3"), 0);
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                " -e 1e-3 --threads 4"),
            0);
  const std::string stream = ReadBytes(serial_z);
  ASSERT_FALSE(stream.empty());
  EXPECT_EQ(ReadBytes(compressed_), stream);
  ASSERT_EQ(RunCli("decompress -i " + serial_z + " -o " + serial_recon), 0);
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_ +
                " --threads 4"),
            0);
  const std::string recon = ReadBytes(recon_);
  EXPECT_EQ(recon.size(), data_.size() * sizeof(float));
  EXPECT_EQ(recon, ReadBytes(serial_recon));
  std::remove(serial_z.c_str());
  std::remove(serial_recon.c_str());
}

TEST_F(CliTest, RejectsBadKernelThreadsAndExecutor) {
  EXPECT_NE(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                " --kernel sse9"),
            0);
  // There is no AVX-512 tier: its spelling is rejected like any unknown one.
  EXPECT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_ +
                        " --kernel avx512"),
            2);
  EXPECT_NE(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                " --threads 0"),
            0);
  // The pool is the only executor, so there is no --executor flag.
  EXPECT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_ +
                        " --executor pool"),
            2);
}

TEST_F(CliTest, KernelListPrintsDispatchTable) {
  // `--kernel list` dumps the tier table and exits 0 without needing any
  // other arguments.
  const std::string listing = TempPath("kernels.txt");
  const std::string cmd = std::string(SZX_CLI_PATH) +
                          " compress --kernel list > " + listing + " 2>&1";
  ASSERT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 0);
  std::ifstream in(listing);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // One row per tier, in dispatch order.
  for (const char* name : {"scalar", "avx2", "neon"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(text.find("avx512"), std::string::npos);
  std::remove(listing.c_str());
}

TEST_F(CliTest, WideKernelTiersErrorWhenUnavailable) {
  // Requesting a vector tier this build or CPU cannot run is a usage error
  // (exit 2), not a silent fallback.  Where the tier IS available the flag
  // must work end to end and emit the exact bytes of the scalar stream.
  ASSERT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_ +
                        " -e 1e-3 --kernel scalar"),
            0);
  const std::string scalar_stream = ReadBytes(compressed_);
  for (const szx::kernels::Kind kind :
       {szx::kernels::Kind::kAvx2, szx::kernels::Kind::kNeon}) {
    const std::string name = szx::kernels::KindName(kind);
    SCOPED_TRACE(name);
    const std::string forced = TempPath(("forced_" + name).c_str());
    if (!szx::kernels::KindSupported(kind)) {
      EXPECT_EQ(CliExitCode("compress -i " + raw_ + " -o " + forced +
                            " -e 1e-3 --kernel " + name),
                2);
      continue;
    }
    ASSERT_EQ(CliExitCode("compress -i " + raw_ + " -o " + forced +
                          " -e 1e-3 --kernel " + name),
              0);
    EXPECT_EQ(ReadBytes(forced), scalar_stream);
    ASSERT_EQ(CliExitCode("decompress -i " + forced + " -o " + recon_ +
                          " --kernel " + name + " --threads 2"),
              0);
    EXPECT_EQ(ReadFloats(recon_).size(), data_.size());
    std::remove(forced.c_str());
  }
}

TEST_F(CliTest, RejectsMissingInput) {
  EXPECT_NE(RunCli("compress -i /nonexistent.f32 -o " + compressed_), 0);
  EXPECT_NE(RunCli("decompress -i /nonexistent.szx -o " + recon_), 0);
}

TEST_F(CliTest, RejectsBadFlags) {
  EXPECT_NE(RunCli("compress -i " + raw_ + " -o " + compressed_ + " -t f16"),
            0);
  EXPECT_NE(RunCli("frobnicate -i " + raw_), 0);
  EXPECT_NE(RunCli(""), 0);
}

TEST_F(CliTest, RejectsCorruptStream) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_), 0);
  // Truncate the compressed file.
  {
    std::ifstream in(compressed_, std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<char> buf(size / 2);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    in.close();
    std::ofstream out(compressed_, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_NE(RunCli("decompress -i " + compressed_ + " -o " + recon_), 0);
}

TEST_F(CliTest, HybridRoundTrip) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                   " -e 1e-3 --hybrid"),
            0);
  EXPECT_EQ(RunCli("info -i " + compressed_), 0);
  EXPECT_EQ(RunCli("verify -i " + raw_ + " -z " + compressed_), 0);
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_), 0);
  const auto recon = ReadFloats(recon_);
  ASSERT_EQ(recon.size(), data_.size());
}

TEST_F(CliTest, PointwiseRelativeMode) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_ +
                   " -m pwrel -e 1e-3"),
            0);
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_), 0);
  const auto recon = ReadFloats(recon_);
  ASSERT_EQ(recon.size(), data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    ASSERT_LE(std::fabs(recon[i] - data_[i]),
              1e-3 * std::fabs(data_[i]) + 1e-12)
        << i;
  }
}

TEST_F(CliTest, TuneSuggestsBlockSize) {
  EXPECT_EQ(RunCli("tune -i " + raw_ + " -e 1e-3"), 0);
}

TEST_F(CliTest, ValidateAcceptsGoodRejectsBad) {
  ASSERT_EQ(RunCli("compress -i " + raw_ + " -o " + compressed_), 0);
  EXPECT_EQ(RunCli("validate -i " + compressed_ + " --deep"), 0);
  // Corrupt a byte in the middle and expect rejection (shallow or deep).
  {
    std::fstream f(compressed_,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(80);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  const int shallow = RunCli("validate -i " + compressed_);
  const int deep = RunCli("validate -i " + compressed_ + " --deep");
  EXPECT_TRUE(shallow != 0 || deep != 0);
}

TEST_F(CliTest, ExitCodeContract) {
  // 2: usage errors (bad flag, bad command, missing required argument).
  EXPECT_EQ(CliExitCode("frobnicate"), 2);
  EXPECT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_ +
                        " -t f16"),
            2);
  EXPECT_EQ(CliExitCode("verify"), 2);
  // 4: file-system failures.
  EXPECT_EQ(CliExitCode("compress -i /nonexistent.f32 -o " + compressed_), 4);
  EXPECT_EQ(CliExitCode("decompress -i /nonexistent.szx -o " + recon_), 4);
  // A directory is not a regular file: an I/O error, not an abort.
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(CliExitCode("compress -i " + dir + " -o " + compressed_), 4);
  EXPECT_EQ(CliExitCode("decompress -i " + dir + " -o " + recon_), 4);
  // 3: stream corruption.
  ASSERT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_), 0);
  {
    std::fstream f(compressed_,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(2);
    const char junk = 0x77;
    f.write(&junk, 1);  // break the magic
  }
  EXPECT_EQ(CliExitCode("decompress -i " + compressed_ + " -o " + recon_), 3);
}

TEST_F(CliTest, IntegrityVerifyAndSalvage) {
  const std::string report = TempPath("report.json");
  ASSERT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_ +
                        " -m abs -e 1e-3 --integrity"),
            0);
  // Clean stream: checksum verification passes and decode round-trips.
  EXPECT_EQ(CliExitCode("verify -z " + compressed_), 0);
  ASSERT_EQ(CliExitCode("decompress -i " + compressed_ + " -o " + recon_), 0);
  ASSERT_EQ(ReadFloats(recon_).size(), data_.size());
  // Clean salvage: exit 0 and identical output to the normal decoder.
  const std::string salvaged = TempPath("salvaged.f32");
  EXPECT_EQ(CliExitCode("salvage -i " + compressed_ + " -o " + salvaged), 0);
  EXPECT_EQ(ReadFloats(salvaged), ReadFloats(recon_));

  // Damage a payload byte: verify fails with 3; salvage still produces
  // output plus a machine-readable report, also signalling 3.
  {
    std::fstream f(compressed_,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3000, std::ios::end);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  EXPECT_EQ(CliExitCode("verify -z " + compressed_), 3);
  EXPECT_EQ(CliExitCode("salvage -i " + compressed_ + " -o " + salvaged +
                        " --report " + report),
            3);
  const auto out = ReadFloats(salvaged);
  EXPECT_EQ(out.size(), data_.size());
  std::ifstream rep(report);
  std::string json((std::istreambuf_iterator<char>(rep)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"usable\":true"), std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  std::remove(salvaged.c_str());
  std::remove(report.c_str());
}

// ---------------------------------------------------------------------------
// `client` against a real szx_serve daemon over TCP loopback.

#ifndef SZX_SERVE_PATH
#error "SZX_SERVE_PATH must be defined by the build"
#endif

// Runs szx_serve with --port 0 (kernel-assigned) plus the given flags and
// parses the advertised port.  The daemon exits on its own once max_conns
// connections were served; Stop() then pcloses (and so reaps) it.
class ScopedDaemon {
 public:
  explicit ScopedDaemon(const std::string& flags) {
    const std::string cmd =
        std::string(SZX_SERVE_PATH) + " --port 0 " + flags + " 2>/dev/null";
    pipe_ = ::popen(cmd.c_str(), "r");
    if (pipe_ == nullptr) return;
    char line[128] = {};
    if (std::fgets(line, sizeof(line), pipe_) != nullptr) {
      unsigned parsed = 0;
      if (std::sscanf(line, "szx-serve listening on %u", &parsed) == 1) {
        port_ = static_cast<int>(parsed);
      }
    }
  }
  ~ScopedDaemon() { Stop(); }
  ScopedDaemon(const ScopedDaemon&) = delete;
  ScopedDaemon& operator=(const ScopedDaemon&) = delete;

  int port() const { return port_; }
  void Stop() {
    if (pipe_ != nullptr) {
      ::pclose(pipe_);
      pipe_ = nullptr;
    }
  }

 private:
  FILE* pipe_ = nullptr;
  int port_ = -1;
};

// Regression: a stop signal must terminate the daemon even while a
// connection sits idle inside a blocked read.  The graceful-stop path
// relies on FdTransport::Close using shutdown(2) to wake that reader; a
// bare close(2) would leave the connection thread parked and main hung in
// join() forever.
TEST_F(CliTest, DaemonStopsPromptlyWithAnIdleConnection) {
  int out[2] = {-1, -1};
  ASSERT_EQ(::pipe(out), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execl(SZX_SERVE_PATH, "szx_serve", "--port", "0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  FILE* from_daemon = ::fdopen(out[0], "r");
  ASSERT_NE(from_daemon, nullptr);
  char line[128] = {};
  ASSERT_NE(std::fgets(line, sizeof(line), from_daemon), nullptr);
  unsigned port = 0;
  ASSERT_EQ(std::sscanf(line, "szx-serve listening on %u", &port), 1);

  // Connect and then go idle: the daemon's connection thread is now
  // parked in a blocking read with no bytes coming.
  const int sock = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(sock, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  // szx-lint: allow(reinterpret-cast) -- the BSD socket ABI types connect against the sockaddr base struct
  ASSERT_EQ(::connect(sock, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 100; ++i) {  // up to ~10 s before declaring a hang
    reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) break;
    ::usleep(100 * 1000);
  }
  if (reaped != pid) {
    ::kill(pid, SIGKILL);
    (void)::waitpid(pid, &status, 0);
    FAIL() << "daemon did not exit within 10s of SIGTERM "
              "(idle connection blocked the stop path)";
  }
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(sock);
  ::fclose(from_daemon);
}

TEST_F(CliTest, ClientUsageErrorsExitTwo) {
  EXPECT_EQ(CliExitCode("client --op ping"), 2);  // --port missing
  EXPECT_EQ(CliExitCode("client --port 1 --op transmogrify"), 2);
  EXPECT_EQ(CliExitCode("client --port 1 --op decompress"), 2);  // -i missing
  EXPECT_EQ(CliExitCode("client --port 70000 --op ping"), 2);
}

TEST_F(CliTest, ClientConnectionFailureExitsFour) {
  // Nothing listens on loopback port 1; connect is refused immediately.
  EXPECT_EQ(CliExitCode("client --host 127.0.0.1 --port 1 --op ping"), 4);
  // Unparseable address is also a connection-level failure, not usage.
  EXPECT_EQ(CliExitCode("client --host not.a.numeric.address --port 1"
                        " --op ping"),
            4);
}

TEST_F(CliTest, ClientTcpRoundTrip) {
  ScopedDaemon daemon("--max-conns 4");
  ASSERT_GT(daemon.port(), 0) << "daemon failed to start";
  const std::string port = std::to_string(daemon.port());
  const std::string report = TempPath("client_report.json");

  // Remote compress with integrity footers, then remote decompress.
  ASSERT_EQ(CliExitCode("client --port " + port + " --op compress -i " +
                        raw_ + " -o " + compressed_ +
                        " -m abs -e 1e-3 --integrity"),
            0);
  ASSERT_EQ(CliExitCode("client --port " + port + " --op decompress -i " +
                        compressed_ + " -o " + recon_),
            0);
  const std::vector<float> recon = ReadFloats(recon_);
  ASSERT_EQ(recon.size(), data_.size());
  for (std::size_t i = 0; i < recon.size(); i += 97) {
    ASSERT_NEAR(recon[i], data_[i], 1e-3) << i;
  }

  // Damage the stream: remote salvage degrades to partial (exit 3) and
  // still delivers elements plus a machine-readable report.
  {
    std::fstream f(compressed_,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3000, std::ios::end);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  const std::string salvaged = TempPath("client_salvaged.f32");
  EXPECT_EQ(CliExitCode("client --port " + port + " --op salvage -i " +
                        compressed_ + " -o " + salvaged + " --report " +
                        report),
            3);
  EXPECT_EQ(ReadFloats(salvaged).size(), data_.size());
  std::ifstream rep(report);
  const std::string json((std::istreambuf_iterator<char>(rep)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"usable\":true"), std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);

  // Liveness after the degradation path: a plain ping still answers OK.
  EXPECT_EQ(CliExitCode("client --port " + port + " --op ping"), 0);

  daemon.Stop();  // 4 connections served: the daemon has already exited
  std::remove(salvaged.c_str());
  std::remove(report.c_str());
}

TEST_F(CliTest, VerifyWithoutIntegrityFooterDeepWalks) {
  // v1 streams have no checksums; verify -z falls back to the structural
  // validator and still reports a clean stream as 0.
  ASSERT_EQ(CliExitCode("compress -i " + raw_ + " -o " + compressed_), 0);
  EXPECT_EQ(CliExitCode("verify -z " + compressed_), 0);
}

TEST_F(CliTest, Float64RoundTrip) {
  const std::string raw64 = TempPath("in.f64");
  std::vector<double> d64(10000);
  for (std::size_t i = 0; i < d64.size(); ++i) {
    d64[i] = std::sin(0.001 * static_cast<double>(i));
  }
  {
    std::ofstream out(raw64, std::ios::binary);
    // szx-lint: allow(reinterpret-cast) -- ofstream::write requires char*; file-I/O boundary
    out.write(reinterpret_cast<const char*>(d64.data()),
              static_cast<std::streamsize>(d64.size() * sizeof(double)));
  }
  ASSERT_EQ(RunCli("compress -i " + raw64 + " -o " + compressed_ +
                " -t f64 -m abs -e 1e-6"),
            0);
  ASSERT_EQ(RunCli("decompress -i " + compressed_ + " -o " + recon_), 0);
  std::ifstream in(recon_, std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()),
            d64.size() * sizeof(double));
  std::remove(raw64.c_str());
}

TEST_F(CliTest, ContainerPackQueryUnpackRoundTrip) {
  const std::string container = TempPath("c.szx3");
  // Two timesteps of 25000 elements each out of the 50000-element input.
  ASSERT_EQ(RunCli("pack -o " + container + " --field temp:" + raw_ +
                   " --timesteps 2 -m abs -e 1e-3 --chunk 4096"),
            0);
  ASSERT_EQ(RunCli("query -i " + container), 0);
  // info recognizes a container and prints the directory instead of
  // rejecting the magic.
  ASSERT_EQ(RunCli("info -i " + container), 0);
  // Full-timestep unpack obeys the bound.
  ASSERT_EQ(RunCli("unpack -i " + container + " -o " + recon_ +
                   " --field temp --timestep 1"),
            0);
  const auto full = ReadFloats(recon_);
  ASSERT_EQ(full.size(), 25000u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_NEAR(full[i], data_[25000 + i], 1e-3) << i;
  }
  // ROI unpack is bit-identical to the full-decode slice.
  const std::string roi_path = TempPath("roi.f32");
  ASSERT_EQ(RunCli("unpack -i " + container + " -o " + roi_path +
                   " --field temp --timestep 1 --first 5000 --count 6000"),
            0);
  const auto roi = ReadFloats(roi_path);
  ASSERT_EQ(roi.size(), 6000u);
  for (std::size_t i = 0; i < roi.size(); ++i) {
    ASSERT_EQ(roi[i], full[5000 + i]) << i;
  }
  std::remove(container.c_str());
  std::remove(roi_path.c_str());
}

// A field name is arbitrary bytes: `query --json` must escape it into a
// valid JSON string.
TEST_F(CliTest, ContainerQueryJsonEscapesTheFieldName) {
  const std::string container = TempPath("c.szx3");
  const std::string json = TempPath("query.json");
  {
    szx::ContainerWriter writer;
    szx::ContainerWriter::FieldSpec spec;
    spec.name = "q\"b\\s\tt\x01" "e";
    spec.elements_per_timestep = data_.size();
    const std::uint32_t field =
        writer.AddField(spec, szx::DataType::kFloat32);
    writer.AppendTimestep<float>(field, data_);
    const szx::ByteBuffer bytes = writer.Finish();
    std::ofstream out(container, std::ios::binary);
    // szx-lint: allow(reinterpret-cast) -- ofstream::write requires char*; file-I/O boundary
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const std::string cmd = std::string(SZX_CLI_PATH) + " query -i " +
                          container + " --json > " + json;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string report = ReadBytes(json);
  EXPECT_NE(report.find(R"("name":"q\"b\\s\u0009t\u0001e")"),
            std::string::npos)
      << report;
  std::remove(container.c_str());
  std::remove(json.c_str());
}

TEST_F(CliTest, ContainerExitCodeContract) {
  const std::string container = TempPath("c.szx3");
  ASSERT_EQ(CliExitCode("pack -o " + container + " --field a:" + raw_ +
                        " -m abs -e 1e-3"),
            0);
  // Usage errors.
  EXPECT_EQ(CliExitCode("pack -o " + container), 2);
  EXPECT_EQ(CliExitCode("pack --field a:" + raw_), 2);
  EXPECT_EQ(CliExitCode("query"), 2);
  EXPECT_EQ(CliExitCode("unpack -i " + container + " -o " + recon_ +
                        " --field a --first 3"),
            2);
  // Unknown field / bad timestep are corruption-contract failures (3).
  EXPECT_EQ(CliExitCode("unpack -i " + container + " -o " + recon_ +
                        " --field nope"),
            3);
  EXPECT_EQ(CliExitCode("unpack -i " + container + " -o " + recon_ +
                        " --field a --timestep 7"),
            3);
  // Missing file is I/O (4).
  EXPECT_EQ(CliExitCode("query -i /nonexistent/c.szx3"), 4);
  // A flipped payload byte shows up in query as a damaged chunk (3), and a
  // truncated directory makes the reader refuse outright (3).
  {
    std::ifstream in(container, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes[100] = static_cast<char>(bytes[100] ^ 0x20);
    std::ofstream out(container + ".bad", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    std::ofstream trunc(container + ".trunc", std::ios::binary);
    trunc.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() - 9));
  }
  EXPECT_EQ(CliExitCode("query -i " + container + ".bad"), 3);
  EXPECT_EQ(CliExitCode("query -i " + container + ".trunc"), 3);
  EXPECT_EQ(CliExitCode("unpack -i " + container + ".trunc -o " + recon_),
            3);
  std::remove(container.c_str());
  std::remove((container + ".bad").c_str());
  std::remove((container + ".trunc").c_str());
}

}  // namespace
