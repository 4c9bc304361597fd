// Differential property tests for the vectorized Solution-C block kernels:
// the scalar and AVX2 implementations must produce byte-identical encoded
// payloads and bit-identical decodes for every block size (including every
// tail length mod the vector width), every valid required length, and inputs
// containing NaN / Inf / subnormals.  On hardware without AVX2 the Avx2Ops
// table aliases the scalar one and these tests pass trivially.
#include "core/kernels/kernels.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/bitops.hpp"
#include "core/block_stats.hpp"
#include "../test_util.hpp"

namespace szx {
namespace {

using kernels::Avx2Ops;
using kernels::EncodeCapacity;
using kernels::ScalarOps;
using testing::MakePattern;
using testing::Pattern;
using testing::Rng;

template <typename T>
class KernelTypedTest : public ::testing::Test {};
using FloatTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(KernelTypedTest, FloatTypes);

// Encodes `block` with both tables and checks the live payloads are
// byte-identical, then decodes each payload with both tables and checks the
// reconstructions are bit-identical.  Returns the live payload size.
template <typename T>
std::size_t CheckBlock(std::span<const T> block, T mu, const ReqPlan& plan,
                       const std::string& what) {
  using Bits = typename FloatTraits<T>::Bits;
  const std::size_t n = block.size();
  std::vector<std::byte> a(EncodeCapacity<T>(n));
  std::vector<std::byte> b(EncodeCapacity<T>(n));
  const std::size_t na =
      ScalarOps<T>().encode_c(block.data(), n, mu, plan, a.data());
  const std::size_t nb =
      Avx2Ops<T>().encode_c(block.data(), n, mu, plan, b.data());
  EXPECT_EQ(na, nb) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), na), 0) << what;

  std::vector<T> da(n), db(n);
  ScalarOps<T>().decode_c(a.data(), na, na, mu, plan, da.data(), n);
  Avx2Ops<T>().decode_c(a.data(), na, na, mu, plan, db.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<Bits>(da[i]), std::bit_cast<Bits>(db[i]))
        << what << " i=" << i;
  }
  return na;
}

TYPED_TEST(KernelTypedTest, ScalarAndAvx2AgreeAcrossPatternsAndSizes) {
  using T = TypeParam;
  for (auto p : testing::AllPatterns()) {
    for (std::size_t n : {1u, 2u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 63u,
                          64u, 65u, 100u, 128u}) {
      const auto v = MakePattern<T>(p, n, 41);
      const auto st = ComputeBlockStatsScalar<T>(std::span<const T>(v));
      if (!st.all_finite) continue;
      const auto plan =
          ComputeReqPlan<T>(ExponentOf(static_cast<T>(st.radius)), -20);
      CheckBlock<T>(v, st.mu, plan,
                    std::string(testing::PatternName(p)) + " n=" +
                        std::to_string(n));
    }
  }
}

TYPED_TEST(KernelTypedTest, AgreeForEveryValidReqLength) {
  using T = TypeParam;
  using Traits = FloatTraits<T>;
  const auto v = MakePattern<T>(Pattern::kNoisySine, 96, 17);
  const auto st = ComputeBlockStatsScalar<T>(std::span<const T>(v));
  for (int req = Traits::kMinReqLength; req <= Traits::kTotalBits; ++req) {
    const auto plan = PlanFromReqLength<T>(static_cast<std::uint8_t>(req));
    CheckBlock<T>(v, st.mu, plan, "req=" + std::to_string(req));
  }
}

TYPED_TEST(KernelTypedTest, AgreeOnSpecialValues) {
  using T = TypeParam;
  Rng rng(59);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 8 + rng.Next() % 64;
    std::vector<T> v(n);
    for (auto& x : v) x = static_cast<T>(rng.Uniform(-5, 5));
    switch (trial % 5) {
      case 0: v[rng.Next() % n] = std::numeric_limits<T>::quiet_NaN(); break;
      case 1: v[rng.Next() % n] = std::numeric_limits<T>::infinity(); break;
      case 2: v[rng.Next() % n] = -std::numeric_limits<T>::infinity(); break;
      case 3: v[rng.Next() % n] = std::numeric_limits<T>::denorm_min(); break;
      case 4: v[rng.Next() % n] = -T(0); break;
    }
    // The codec routes non-finite blocks through the lossless plan; the
    // kernels must agree on that path too (mu = 0, full-width bytes).
    const auto plan = LosslessPlan<T>();
    CheckBlock<T>(v, T(0), plan, "special trial=" + std::to_string(trial));
  }
}

TYPED_TEST(KernelTypedTest, AgreeOnAllZeroAndAllSameBlocks) {
  using T = TypeParam;
  for (std::size_t n : {3u, 8u, 64u}) {
    const std::vector<T> zeros(n, T(0));
    const std::vector<T> same(n, T(4.25));
    const auto plan = PlanFromReqLength<T>(
        static_cast<std::uint8_t>(FloatTraits<T>::kMinReqLength + 7));
    CheckBlock<T>(std::span<const T>(zeros), T(0), plan, "zeros");
    CheckBlock<T>(std::span<const T>(same), T(4.25), plan, "same");
  }
}

// The 2-bit lead code of element i (4 per byte, first element in the top
// bits).
unsigned LeadAt(const std::byte* lead, std::size_t i) {
  const int shift = 6 - 2 * static_cast<int>(i & 3);
  return (std::to_integer<unsigned>(lead[i >> 2]) >> shift) & 3u;
}

// Truncated words whose lead codes against the running previous word are
// exactly `codes`: code c < 3 copies the previous word's top c bytes and
// changes byte c, code 3 copies the top three.  The bytes below nb are
// random raw bits the kernels must mask off (with shift 0 and mu = 0 the
// kernels truncate a value to raw & KeepMask(nb)).
template <typename T>
std::vector<T> WordsWithCodes(const std::vector<unsigned>& codes, int nb,
                              Rng& rng) {
  using Bits = typename FloatTraits<T>::Bits;
  constexpr int kBits = FloatTraits<T>::kTotalBits;
  const Bits keep = KeepMask<T>(nb);
  Bits prev = 0;
  std::vector<T> v;
  for (const unsigned c : codes) {
    const int same = static_cast<int>(c);
    const Bits top = same == 0
                         ? Bits{0}
                         : static_cast<Bits>(~Bits{0} << (kBits - 8 * same));
    Bits t = static_cast<Bits>((prev & top) | (rng.Next() & ~top));
    if (c < 3) {
      const auto low_bit =
          static_cast<Bits>(Bits{1} << (kBits - 8 * (same + 1)));
      const auto byte_c = static_cast<Bits>(low_bit * 0xFF);
      if (((t ^ prev) & byte_c) == 0) t ^= low_bit;
    }
    t &= keep;
    v.push_back(std::bit_cast<T>(
        static_cast<Bits>(t | (static_cast<Bits>(rng.Next()) & ~keep))));
    prev = t;
  }
  return v;
}

// Lead codes that reach every row of the AVX2 commit tables at `nb`: each
// reachable lead-code combination of one 128-bit half (a lead byte for
// float, a lead nibble for double) once, padded with the all-zero-code row
// to whole vector groups.  A code 1 <= c < 3 with c >= nb cannot occur (a
// masked word then equals its predecessor, code 3), so rows holding one are
// left out.  `rows` receives the row indices reached.
template <typename T>
std::vector<unsigned> CommitTableRowCodes(int nb, std::set<unsigned>& rows) {
  constexpr std::size_t kLanes = 16 / sizeof(T);  // lanes per 128-bit half
  constexpr unsigned kRows = 1u << (2 * kLanes);
  std::vector<unsigned> codes;
  rows.clear();
  for (unsigned idx = 0; idx < kRows; ++idx) {
    std::vector<unsigned> lane(kLanes);
    bool ok = true;
    for (std::size_t q = 0; q < kLanes; ++q) {
      lane[q] = (idx >> (2 * (kLanes - 1 - q))) & 3u;
      ok = ok && (lane[q] == 3 || static_cast<int>(lane[q]) < nb);
    }
    if (!ok) continue;
    rows.insert(idx);
    codes.insert(codes.end(), lane.begin(), lane.end());
  }
  if (rows.size() % 2 != 0) codes.insert(codes.end(), kLanes, 0u);
  return codes;
}

// `count` random lead codes reachable at `nb`.
std::vector<unsigned> RandomReachableCodes(std::size_t count, int nb,
                                           Rng& rng) {
  std::vector<unsigned> codes;
  while (codes.size() < count) {
    const auto c = static_cast<unsigned>(rng.Next() & 3u);
    if (c == 3 || static_cast<int>(c) < nb) codes.push_back(c);
  }
  return codes;
}

// Every row of the AVX2 commit tables -- nb in [1, sizeof(T)] times every
// lead-code combination of one 128-bit half (a lead byte for float, a lead
// nibble for double) -- against the scalar word-store commit, with 0-7 tail
// elements after the last vector group.  The AVX2 payload is written into a
// buffer of exactly EncodeCapacity(n) bytes: the canary over its
// kCommitSlack bytes and 32 bytes past it must survive, which checks that
// the 16-byte half stores end inside MaxBlockPayload(n).  Rows are reached
// by construction (CommitTableRowCodes) and confirmed from the scalar lead
// array.
TYPED_TEST(KernelTypedTest, EveryCommitTableEntryMatchesScalar) {
  using T = TypeParam;
  using Bits = typename FloatTraits<T>::Bits;
  constexpr std::size_t kLanes = 16 / sizeof(T);  // lanes per 128-bit half
  constexpr std::size_t kCanary = 32;
  constexpr auto kCanaryByte = std::byte{0xA5};
  Rng rng(2207);
  for (int nb = 1; nb <= static_cast<int>(sizeof(T)); ++nb) {
    std::set<unsigned> want;
    const std::vector<unsigned> codes = CommitTableRowCodes<T>(nb, want);
    const std::size_t vector_part = codes.size();
    ReqPlan plan;
    plan.req_length = static_cast<std::uint8_t>(8 * nb);
    plan.shift = 0;
    plan.num_bytes = static_cast<std::uint8_t>(nb);
    for (std::size_t tail = 0; tail < 8; ++tail) {
      std::vector<unsigned> all = codes;
      const std::vector<unsigned> tail_codes =
          RandomReachableCodes(tail, nb, rng);
      all.insert(all.end(), tail_codes.begin(), tail_codes.end());
      const std::vector<T> v = WordsWithCodes<T>(all, nb, rng);
      const std::size_t n = v.size();
      const std::string what =
          "nb=" + std::to_string(nb) + " tail=" + std::to_string(tail);
      const std::size_t cap = EncodeCapacity<T>(n);
      std::vector<std::byte> a(cap + kCanary, kCanaryByte);
      std::vector<std::byte> b(cap + kCanary, kCanaryByte);
      const std::size_t na =
          ScalarOps<T>().encode_c(v.data(), n, T(0), plan, a.data());
      const std::size_t nb_avx =
          Avx2Ops<T>().encode_c(v.data(), n, T(0), plan, b.data());
      ASSERT_EQ(na, nb_avx) << what;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), na), 0) << what;
      for (std::size_t k = MaxBlockPayload<T>(n); k < b.size(); ++k) {
        ASSERT_EQ(b[k], kCanaryByte) << what << " scribble at " << k;
      }

      // The scalar lead array confirms the codes, hence every row reached.
      std::set<unsigned> got;
      for (std::size_t j = 0; j < vector_part; j += kLanes) {
        unsigned idx = 0;
        for (std::size_t q = 0; q < kLanes; ++q) {
          idx = (idx << 2) | LeadAt(a.data(), j + q);
        }
        got.insert(idx);
      }
      EXPECT_EQ(got, want) << what;
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(LeadAt(a.data(), k), all[k]) << what << " i=" << k;
      }

      // Mid bytes decode back to the truncated words.
      std::vector<T> out(n);
      ScalarOps<T>().decode_c(b.data(), nb_avx, nb_avx, T(0), plan,
                              out.data(), n);
      const Bits keep = KeepMask<T>(nb);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(std::bit_cast<Bits>(out[k]),
                  static_cast<Bits>(std::bit_cast<Bits>(v[k]) & keep))
            << what << " i=" << k;
      }
    }
  }
}

// A copy of some bytes whose last byte ends right before an inaccessible
// page, so a kernel read past the copy faults instead of passing silently,
// in every build and not only under a sanitizer.
class GuardedBytes {
 public:
  explicit GuardedBytes(std::span<const std::byte> bytes) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t data_len = (bytes.size() + page - 1) / page * page;
    void* const p = mmap(nullptr, data_len + page, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    map_ = std::span<std::byte>(static_cast<std::byte*>(p), data_len + page);
    if (mprotect(map_.subspan(data_len).data(), page, PROT_NONE) != 0) {
      munmap(map_.data(), map_.size());
      throw std::bad_alloc();
    }
    bytes_ = map_.subspan(data_len - bytes.size(), bytes.size());
    std::copy(bytes.begin(), bytes.end(), bytes_.begin());
  }
  ~GuardedBytes() { munmap(map_.data(), map_.size()); }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;

  const std::byte* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::span<std::byte> map_;
  std::span<std::byte> bytes_;
};

// decode_c may read `readable - payload_size` bytes past the payload (the
// following blocks of a payload section) but never use them.  Every row
// of the AVX2 commit/expand tables and tails of 0-7 elements are decoded
// from a buffer of exactly `readable` bytes that ends at an inaccessible
// page -- so any read past it faults -- with the slack filled with zeros,
// ones and random bytes; both tiers must give the scalar decode of the
// exact payload.  A payload shortened by 1-8 bytes with its true bytes
// still readable after it must throw in both tiers: the slack never hides
// a short zsize.
TYPED_TEST(KernelTypedTest, DecodeWithReadableSlackMatchesScalar) {
  using T = TypeParam;
  using Bits = typename FloatTraits<T>::Bits;
  constexpr std::size_t kVecLanes = 32 / sizeof(T);  // lanes per AVX2 group
  constexpr std::size_t kHalfLanes = 16 / sizeof(T);  // lanes per 128-bit half
  Rng rng(2411);
  for (int nb = 1; nb <= static_cast<int>(sizeof(T)); ++nb) {
    std::set<unsigned> rows;
    const std::vector<unsigned> codes = CommitTableRowCodes<T>(nb, rows);
    ReqPlan plan;
    plan.req_length = static_cast<std::uint8_t>(8 * nb);
    plan.shift = 0;
    plan.num_bytes = static_cast<std::uint8_t>(nb);
    // A gather loop's read guard (every lane taking nb bytes, plus a word)
    // and the expand loop's (half 0's lanes taking nb bytes, plus half 1's
    // 16-byte load), and one byte short of the latter.
    const std::size_t gather_guard =
        kVecLanes * static_cast<std::size_t>(nb) + sizeof(T);
    const std::size_t half_guard =
        kHalfLanes * static_cast<std::size_t>(nb) + 16;
    for (std::size_t tail = 0; tail < 8; ++tail) {
      std::vector<unsigned> all = codes;
      const std::vector<unsigned> tail_codes =
          RandomReachableCodes(tail, nb, rng);
      all.insert(all.end(), tail_codes.begin(), tail_codes.end());
      const std::vector<T> v = WordsWithCodes<T>(all, nb, rng);
      const std::size_t n = v.size();
      for (const T mu : {T(0), T(0.75)}) {
        std::vector<std::byte> enc(EncodeCapacity<T>(n));
        const std::size_t size =
            ScalarOps<T>().encode_c(v.data(), n, mu, plan, enc.data());
        std::vector<T> want(n);
        {
          const std::vector<std::byte> exact(enc.begin(),
                                             enc.begin() + size);
          ScalarOps<T>().decode_c(exact.data(), size, size, mu, plan,
                                  want.data(), n);
        }
        for (const std::size_t slack :
             {std::size_t{0}, std::size_t{1}, gather_guard, half_guard - 1,
              half_guard, std::size_t{64}}) {
          for (int fill = 0; fill < 3; ++fill) {
            const std::string what =
                "nb=" + std::to_string(nb) + " tail=" + std::to_string(tail) +
                " mu=" + std::to_string(mu) + " slack=" +
                std::to_string(slack) + " fill=" + std::to_string(fill);
            std::vector<std::byte> bytes(enc.begin(), enc.begin() + size);
            for (std::size_t k = 0; k < slack; ++k) {
              bytes.push_back(fill == 0   ? std::byte{0x00}
                              : fill == 1 ? std::byte{0xFF}
                                          : static_cast<std::byte>(rng.Next()));
            }
            const GuardedBytes buf(bytes);
            const std::size_t readable = buf.size();
            for (const auto* ops : {&ScalarOps<T>(), &Avx2Ops<T>()}) {
              std::vector<T> got(n);
              ops->decode_c(buf.data(), size, readable, mu, plan, got.data(),
                            n);
              for (std::size_t k = 0; k < n; ++k) {
                ASSERT_EQ(std::bit_cast<Bits>(got[k]),
                          std::bit_cast<Bits>(want[k]))
                    << what << " i=" << k;
              }
              for (std::size_t cut = 1; cut <= 8 && cut <= size; ++cut) {
                EXPECT_THROW(ops->decode_c(buf.data(), size - cut, readable,
                                           mu, plan, got.data(), n),
                             Error)
                    << what << " cut=" << cut;
              }
            }
          }
        }
      }
    }
  }
}

// The AVX2 decode's read guard is tight.  A half whose lanes all take nb
// bytes loads its 16 bytes at the widest offset from the group's cursor
// (4 * nb for float, 2 * nb for double); in a block where every lane has
// lead code 0, every half does, and decoding it with each slack from 0 to
// past the guard puts that widest read at every distance from the end of
// the readable bytes, which end at an inaccessible page.  Both tiers must
// give the scalar decode of the exact payload.
TYPED_TEST(KernelTypedTest, WidestGroupReadStaysInsideReadable) {
  using T = TypeParam;
  using Bits = typename FloatTraits<T>::Bits;
  Rng rng(2707);
  for (int nb = 1; nb <= static_cast<int>(sizeof(T)); ++nb) {
    ReqPlan plan;
    plan.req_length = static_cast<std::uint8_t>(8 * nb);
    plan.shift = 0;
    plan.num_bytes = static_cast<std::uint8_t>(nb);
    const std::vector<T> v =
        WordsWithCodes<T>(std::vector<unsigned>(67, 0u), nb, rng);
    const std::size_t n = v.size();
    std::vector<std::byte> enc(EncodeCapacity<T>(n));
    const std::size_t size =
        ScalarOps<T>().encode_c(v.data(), n, T(0), plan, enc.data());
    std::vector<T> want(n);
    ScalarOps<T>().decode_c(enc.data(), size, size, T(0), plan, want.data(),
                            n);
    for (std::size_t slack = 0; slack <= 64; ++slack) {
      std::vector<std::byte> bytes(enc.begin(), enc.begin() + size);
      for (std::size_t k = 0; k < slack; ++k) {
        bytes.push_back(static_cast<std::byte>(rng.Next()));
      }
      const GuardedBytes buf(bytes);
      for (const auto* ops : {&ScalarOps<T>(), &Avx2Ops<T>()}) {
        std::vector<T> got(n);
        ops->decode_c(buf.data(), size, buf.size(), T(0), plan, got.data(),
                      n);
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(std::bit_cast<Bits>(got[k]), std::bit_cast<Bits>(want[k]))
              << "nb=" << nb << " slack=" << slack << " i=" << k;
        }
      }
    }
  }
}

TEST(KernelDispatch, TablesAndKindAreCoherent) {
  // ActiveOps must alias one of the two public tables, and KindName must
  // round-trip the enum.
  EXPECT_STREQ(kernels::KindName(kernels::Kind::kScalar), "scalar");
  EXPECT_STREQ(kernels::KindName(kernels::Kind::kAvx2), "avx2");
  const auto kind = kernels::ActiveKind();
  if (kind == kernels::Kind::kAvx2) {
    EXPECT_TRUE(kernels::Avx2Supported());
    EXPECT_EQ(&kernels::ActiveOps<float>(), &kernels::Avx2Ops<float>());
  } else {
    EXPECT_EQ(&kernels::ActiveOps<float>(), &kernels::ScalarOps<float>());
  }
}

TEST(KernelDispatch, CapacityIsMonotonicAndCoversPayload) {
  // FramePayloadCapacity must dominate the sum of worst-case block payloads.
  for (std::uint32_t bs : {64u, 128u, 256u}) {
    const std::uint64_t nb = 10;
    const std::size_t data_bytes = std::size_t{nb} * bs * sizeof(float);
    const std::size_t cap = kernels::FramePayloadCapacity(nb, bs, data_bytes);
    EXPECT_GE(cap, nb * MaxBlockPayload<float>(bs) + kernels::kCommitSlack);
  }
}

}  // namespace
}  // namespace szx
