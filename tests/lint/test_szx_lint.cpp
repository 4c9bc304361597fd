// Self-tests for szx-lint (tools/lint).  Each rule gets a deliberately
// seeded violation that must be caught, a clean counterpart that must not
// be flagged, and the allow-directive machinery is exercised end to end.
#include "linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace szx::lint {
namespace {

int Count(const std::vector<Finding>& fs, std::string_view rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(SzxLint, CatchesSeededMemcpy) {
  const auto fs = LintText("decode.cpp",
                           "void f(void* d, const void* s, size_t n) {\n"
                           "  std::memcpy(d, s, n);\n"
                           "}\n");
  ASSERT_EQ(Count(fs, "raw-memcpy"), 1);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(SzxLint, CatchesMemmoveToo) {
  const auto fs = LintText("x.cpp", "void f() { memmove(a, b, n); }\n");
  EXPECT_EQ(Count(fs, "raw-memcpy"), 1);
}

TEST(SzxLint, IgnoresMemcpyInCommentsAndStrings) {
  const auto fs = LintText("x.cpp",
                           "// memcpy(a, b, n) in a comment\n"
                           "const char* s = \"memcpy(a, b, n)\";\n"
                           "/* memmove(a, b, n) */\n");
  EXPECT_EQ(Count(fs, "raw-memcpy"), 0);
}

TEST(SzxLint, IgnoresIdentifiersContainingMemcpy) {
  const auto fs = LintText("x.cpp", "void my_memcpy_stats(int n);\n");
  EXPECT_EQ(Count(fs, "raw-memcpy"), 0);
}

TEST(SzxLint, CatchesReinterpretCast) {
  const auto fs = LintText(
      "x.cpp", "auto* p = reinterpret_cast<const float*>(bytes.data());\n");
  EXPECT_EQ(Count(fs, "reinterpret-cast"), 1);
}

TEST(SzxLint, CatchesPtrArith) {
  const auto fs =
      LintText("x.cpp", "const std::byte* p = buf.data() + offset;\n");
  EXPECT_EQ(Count(fs, "ptr-arith"), 1);
}

TEST(SzxLint, SubspanIsClean) {
  const auto fs = LintText("x.cpp", "auto s = buf.subspan(offset, n);\n");
  EXPECT_TRUE(fs.empty());
}

TEST(SzxLint, CatchesResizeFromHeaderField) {
  const auto fs = LintText("x.cpp", "out.resize(h.num_elements);\n");
  EXPECT_EQ(Count(fs, "unchecked-alloc"), 1);
}

TEST(SzxLint, CatchesVectorCtorFromHeaderField) {
  const auto fs =
      LintText("x.cpp", "std::vector<float> out(h.num_elements);\n");
  EXPECT_EQ(Count(fs, "unchecked-alloc"), 1);
}

TEST(SzxLint, CatchesNewArrayFromHeaderField) {
  const auto fs =
      LintText("x.cpp", "auto* p = new float[h.payload_bytes];\n");
  EXPECT_EQ(Count(fs, "unchecked-alloc"), 1);
}

TEST(SzxLint, CheckedAllocSilencesAllocRule) {
  const auto fs = LintText(
      "x.cpp",
      "out.resize(cur.CheckedAlloc(h.num_elements, sizeof(float)));\n");
  EXPECT_EQ(Count(fs, "unchecked-alloc"), 0);
}

TEST(SzxLint, AllocFromLocalCountIsClean) {
  const auto fs = LintText("x.cpp", "out.resize(data.size());\n");
  EXPECT_EQ(Count(fs, "unchecked-alloc"), 0);
}

TEST(SzxLint, CatchesNarrowingCastOfSize) {
  const auto fs = LintText(
      "x.cpp",
      "auto z = static_cast<std::uint16_t>(section.size());\n");
  EXPECT_EQ(Count(fs, "unchecked-narrow"), 1);
}

TEST(SzxLint, CheckedNarrowIsClean) {
  const auto fs = LintText(
      "x.cpp", "auto z = CheckedNarrow<std::uint16_t>(section.size());\n");
  EXPECT_EQ(Count(fs, "unchecked-narrow"), 0);
}

TEST(SzxLint, WideningCastIsClean) {
  const auto fs = LintText(
      "x.cpp", "auto z = static_cast<std::uint64_t>(section.size());\n");
  EXPECT_EQ(Count(fs, "unchecked-narrow"), 0);
}

TEST(SzxLint, NarrowingCastOfLoopIndexIsClean) {
  const auto fs = LintText("x.cpp", "auto z = static_cast<std::uint16_t>(i);\n");
  EXPECT_EQ(Count(fs, "unchecked-narrow"), 0);
}

TEST(SzxLint, CatchesSimdLoadStoreIntrinsics) {
  const auto fs = LintText("x.cpp",
                           "__m256 v = _mm256_loadu_ps(p + i);\n"
                           "_mm256_store_si256(reinterpret_cast<__m256i*>(q), t);\n"
                           "_mm_stream_si128(dst, w);\n");
  EXPECT_EQ(Count(fs, "simd-mem"), 3);
}

TEST(SzxLint, NonMemorySimdIntrinsicsAreClean) {
  const auto fs = LintText("x.cpp",
                           "__m256 m = _mm256_set1_ps(1.0f);\n"
                           "__m256 s = _mm256_min_ps(a, b);\n"
                           "int k = _mm256_movemask_ps(c);\n");
  EXPECT_EQ(Count(fs, "simd-mem"), 0);
}

TEST(SzxLint, CatchesSimdGatherIntrinsics) {
  const auto fs = LintText(
      "x.cpp",
      "__m256i w = _mm256_i32gather_epi32(base, idx, 1);\n"
      "__m256i v = _mm256_i64gather_epi64(base64, idx64, 1);\n");
  EXPECT_EQ(Count(fs, "simd-mem"), 2);
}

TEST(SzxLint, SimdGatherAllowWithReasonSuppresses) {
  const auto fs = LintText(
      "x.cpp",
      "// szx-lint: allow(simd-mem) -- loop guard keeps every lane index "
      "within mid_size\n"
      "__m256i w = _mm256_i32gather_epi32(base, idx, 1);\n");
  EXPECT_EQ(Count(fs, "simd-mem"), 0);
}

TEST(SzxLint, SimdMemAllowWithReasonSuppresses) {
  const auto fs = LintText(
      "x.cpp",
      "// szx-lint: allow(simd-mem) -- loop bound keeps i+8 <= n\n"
      "__m256 v = _mm256_loadu_ps(p + i);\n");
  EXPECT_EQ(Count(fs, "simd-mem"), 0);
}

TEST(SzxLint, SimdMemInCommentIsIgnored) {
  const auto fs = LintText("x.cpp", "// _mm256_loadu_ps in prose\nint x;\n");
  EXPECT_EQ(Count(fs, "simd-mem"), 0);
}

// --- allow directives ----------------------------------------------------

TEST(SzxLint, TrailingAllowSuppresses) {
  const auto fs = LintText(
      "x.cpp",
      "std::memcpy(d, s, n);  // szx-lint: allow(raw-memcpy) -- trusted\n");
  EXPECT_TRUE(fs.empty());
}

TEST(SzxLint, StandaloneAllowSuppressesNextCodeLine) {
  const auto fs = LintText("x.cpp",
                           "// szx-lint: allow(raw-memcpy) -- trusted\n"
                           "std::memcpy(d, s, n);\n");
  EXPECT_TRUE(fs.empty());
}

TEST(SzxLint, StackedAllowsSuppressOneStatement) {
  const auto fs = LintText(
      "x.cpp",
      "// szx-lint: allow(raw-memcpy) -- trusted fixture\n"
      "// szx-lint: allow(ptr-arith) -- trusted fixture\n"
      "std::memcpy(buf.data() + off, s, n);\n");
  EXPECT_TRUE(fs.empty()) << FormatFinding(fs.empty() ? Finding{} : fs[0]);
}

TEST(SzxLint, AllowWithoutReasonIsViolation) {
  const auto fs = LintText(
      "x.cpp", "std::memcpy(d, s, n);  // szx-lint: allow(raw-memcpy)\n");
  EXPECT_EQ(Count(fs, "unexplained-allow"), 1);
  EXPECT_EQ(Count(fs, "raw-memcpy"), 0);  // still suppressed, but reported
}

TEST(SzxLint, UnusedAllowIsViolation) {
  const auto fs = LintText(
      "x.cpp", "int x = 0;  // szx-lint: allow(raw-memcpy) -- stale\n");
  EXPECT_EQ(Count(fs, "unused-allow"), 1);
}

TEST(SzxLint, AllowForWrongRuleDoesNotSuppress) {
  const auto fs = LintText(
      "x.cpp",
      "std::memcpy(d, s, n);  // szx-lint: allow(ptr-arith) -- wrong\n");
  EXPECT_EQ(Count(fs, "raw-memcpy"), 1);
  EXPECT_EQ(Count(fs, "unused-allow"), 1);
}

TEST(SzxLint, UnknownRuleNameIsViolation) {
  const auto fs = LintText(
      "x.cpp", "int x;  // szx-lint: allow(no-such-rule) -- whatever\n");
  EXPECT_EQ(Count(fs, "unknown-rule"), 1);
}

TEST(SzxLint, ProseMentionOfDirectiveSyntaxIsIgnored)  {
  const auto fs = LintText(
      "x.cpp",
      "// Suppress with a trailing comment of the form\n"
      "//   // szx-lint: allow(some-rule) -- reason\n"
      "int x = 0;\n");
  EXPECT_TRUE(fs.empty());
}

// --- allowlist -----------------------------------------------------------

TEST(SzxLint, AllowlistedFilesAreSkipped) {
  const std::string code = "std::memcpy(d, s, n);\n";
  EXPECT_TRUE(LintText("src/core/byte_cursor.hpp", code).empty());
  EXPECT_TRUE(LintText("src/core/stream.hpp", code).empty());
  EXPECT_TRUE(LintText("src/core/bitops.hpp", code).empty());
  EXPECT_TRUE(LintText("src/core/arena.hpp", code).empty());
  EXPECT_FALSE(LintText("src/core/upstream.hpp", code).empty());
  EXPECT_FALSE(LintText("src/core/format.hpp", code).empty());
}

TEST(SzxLint, StrictZonePathsAreRecognized) {
  EXPECT_TRUE(IsStrictZone("src/resilience/salvage.cpp"));
  EXPECT_TRUE(IsStrictZone("/root/repo/src/resilience/salvage.hpp"));
  EXPECT_TRUE(IsStrictZone("resilience/salvage.cpp"));
  EXPECT_TRUE(IsStrictZone("src/serve/server.cpp"));
  EXPECT_TRUE(IsStrictZone("/root/repo/src/serve/protocol.hpp"));
  EXPECT_TRUE(IsStrictZone("serve/transport.hpp"));
  EXPECT_FALSE(IsStrictZone("src/core/format.hpp"));
  EXPECT_FALSE(IsStrictZone("src/iosim/retry_sim.cpp"));
  // tools/ adapters (FdTransport, the daemon) sit outside the zone: the
  // sockaddr ABI casts there carry explained allow directives.
  EXPECT_FALSE(IsStrictZone("tools/serve_net.hpp"));
  EXPECT_FALSE(IsStrictZone("tools/szx_serve.cpp"));
}

TEST(SzxLint, ServeStrictZoneRefusesAllowDirectives) {
  // The network-facing parser must fix findings, not suppress them.
  const auto fs = LintText(
      "src/serve/protocol.cpp",
      "// szx-lint: allow(raw-memcpy) -- framing is hot\n"
      "std::memcpy(d, s, n);\n");
  EXPECT_EQ(Count(fs, "raw-memcpy"), 1);
  EXPECT_EQ(Count(fs, "strict-zone"), 1);
}

TEST(SzxLint, StrictZoneRefusesAllowDirectives) {
  // In src/resilience/ a directive neither suppresses the finding nor
  // passes hygiene: both the underlying violation and a strict-zone
  // finding surface.
  const auto fs = LintText(
      "src/resilience/salvage.cpp",
      "// szx-lint: allow(raw-memcpy) -- totally safe, promise\n"
      "std::memcpy(d, s, n);\n");
  EXPECT_EQ(Count(fs, "raw-memcpy"), 1);
  EXPECT_EQ(Count(fs, "strict-zone"), 1);
}

TEST(SzxLint, StrictZoneIgnoresAllowlistBasenames) {
  // Even a file named like an audited primitive is linted inside the zone.
  const auto fs = LintText("src/resilience/stream.hpp",
                           "auto* p = reinterpret_cast<float*>(q);\n");
  EXPECT_EQ(Count(fs, "reinterpret-cast"), 1);
  EXPECT_TRUE(IsAllowlisted("src/core/stream.hpp"));
  EXPECT_TRUE(LintText("src/core/stream.hpp",
                       "auto* p = reinterpret_cast<float*>(q);\n")
                  .empty());
}

TEST(SzxLint, StrictZoneCleanCodeStaysClean) {
  const auto fs = LintText("src/resilience/salvage.cpp",
                           "out.resize(cur.CheckedAlloc(h.num_elements, 4, "
                           "1));\n");
  EXPECT_TRUE(fs.empty());
}

TEST(SzxLint, RuleListIsStable) {
  const auto& rules = Rules();
  EXPECT_GE(rules.size(), 5u);
  for (const auto& r : rules) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_FALSE(r.summary.empty());
  }
}

TEST(SzxLint, FindingsAreSortedByLine) {
  const auto fs = LintText("x.cpp",
                           "auto* p = reinterpret_cast<float*>(q);\n"
                           "std::memcpy(d, s, n);\n"
                           "out.resize(h.num_elements);\n");
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(fs[2].line, 3);
}

TEST(SzxLint, FormatFindingIsClickable) {
  Finding f{"src/a.cpp", 12, "raw-memcpy", "bad"};
  EXPECT_EQ(FormatFinding(f), "src/a.cpp:12: [raw-memcpy] bad");
}

TEST(SzxLint, RawStringContentIsIgnored) {
  const auto fs = LintText(
      "x.cpp", "const char* s = R\"(std::memcpy(d, s, n))\";\n");
  EXPECT_TRUE(fs.empty());
}

TEST(SzxLint, MultiLineAllocArgumentsAreSeen) {
  const auto fs = LintText("x.cpp",
                           "std::vector<float> out(\n"
                           "    h.num_elements);\n");
  EXPECT_EQ(Count(fs, "unchecked-alloc"), 1);
}

// --- memory-order / szx-mo justifications --------------------------------

TEST(SzxLintMo, BareMemoryOrderTokenNeedsJustification) {
  const auto fs = LintText(
      "x.cpp", "auto v = flag.load(std::memory_order_acquire);\n");
  EXPECT_EQ(Count(fs, "memory-order"), 1);
}

TEST(SzxLintMo, TrailingJustificationSatisfiesTheRule) {
  const auto fs = LintText(
      "x.cpp",
      "auto v = flag.load(std::memory_order_acquire);  "
      "// szx-mo: acquire; pairs with the release store in Publish\n");
  EXPECT_EQ(Count(fs, "memory-order"), 0);
  EXPECT_EQ(Count(fs, "stale-mo"), 0);
}

TEST(SzxLintMo, StackedJustificationCoversTheNextStatement) {
  const auto fs = LintText(
      "x.cpp",
      "// szx-mo: release; publishes the filled buffer to the consumer\n"
      "ready.store(true, std::memory_order_release);\n");
  EXPECT_EQ(Count(fs, "memory-order"), 0);
  EXPECT_EQ(Count(fs, "stale-mo"), 0);
}

TEST(SzxLintMo, OneJustificationCoversAWrappedStatement) {
  // compare_exchange spells two orders, possibly on a continuation line;
  // a single comment on the statement's first line must cover both.
  const auto fs = LintText(
      "x.cpp",
      "// szx-mo: acq_rel success / acquire failure; CAS loop over head\n"
      "while (!head.compare_exchange_weak(cur, next,\n"
      "                                   std::memory_order_acq_rel,\n"
      "                                   std::memory_order_acquire)) {\n"
      "}\n");
  EXPECT_EQ(Count(fs, "memory-order"), 0);
  EXPECT_EQ(Count(fs, "stale-mo"), 0);
}

TEST(SzxLintMo, JustificationIsHonoredInTheStrictZone) {
  // szx-mo is documentation, not a suppression: unlike allow() it is
  // accepted in src/resilience/.
  const auto fs = LintText(
      "src/resilience/salvage.cpp",
      "done.store(true, std::memory_order_release);  "
      "// szx-mo: release; pairs with the acquire in the reader\n");
  EXPECT_EQ(Count(fs, "memory-order"), 0);
  EXPECT_EQ(Count(fs, "strict-zone"), 0);
}

TEST(SzxLintMo, ExplainedAllowSuppressesOutsideStrictZone) {
  const auto fs = LintText(
      "x.cpp",
      "auto v = flag.load(std::memory_order_relaxed);  "
      "// szx-lint: allow(memory-order) -- fixture exercising the decoder\n");
  EXPECT_EQ(Count(fs, "memory-order"), 0);
}

TEST(SzxLintMo, StrictZoneRefusesMemoryOrderAllow) {
  const auto fs = LintText(
      "src/resilience/salvage.cpp",
      "auto v = flag.load(std::memory_order_relaxed);  "
      "// szx-lint: allow(memory-order) -- trust me\n");
  EXPECT_EQ(Count(fs, "memory-order"), 1);
  EXPECT_EQ(Count(fs, "strict-zone"), 1);
}

TEST(SzxLintMo, EmptyJustificationIsStale) {
  const auto fs = LintText(
      "x.cpp",
      "auto v = flag.load(std::memory_order_acquire);  // szx-mo:\n");
  EXPECT_EQ(Count(fs, "stale-mo"), 1);
  // An empty comment justifies nothing, so the site is still bare.
  EXPECT_EQ(Count(fs, "memory-order"), 1);
}

TEST(SzxLintMo, JustificationAttachedToNothingIsStale) {
  const auto fs = LintText(
      "x.cpp", "int x = 0;  // szx-mo: relaxed; counter, joined later\n");
  EXPECT_EQ(Count(fs, "stale-mo"), 1);
}

// --- implicit-seq-cst ----------------------------------------------------

TEST(SzxLintSeqCst, FetchAddWithNoOrderIsFlaggedOnAnyReceiver) {
  const auto fs = LintText("x.cpp", "counter.fetch_add(1);\n");
  EXPECT_EQ(Count(fs, "implicit-seq-cst"), 1);
}

TEST(SzxLintSeqCst, FetchAddWithSpelledOrderIsClean) {
  const auto fs = LintText(
      "x.cpp",
      "counter.fetch_add(1, std::memory_order_relaxed);  "
      "// szx-mo: relaxed; conservation counter, read after the join\n");
  EXPECT_EQ(Count(fs, "implicit-seq-cst"), 0);
}

TEST(SzxLintSeqCst, BareLoadOnDeclaredAtomicIsFlagged) {
  const auto fs = LintText("x.cpp",
                           "std::atomic<int> gate{0};\n"
                           "int v = gate.load();\n");
  EXPECT_EQ(Count(fs, "implicit-seq-cst"), 1);
}

TEST(SzxLintSeqCst, BareLoadOnNonAtomicReceiverIsClean) {
  // load/store/exchange are ambiguous names; without a tracked atomic
  // declaration they must not fire (weak_ptr::lock-style false positives).
  const auto fs = LintText("x.cpp",
                           "Codebook cb;\n"
                           "auto t = cb.load();\n");
  EXPECT_EQ(Count(fs, "implicit-seq-cst"), 0);
}

TEST(SzxLintSeqCst, OperatorFormsOnDeclaredAtomicAreFlagged) {
  const auto fs = LintText("x.cpp",
                           "std::atomic<int> hits{0};\n"
                           "++hits;\n"
                           "hits += 2;\n");
  EXPECT_EQ(Count(fs, "implicit-seq-cst"), 2);
}

TEST(SzxLintSeqCst, OperatorsOnPlainIntsAreClean) {
  const auto fs = LintText("x.cpp", "int i = 0;\n++i;\ni += 2;\n");
  EXPECT_EQ(Count(fs, "implicit-seq-cst"), 0);
}

// --- naked-lock / condvar-wait -------------------------------------------

TEST(SzxLintLock, DirectLockOnDeclaredMutexIsFlagged) {
  const auto fs = LintText("x.cpp",
                           "std::mutex m;\n"
                           "m.lock();\n"
                           "m.unlock();\n");
  EXPECT_EQ(Count(fs, "naked-lock"), 2);
}

TEST(SzxLintLock, LockOnUntrackedReceiverIsClean) {
  // weak_ptr::lock() and friends share the method name; only receivers
  // declared as mutexes fire.
  const auto fs = LintText("x.cpp",
                           "std::weak_ptr<int> w;\n"
                           "auto sp = w.lock();\n");
  EXPECT_EQ(Count(fs, "naked-lock"), 0);
}

TEST(SzxLintLock, RaiiMutexLockIsClean) {
  const auto fs = LintText("x.cpp",
                           "sync::Mutex m;\n"
                           "void f() { sync::MutexLock lock(m); }\n");
  EXPECT_EQ(Count(fs, "naked-lock"), 0);
  EXPECT_EQ(Count(fs, "condvar-wait"), 0);
}

TEST(SzxLintCv, RawCondvarDeclarationIsFlagged) {
  const auto fs = LintText("x.cpp", "std::condition_variable cv;\n");
  EXPECT_EQ(Count(fs, "condvar-wait"), 1);
}

TEST(SzxLintCv, WaitPassingHeldRaiiLockIsClean) {
  const auto fs = LintText("x.cpp",
                           "sync::Mutex m;\n"
                           "sync::CondVar cv;\n"
                           "void f() {\n"
                           "  sync::MutexLock lock(m);\n"
                           "  while (!ready) cv.Wait(lock);\n"
                           "}\n");
  EXPECT_EQ(Count(fs, "condvar-wait"), 0);
}

TEST(SzxLintCv, WaitPassingSomethingElseIsFlagged) {
  const auto fs = LintText("x.cpp",
                           "sync::Mutex m;\n"
                           "sync::CondVar cv;\n"
                           "void f() { cv.Wait(m); }\n");
  EXPECT_EQ(Count(fs, "condvar-wait"), 1);
}

// --- hot-alloc -----------------------------------------------------------

TEST(SzxLintHot, MarkedFileRejectsAllocation) {
  const auto fs = LintText(
      "kernels.cpp",
      "// szx-hot: decode inner loop\n"
      "void f(std::vector<int>& v) {\n"
      "  v.push_back(1);\n"
      "  auto* p = malloc(64);\n"
      "  auto* q = new Block();\n"
      "}\n");
  EXPECT_EQ(Count(fs, "hot-alloc"), 3);
}

TEST(SzxLintHot, UnmarkedFileIsExemptFromTheRule) {
  const auto fs = LintText("kernels.cpp",
                           "void f(std::vector<int>& v) { v.push_back(1); }\n");
  EXPECT_EQ(Count(fs, "hot-alloc"), 0);
}

TEST(SzxLintHot, ExplainedAllowSuppressesInMarkedFile) {
  const auto fs = LintText(
      "kernels.cpp",
      "// szx-hot: decode inner loop\n"
      "void f(std::vector<int>& v) {\n"
      "  v.reserve(64);  // szx-lint: allow(hot-alloc) -- one-time warm-up "
      "before the loop\n"
      "}\n");
  EXPECT_EQ(Count(fs, "hot-alloc"), 0);
}

TEST(SzxLintHot, PlacementishIdentifiersDoNotFire) {
  // `new` only fires when followed by a type or array form; identifiers
  // merely containing the letters are untouched by tokenization.
  const auto fs = LintText("kernels.cpp",
                           "// szx-hot: decode inner loop\n"
                           "int renew_count = news_total;\n");
  EXPECT_EQ(Count(fs, "hot-alloc"), 0);
}

// --- missing-nodiscard ---------------------------------------------------

TEST(SzxLintNodiscard, StatusReturningHeaderDeclIsFlagged) {
  const auto fs = LintText(
      "src/core/validate.hpp",
      "ValidationReport ValidateStream(ByteSpan stream, bool deep);\n");
  EXPECT_EQ(Count(fs, "missing-nodiscard"), 1);
}

TEST(SzxLintNodiscard, AnnotatedDeclIsClean) {
  const auto fs = LintText(
      "src/core/validate.hpp",
      "[[nodiscard]] ValidationReport ValidateStream(ByteSpan stream);\n");
  EXPECT_EQ(Count(fs, "missing-nodiscard"), 0);
}

TEST(SzxLintNodiscard, BoolCheckPrefixNamesAreFlagged) {
  const auto fs = LintText("a.hpp",
                           "bool NextFrame(std::vector<float>& out);\n"
                           "bool TryAcquire();\n");
  EXPECT_EQ(Count(fs, "missing-nodiscard"), 2);
}

TEST(SzxLintNodiscard, PrefixMustEndAtAWordBoundary) {
  // "Nextish" is not a Next* check; the prefix must be followed by an
  // uppercase letter or the end of the name.
  const auto fs = LintText("a.hpp", "bool Nextish(int x);\n");
  EXPECT_EQ(Count(fs, "missing-nodiscard"), 0);
}

TEST(SzxLintNodiscard, RuleOnlyAuditsHeaders) {
  const auto fs = LintText(
      "src/core/validate.cpp",
      "ValidationReport ValidateStream(ByteSpan stream, bool deep) {\n"
      "  return {};\n"
      "}\n");
  EXPECT_EQ(Count(fs, "missing-nodiscard"), 0);
}

// --- uninit-bytes --------------------------------------------------------

TEST(SzxLintUninit, SizedConstructorNeedsAReason) {
  const auto fs = LintText("x.cpp", "ByteBuffer out(n);\n");
  ASSERT_EQ(Count(fs, "uninit-bytes"), 1);
  EXPECT_EQ(fs[0].line, 1);
}

TEST(SzxLintUninit, SizedTemporaryNeedsAReason) {
  const auto fs = LintText("x.cpp", "auto out = ByteBuffer(n + 8);\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 1);
}

TEST(SzxLintUninit, ResizeOnDeclaredByteBufferNeedsAReason) {
  const auto fs = LintText("x.cpp",
                           "void Grow(ByteBuffer& out, std::size_t n) {\n"
                           "  out.resize(n);\n"
                           "}\n");
  ASSERT_EQ(Count(fs, "uninit-bytes"), 1);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(SzxLintUninit, FillValueIsClean) {
  const auto fs = LintText("x.cpp",
                           "ByteBuffer out(n, std::byte{0});\n"
                           "out.resize(n + 4, std::byte{0});\n"
                           "ByteBuffer copy(a.begin(), a.end());\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 0);
}

TEST(SzxLintUninit, TrailingAndStackedReasonsSatisfyTheRule) {
  const auto fs = LintText(
      "x.cpp",
      "void Read(Transport& t, ByteBuffer& body, std::size_t n) {\n"
      "  ByteBuffer head(16);  // szx-overwrite: ReadExact fills it or throws\n"
      "  // szx-overwrite: ReadExact below fills all n bytes or throws\n"
      "  body.resize(n);\n"
      "}\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 0);
}

TEST(SzxLintUninit, ReasonIsHonoredInTheStrictZone) {
  // Like szx-mo, szx-overwrite is documentation, not a suppression.
  const auto fs = LintText(
      "src/serve/client.cpp",
      "ByteBuffer body(n);  // szx-overwrite: ReadExact fills every byte\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 0);
  EXPECT_EQ(Count(fs, "strict-zone"), 0);
}

TEST(SzxLintUninit, UnresolvedAndOtherReceiversAreLeftAlone) {
  const auto fs = LintText("x.cpp",
                           "rsp.body.resize(n);\n"
                           "std::vector<float> v;\n"
                           "v.resize(n);\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 0);
}

TEST(SzxLintUninit, DeclarationsCopiesAndMovesAreClean) {
  const auto fs = LintText(
      "x.hpp",
      "ByteBuffer Wrap(const ByteBuffer& payload);\n"
      "ByteBuffer Bytes(std::span<const float> v);\n"
      "ByteBuffer Empty();\n"
      "void Keep(const ByteBuffer& a) {\n"
      "  ByteBuffer b(a);\n"
      "  ByteBuffer c(std::move(b));\n"
      "}\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 0);
}

TEST(SzxLintUninit, ParameterScopeEndsWithItsFunction) {
  // `out` is a ByteBuffer only inside the first function's body.
  const auto fs = LintText("x.cpp",
                           "void A(ByteBuffer& out) { out.clear(); }\n"
                           "void B(std::vector<int>& out, std::size_t n) {\n"
                           "  out.resize(n);\n"
                           "}\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 0);
}

TEST(SzxLintUninit, EmptyReasonIsAFindingAndJustifiesNothing) {
  const auto fs = LintText("x.cpp", "ByteBuffer out(n);  // szx-overwrite:\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 2);
}

TEST(SzxLintUninit, ReasonAttachedToNothingIsAFinding) {
  const auto fs =
      LintText("x.cpp", "int x = 0;  // szx-overwrite: filled later\n");
  EXPECT_EQ(Count(fs, "uninit-bytes"), 1);
}

TEST(SzxLintUninit, ExplainedAllowSuppressesOutsideStrictZone) {
  const auto fs = LintText(
      "x.cpp",
      "ByteBuffer out(n);  "
      "// szx-lint: allow(uninit-bytes) -- fixture reads no byte\n");
  EXPECT_TRUE(fs.empty());
}

// --- rule registry and JSON output ---------------------------------------

TEST(SzxLint, NewRuleFamiliesAreRegistered) {
  const auto& rules = Rules();
  for (const std::string_view name :
       {"memory-order", "implicit-seq-cst", "naked-lock", "condvar-wait",
        "hot-alloc", "missing-nodiscard", "stale-mo", "uninit-bytes"}) {
    const bool present =
        std::any_of(rules.begin(), rules.end(),
                    [&](const RuleInfo& r) { return r.name == name; });
    EXPECT_TRUE(present) << name;
  }
}

TEST(SzxLintJson, EmptyFindingsRenderTheFixedSchema) {
  EXPECT_EQ(RenderJson({}),
            "{\"version\": 1, \"findings\": [], \"count\": 0}\n");
}

TEST(SzxLintJson, FindingsRenderWithDeterministicFieldOrder) {
  const std::vector<Finding> fs = {
      {"src/a.cpp", 12, "raw-memcpy", "bad"},
      {"src/b.cpp", 3, "memory-order", "needs szx-mo"},
  };
  EXPECT_EQ(RenderJson(fs),
            "{\"version\": 1, \"findings\": ["
            "{\"file\": \"src/a.cpp\", \"line\": 12, \"rule\": "
            "\"raw-memcpy\", \"message\": \"bad\"}, "
            "{\"file\": \"src/b.cpp\", \"line\": 3, \"rule\": "
            "\"memory-order\", \"message\": \"needs szx-mo\"}"
            "], \"count\": 2}\n");
}

TEST(SzxLintJson, StringsAreRfc8259Escaped) {
  const std::vector<Finding> fs = {
      {"dir\\file.cpp", 1, "r", "say \"hi\"\nthen\ttab\x01"},
  };
  const std::string out = RenderJson(fs);
  EXPECT_NE(out.find("\"dir\\\\file.cpp\""), std::string::npos) << out;
  EXPECT_NE(out.find("say \\\"hi\\\"\\u000athen\\u0009tab\\u0001"),
            std::string::npos)
      << out;
}

TEST(SzxLintJson, RealFindingsRoundTripThroughTheSchema) {
  // Structural self-check over genuine linter output: one findings entry
  // per finding, the count field agrees, and the document is one line.
  const auto fs = LintText("x.cpp",
                           "std::memcpy(d, s, n);\n"
                           "auto v = flag.load(std::memory_order_acquire);\n");
  ASSERT_GE(fs.size(), 2u);
  const std::string out = RenderJson(fs);
  std::size_t entries = 0;
  for (std::size_t at = out.find("{\"file\": "); at != std::string::npos;
       at = out.find("{\"file\": ", at + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, fs.size());
  EXPECT_NE(out.find("\"count\": " + std::to_string(fs.size())),
            std::string::npos);
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

// The decoded-chunk cache is the densest atomics surface in the tree: its
// telemetry counters and stream-id generator name a memory_order on every
// access.  Pin the real files lint-clean so each order keeps its adjacent
// // szx-mo justification and every accessor keeps [[nodiscard]] — a
// regression here means someone weakened the strict memory-order rule or
// the cache drifted out from under it.
TEST(SzxLintTree, ChunkCacheStaysLintClean) {
  for (const char* rel : {"src/core/chunk_cache.hpp",
                          "src/core/chunk_cache.cpp"}) {
    const std::string path = std::string(SZX_TREE_ROOT) + "/" + rel;
    const auto fs = LintFile(path);
    std::string rendered;
    for (const Finding& f : fs) rendered += FormatFinding(f) + "\n";
    EXPECT_TRUE(fs.empty()) << rendered;
  }
}

TEST(SzxLintTree, ChunkCacheIsNotAllowlisted) {
  // The pin above is only meaningful if the rules actually apply there.
  EXPECT_FALSE(IsAllowlisted("src/core/chunk_cache.cpp"));
  EXPECT_FALSE(IsAllowlisted("src/core/chunk_cache.hpp"));
}

// src/serve/ terminates untrusted network bytes, so it lints as a strict
// zone: every file must be clean with zero allow directives.  Pin the real
// tree so a suppression (or a new finding) in the service layer fails CI
// rather than shipping.
TEST(SzxLintTree, ServeStaysLintClean) {
  for (const char* rel :
       {"src/serve/protocol.hpp", "src/serve/protocol.cpp",
        "src/serve/transport.hpp", "src/serve/transport.cpp",
        "src/serve/server.hpp", "src/serve/server.cpp",
        "src/serve/client.hpp", "src/serve/client.cpp"}) {
    const std::string path = std::string(SZX_TREE_ROOT) + "/" + rel;
    ASSERT_TRUE(IsStrictZone(path)) << path;
    const auto fs = LintFile(path);
    std::string rendered;
    for (const Finding& f : fs) rendered += FormatFinding(f) + "\n";
    EXPECT_TRUE(fs.empty()) << rendered;
  }
}

TEST(SzxLintTree, ServeIsNotAllowlisted) {
  EXPECT_FALSE(IsAllowlisted("src/serve/server.cpp"));
  EXPECT_FALSE(IsAllowlisted("src/serve/protocol.cpp"));
}

}  // namespace
}  // namespace szx::lint
