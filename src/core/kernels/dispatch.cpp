// szx-hot: per-block dispatch runs millions of times; no allocation.
// Runtime kernel selection: cpuid-style detection once per process, with an
// SZX_KERNEL=scalar|avx2|neon environment override for differential testing
// against the scalar reference.  An unsupported override falls back to
// scalar with a warning; the CLI's --kernel flag layers strict validation on
// top.  This TU builds at the baseline ISA and sees SZX_HAVE_AVX2 only to
// know that the -mavx2 kernel TUs exist; cpuid decides whether they run.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/kernels/kernels.hpp"

namespace szx::kernels {

// Defined in kernels_neon.cpp, the only TU that sees the per-file
// SZX_HAVE_NEON definition.
bool NeonCompiled();

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kAvx2:
      return "avx2";
    case Kind::kNeon:
      return "neon";
    case Kind::kScalar:
      break;
  }
  return "scalar";
}

bool ParseKind(const char* name, Kind& out) {
  if (std::strcmp(name, "scalar") == 0) {
    out = Kind::kScalar;
  } else if (std::strcmp(name, "avx2") == 0) {
    out = Kind::kAvx2;
  } else if (std::strcmp(name, "neon") == 0) {
    out = Kind::kNeon;
  } else {
    return false;
  }
  return true;
}

void ThrowError(const char* what) { throw Error(what); }

bool Avx2Supported() {
#if defined(SZX_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool NeonSupported() {
  // NEON is architecturally mandatory on aarch64, so compiled == supported.
  return NeonCompiled();
}

bool KindCompiled(Kind kind) {
  switch (kind) {
    case Kind::kAvx2:
#if defined(SZX_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case Kind::kNeon:
      return NeonCompiled();
    case Kind::kScalar:
      break;
  }
  return true;
}

bool KindSupported(Kind kind) {
  switch (kind) {
    case Kind::kAvx2:
      return Avx2Supported();
    case Kind::kNeon:
      return NeonSupported();
    case Kind::kScalar:
      break;
  }
  return true;
}

std::array<TierInfo, kNumKinds> KernelTiers() {
  std::array<TierInfo, kNumKinds> tiers{};
  const Kind kinds[kNumKinds] = {Kind::kScalar, Kind::kAvx2, Kind::kNeon};
  for (int i = 0; i < kNumKinds; ++i) {
    tiers[static_cast<std::size_t>(i)] = {kinds[i], KindCompiled(kinds[i]),
                                          KindSupported(kinds[i])};
  }
  return tiers;
}

namespace {

Kind SelectKind() {
  const char* env = std::getenv("SZX_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    Kind requested = Kind::kScalar;
    if (ParseKind(env, requested)) {
      if (KindSupported(requested)) return requested;
      // Fall back rather than fail so the forced-kernel test matrix runs on
      // every build: neon on x86, avx2 on aarch64 or with AVX2 disabled.
      std::fprintf(stderr,
                   "szx: SZX_KERNEL=%s requested but unavailable; using "
                   "scalar kernels\n",
                   env);
      return Kind::kScalar;
    }
    std::fprintf(stderr,
                 "szx: ignoring unknown SZX_KERNEL value '%s' "
                 "(expected scalar|avx2|neon)\n",
                 env);
  }
  // Auto-detection prefers the vector tier of the target: AVX2 on x86,
  // NEON on aarch64.
  if (Avx2Supported()) return Kind::kAvx2;
  if (NeonSupported()) return Kind::kNeon;
  return Kind::kScalar;
}

// -1 = not yet selected; otherwise a Kind value.  Lazy selection may race on
// first use, but every racer computes the same SelectKind() result, so the
// benign double-store is TSan-clean through the atomic.
std::atomic<int> g_kind{-1};

}  // namespace

Kind ActiveKind() {
  // szx-mo: relaxed; self-contained flag, no data published through it
  // (racing first-use selectors all store the same SelectKind() result,
  // per the g_kind note above).
  int k = g_kind.load(std::memory_order_relaxed);
  if (k < 0) {
    k = static_cast<int>(SelectKind());
    // szx-mo: relaxed; same benign-race contract as the load above.
    g_kind.store(k, std::memory_order_relaxed);
  }
  return static_cast<Kind>(k);
}

Kind SetActiveKind(Kind kind) {
  if (!KindSupported(kind)) kind = Kind::kScalar;
  // szx-mo: relaxed; bench/test override of a self-contained flag -- the
  // caller sequences its own subsequent ActiveKind() reads, and
  // cross-thread overrides mid-run are unsupported by contract.
  g_kind.store(static_cast<int>(kind), std::memory_order_relaxed);
  return kind;
}

template <SupportedFloat T>
const BlockOps<T>& ActiveOps() {
  switch (ActiveKind()) {
    case Kind::kAvx2:
      return Avx2Ops<T>();
    case Kind::kNeon:
      return NeonOps<T>();
    case Kind::kScalar:
      break;
  }
  return ScalarOps<T>();
}

template const BlockOps<float>& ActiveOps<float>();
template const BlockOps<double>& ActiveOps<double>();

const BaselineOps& BaselineOpsFor(Kind kind) {
  switch (kind) {
    case Kind::kAvx2:
      return Avx2BaselineOps();
    case Kind::kNeon:
      return NeonBaselineOps();
    case Kind::kScalar:
      break;
  }
  return ScalarBaselineOps();
}

const BaselineOps& ActiveBaselineOps() { return BaselineOpsFor(ActiveKind()); }

}  // namespace szx::kernels
