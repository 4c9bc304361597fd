// szx-hot: baseline-codec hot loops; steady state must not allocate.
// Portable scalar BaselineOps table: the reference semantics every SIMD
// tier must reproduce bit-for-bit (tests/core/test_baseline_kernels.cpp).
#include "core/kernels/baseline_impl.hpp"
#include "core/kernels/kernels.hpp"

namespace szx::kernels {
namespace {

void PrequantScalar(const float* src, std::size_t n, double half_inv,
                    std::int32_t* q) {
  detail::PrequantRange(src, 0, n, half_inv, q);
}

void LorenzoDeltaScalar(const std::int32_t* q, const std::int32_t* qy,
                        const std::int32_t* qz, const std::int32_t* qyz,
                        bool has_left, std::size_t n, std::int32_t* d) {
  detail::LorenzoDeltaRange(q, qy, qz, qyz, has_left, 0, n, d);
}

void DequantScalar(const std::int32_t* q, std::size_t n, double twice_eb,
                   float* out) {
  detail::DequantRange(q, 0, n, twice_eb, out);
}

void ZfpFwdXformEntry(std::int32_t* block, int dims) {
  detail::ZfpFwdXformScalar(block, dims);
}

void ZfpInvXformEntry(std::int32_t* block, int dims) {
  detail::ZfpInvXformScalar(block, dims);
}

}  // namespace

const BaselineOps& ScalarBaselineOps() {
  static const BaselineOps kOps = {&PrequantScalar, &LorenzoDeltaScalar,
                                   &DequantScalar, &ZfpFwdXformEntry,
                                   &ZfpInvXformEntry, &detail::ZfpExtractPlane,
                                   &detail::ZfpDepositPlane};
  return kOps;
}

}  // namespace szx::kernels
