// szx-hot: steady-state encode/decode kernels; no allocation allowed.
// Portable scalar BlockOps tables (plain-loop block stats and finite range,
// word-wide commits, no intrinsics).
#include "core/kernels/block_kernels_impl.hpp"
#include "core/kernels/kernels.hpp"

namespace szx::kernels {
namespace {

template <SupportedFloat T>
GlobalRange<T> BlockStatsEntry(const T* data, std::size_t n, std::size_t bs,
                               BlockStats<T>* out) {
  return detail::BlockStatsPass<T>(
      data, n, bs, out, [](const T* p, std::size_t len, GlobalRange<T>& r) {
        return detail::BlockStatsScalar<T>(p, len, r);
      });
}

template <SupportedFloat T>
GlobalRange<T> FiniteRangeEntry(const T* data, std::size_t n) {
  return ScanFiniteRange(data, n);
}

template <SupportedFloat T>
std::size_t EncodeCEntry(const T* block, std::size_t n, T mu,
                         const ReqPlan& plan, std::byte* dst) {
  return detail::EncodeCScalar<T>(block, n, mu, plan, dst);
}

template <SupportedFloat T>
void DecodeCEntry(const std::byte* payload, std::size_t payload_size,
                  std::size_t /*readable*/, T mu, const ReqPlan& plan, T* out,
                  std::size_t n) {
  // The differential reference reads nothing past payload_size.
  detail::DecodeCScalarDispatch<T>(payload, payload_size, mu, plan, out, n);
}

}  // namespace

template <SupportedFloat T>
const BlockOps<T>& ScalarOps() {
  static const BlockOps<T> kOps = {&BlockStatsEntry<T>, &FiniteRangeEntry<T>,
                                   &EncodeCEntry<T>, &DecodeCEntry<T>};
  return kOps;
}

template const BlockOps<float>& ScalarOps<float>();
template const BlockOps<double>& ScalarOps<double>();

}  // namespace szx::kernels
