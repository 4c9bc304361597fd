// szx-hot: per-block statistics wrappers and the global-range pass; no
// allocation allowed.  Both route through the active kernel table, so
// SZX_KERNEL picks the range kernel as it picks the stats kernel.
#include "core/block_stats.hpp"

#include "core/kernels/kernels.hpp"

namespace szx {
namespace {

// One block through a table's multi-block entry (block size = span size).
template <SupportedFloat T>
BlockStats<T> OneBlock(const kernels::BlockOps<T>& ops,
                       std::span<const T> block) {
  BlockStats<T> s;
  if (!block.empty()) {
    (void)ops.block_stats(block.data(), block.size(), block.size(), &s);
  }
  return s;
}

}  // namespace

template <SupportedFloat T>
BlockStats<T> ComputeBlockStatsScalar(std::span<const T> block) {
  return OneBlock(kernels::ScalarOps<T>(), block);
}

template <SupportedFloat T>
BlockStats<T> ComputeBlockStats(std::span<const T> block) {
  return OneBlock(kernels::ActiveOps<T>(), block);
}

template <SupportedFloat T>
GlobalRange<T> ComputeGlobalRange(std::span<const T> data) {
  return kernels::ActiveOps<T>().finite_range(data.data(), data.size());
}

template GlobalRange<float> ComputeGlobalRange<float>(std::span<const float>);
template GlobalRange<double> ComputeGlobalRange<double>(
    std::span<const double>);

template BlockStats<float> ComputeBlockStatsScalar<float>(
    std::span<const float>);
template BlockStats<double> ComputeBlockStatsScalar<double>(
    std::span<const double>);
template BlockStats<float> ComputeBlockStats<float>(std::span<const float>);
template BlockStats<double> ComputeBlockStats<double>(
    std::span<const double>);

}  // namespace szx
