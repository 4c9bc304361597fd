// Error-bound and reconstruction oracles shared by the conformance tier.
// The error-bound oracle lives in szx_metrics, which szx_cli verify shares.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "metrics/metrics.hpp"

namespace szx::testkit {

using metrics::CheckErrorBound;

/// Returns std::nullopt when the two spans are bit-identical (NaN payloads
/// included), else a description of the first difference.
template <SupportedFloat T>
std::optional<std::string> CheckBitIdentical(std::span<const T> a,
                                             std::span<const T> b,
                                             const char* label);

}  // namespace szx::testkit
