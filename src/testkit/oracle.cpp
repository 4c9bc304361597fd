#include "testkit/oracle.hpp"

#include <bit>
#include <sstream>

#include "core/bitops.hpp"

namespace szx::testkit {

template <SupportedFloat T>
std::optional<std::string> CheckBitIdentical(std::span<const T> a,
                                             std::span<const T> b,
                                             const char* label) {
  if (a.size() != b.size()) {
    return std::string(label) + ": size mismatch " +
           std::to_string(a.size()) + " vs " + std::to_string(b.size());
  }
  using Bits = typename FloatTraits<T>::Bits;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<Bits>(a[i]) != std::bit_cast<Bits>(b[i])) {
      std::ostringstream os;
      os.precision(17);
      os << label << ": values differ at index " << i << " ("
         << static_cast<double>(a[i]) << " vs " << static_cast<double>(b[i])
         << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

template std::optional<std::string> CheckBitIdentical<float>(
    std::span<const float>, std::span<const float>, const char*);
template std::optional<std::string> CheckBitIdentical<double>(
    std::span<const double>, std::span<const double>, const char*);

}  // namespace szx::testkit
