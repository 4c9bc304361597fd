#include "testkit/fault_injector.hpp"

#include <algorithm>

#include "testkit/rng.hpp"

namespace szx::testkit {

const char* FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kBitFlip: return "bit_flip";
    case FaultClass::kTruncate: return "truncate";
    case FaultClass::kTornWrite: return "torn_write";
    case FaultClass::kZeroFill: return "zero_fill";
    case FaultClass::kDuplicate: return "duplicate";
  }
  return "?";
}

namespace {

void MergeRanges(std::vector<ByteRange>& ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const ByteRange& a, const ByteRange& b) {
              return a.begin < b.begin;
            });
  std::vector<ByteRange> merged;
  for (const ByteRange& r : ranges) {
    if (!merged.empty() && r.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, r.end);
    } else {
      merged.push_back(r);
    }
  }
  ranges = std::move(merged);
}

}  // namespace

FaultRecord InjectFault(ByteBuffer& stream, FaultClass cls,
                        std::uint64_t seed) {
  FaultRecord rec;
  rec.cls = cls;
  rec.seed = seed;
  rec.new_size = stream.size();
  if (stream.size() < 2) return rec;
  // Fork on the class so the same seed exercises independent offsets for
  // each fault class rather than correlated ones.
  Rng rng = Rng(seed).Fork(static_cast<std::uint64_t>(cls));
  const std::uint64_t n = stream.size();
  switch (cls) {
    case FaultClass::kBitFlip: {
      const std::uint64_t flips = 1 + rng.Below(8);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t pos = rng.Below(n);
        const std::uint64_t bit = rng.Below(8);
        stream[pos] ^= std::byte{static_cast<std::uint8_t>(1u << bit)};
        rec.ranges.push_back({pos, pos + 1});
      }
      break;
    }
    case FaultClass::kTruncate: {
      const std::uint64_t keep = rng.Below(n);  // always drops >= 1 byte
      stream.resize(keep);  // szx-overwrite: a shrink; keep < n
      rec.ranges.push_back({keep, n});
      rec.new_size = keep;
      break;
    }
    case FaultClass::kTornWrite: {
      const std::uint64_t pos = 1 + rng.Below(n - 1);
      std::fill(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                stream.end(), std::byte{0});
      rec.ranges.push_back({pos, n});
      break;
    }
    case FaultClass::kZeroFill: {
      const std::uint64_t max_len = std::max<std::uint64_t>(n / 8, 1);
      const std::uint64_t len = 1 + rng.Below(std::min(max_len, n));
      const std::uint64_t pos = rng.Below(n - len + 1);
      std::fill_n(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                  static_cast<std::ptrdiff_t>(len), std::byte{0});
      rec.ranges.push_back({pos, pos + len});
      break;
    }
    case FaultClass::kDuplicate: {
      const std::uint64_t max_len = std::max<std::uint64_t>(n / 8, 1);
      const std::uint64_t len = 1 + rng.Below(std::min(max_len, n));
      const std::uint64_t span = n - len + 1;
      const std::uint64_t src = rng.Below(span);
      std::uint64_t dst = rng.Below(span);
      if (dst == src) dst = (dst + len) % span;  // force distinct regions
      const ByteBuffer copy(
          stream.begin() + static_cast<std::ptrdiff_t>(src),
          stream.begin() + static_cast<std::ptrdiff_t>(src + len));
      std::copy(copy.begin(), copy.end(),
                stream.begin() + static_cast<std::ptrdiff_t>(dst));
      rec.ranges.push_back({dst, dst + len});
      break;
    }
  }
  MergeRanges(rec.ranges);
  return rec;
}

}  // namespace szx::testkit
