// SZx reproduction -- common types shared by every subsystem.
//
// The public API uses std::span / std::byte and throws szx::Error on any
// malformed input (bad parameters, truncated or corrupted streams).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace szx {

/// All stream-level failures (truncation, bad magic, corrupt metadata).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Cooperative-cancellation unwind (exec::CancelToken): a parallel region or
/// service job observed its token and abandoned the operation.  Derived from
/// Error so existing catch sites treat it as "this operation failed", but
/// callers that distinguish "caller asked us to stop" from "input is bad"
/// (the serve daemon's deadline handling) can catch it specifically.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

/// How the user-supplied error bound is interpreted.
enum class ErrorBoundMode : std::uint8_t {
  kAbsolute = 0,            ///< |d - d'| <= eb
  kValueRangeRelative = 1,  ///< |d - d'| <= eb * (max(D) - min(D))
  /// |d - d'| <= eb * |d| for every point (the SZ-family "PW_REL" mode,
  /// Di et al., TPDS'19 -- reference [13] of the paper).  Implemented with
  /// a per-block bound of eb * min|d| over the block, which is strictly
  /// conservative; blocks containing zeros are stored losslessly.
  kPointwiseRelative = 2,
};

/// The three mid-bit commit strategies of Fig. 5 in the paper.  kC (bitwise
/// right shift to byte alignment) is SZx's contribution and the default; A and
/// B exist for the Sec. 5.1/5.2 ablation and the Fig. 6 overhead study.
enum class CommitSolution : std::uint8_t {
  kA = 0,  ///< arbitrary-width bit packing of all necessary bits
  kB = 1,  ///< split into alpha whole bytes + beta residual bits
  kC = 2,  ///< right shift by s so the necessary bits are byte aligned
};

/// Element type tag carried in the stream header.
enum class DataType : std::uint8_t {
  kFloat32 = 0,
  kFloat64 = 1,
};

/// Compression parameters.  Defaults follow the paper's recommendations
/// (block size 128, Sec. 5.3).
struct Params {
  ErrorBoundMode mode = ErrorBoundMode::kValueRangeRelative;
  double error_bound = 1e-3;
  std::uint32_t block_size = 128;
  CommitSolution solution = CommitSolution::kC;
  /// Opt-in format v2: append an integrity footer of FNV-1a section and
  /// payload-chunk checksums (core/integrity.hpp) so damaged streams can be
  /// verified and partially salvaged (src/resilience/).  Off by default --
  /// v1 streams stay byte-identical.
  bool integrity = false;

  /// Throws szx::Error if the parameter combination is unusable.
  void Validate() const;
};

/// Limits enforced by Params::Validate (block payload sizes must fit the
/// 16-bit zsize array used for parallel decompression, Sec. 6.1).
inline constexpr std::uint32_t kMinBlockSize = 4;
inline constexpr std::uint32_t kMaxBlockSize = 4096;

/// Per-run bookkeeping, filled by the compressor on request.
struct CompressionStats {
  std::uint64_t num_elements = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t num_constant_blocks = 0;
  std::uint64_t num_lossless_blocks = 0;  ///< blocks with non-finite values
  std::uint64_t payload_bytes = 0;        ///< lead arrays + mid bytes
  std::uint64_t compressed_bytes = 0;
  double absolute_bound = 0.0;  ///< resolved absolute bound actually enforced

  double CompressionRatio(std::size_t bytes_per_elem) const {
    return compressed_bytes == 0
               ? 0.0
               : static_cast<double>(num_elements * bytes_per_elem) /
                     static_cast<double>(compressed_bytes);
  }
};

/// std::allocator whose one-argument construct default-initialises: a
/// container that grows without a value (resize(n), a sized constructor)
/// leaves trivial elements as the heap handed them over.  Construction
/// with arguments (resize(n, v), assign, insert, copies) is unchanged.
template <typename T>
struct DefaultInitAllocator {
  using value_type = T;

  DefaultInitAllocator() = default;
  template <typename U>
  constexpr DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }

  friend bool operator==(const DefaultInitAllocator&,
                         const DefaultInitAllocator&) = default;
};

using ByteSpan = std::span<const std::byte>;

/// The byte container of every stream, frame and wire body.  Growing it
/// without a value -- `ByteBuffer(n)` or `resize(n)` -- does not zero the
/// new bytes, so the encoder writes a frame once (AssembleFrame's stitch)
/// rather than after a whole-frame zero fill.  The new bytes are
/// indeterminate until written: such a site must write every one before
/// anything reads it (the stitch, a ReadExact that fills or throws) and
/// says what does in an `// szx-overwrite:` comment, which szx_lint's
/// `uninit-bytes` rule checks.  A site that needs zeros passes them:
/// `resize(n, std::byte{0})`.
using ByteBuffer = std::vector<std::byte, DefaultInitAllocator<std::byte>>;

/// Half-open byte range [begin, end) within some stream or file -- shared
/// vocabulary between the fault injector (testkit) and the damage reports
/// (resilience).
struct ByteRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const ByteRange&, const ByteRange&) = default;
};

}  // namespace szx
