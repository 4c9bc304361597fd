// szx::core::ByteCursor — the one sanctioned way to read bytes out of an
// untrusted stream.  Every access is bounds checked, every size computation
// is overflow safe, and allocation sizing driven by header fields must go
// through CheckedAlloc, which caps the element count by what the remaining
// stream bytes could plausibly encode.  Decode paths use this cursor instead
// of raw memcpy/pointer arithmetic; tools/szx_lint enforces that rule over
// the whole tree (this header and stream.hpp/bitops.hpp are the allowlist).
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>

#include "core/common.hpp"

namespace szx {
inline namespace core {

/// Overflow-checked multiply for size computations on untrusted fields.
inline std::uint64_t CheckedMul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    throw Error("szx: size computation overflow (" + std::to_string(a) +
                " * " + std::to_string(b) + ")");
  }
  return a * b;
}

/// Overflow-checked add for offset/length computations on untrusted fields.
inline std::uint64_t CheckedAdd(std::uint64_t a, std::uint64_t b) {
  if (b > std::numeric_limits<std::uint64_t>::max() - a) {
    throw Error("szx: size computation overflow (" + std::to_string(a) +
                " + " + std::to_string(b) + ")");
  }
  return a + b;
}

/// Value-preserving narrowing cast; throws instead of silently truncating.
template <typename To, typename From>
inline To CheckedNarrow(From value) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  const To narrowed = static_cast<To>(value);
  if (static_cast<From>(narrowed) != value ||
      ((value < From{}) != (narrowed < To{}))) {
    throw Error("szx: value " + std::to_string(value) +
                " does not fit the destination integer type");
  }
  return narrowed;
}

/// Views `bytes` in place as a span of T -- the cast
/// ScratchArena::AllocateSpan makes, checked instead of assumed.  Throws
/// szx::Error unless the bytes are a whole number of T starting on an
/// alignof(T) boundary; there is deliberately no copying fallback, so a
/// caller that cannot guarantee alignment finds out instead of silently
/// paying a copy.  The bytes must live in storage that implicitly creates
/// objects (operator new, a std::byte array), as arena and request-body
/// memory does.  Element bytes are read as host order (little-endian, as
/// ReadSpan assumes).
template <typename T>
[[nodiscard]] std::span<const T> AlignedView(ByteSpan bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() % sizeof(T) != 0) {
    throw Error("szx: " + std::to_string(bytes.size()) +
                " bytes are not a whole number of " +
                std::to_string(sizeof(T)) + "-byte elements");
  }
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) != 0) {
    throw Error("szx: element bytes are not " + std::to_string(alignof(T)) +
                "-byte aligned");
  }
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

/// Bounds-checked, overflow-safe forward cursor over an untrusted byte span.
///
/// Reads, slices and skips all validate against the remaining bytes and
/// throw szx::Error on violation; array-sized operations take (count,
/// elem_size) pairs and refuse to wrap.  A cursor never reads outside the
/// span it was constructed over, so decoders built on it are immune to the
/// allocation-before-validation / payload-overrun bug class by construction.
class ByteCursor {
 public:
  explicit ByteCursor(ByteSpan data) : data_(data) {}

  /// Copies the next n bytes into dst (dst may be null only when n == 0).
  void ReadBytes(void* dst, std::size_t n) {
    Require(n);
    if (n != 0) {  // memcpy(null, null, 0) is still UB
      std::memcpy(dst, data_.data() + pos_, n);
    }
    pos_ += n;
  }

  template <typename T>
  [[nodiscard]] T Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    ReadBytes(&value, sizeof(T));
    return value;
  }

  /// Fills a typed span from the stream (unaligned little-endian copy).
  template <typename T>
  void ReadSpan(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    ReadBytes(out.empty() ? nullptr : out.data(), out.size_bytes());
  }

  /// Returns a view of the next n bytes and advances.
  [[nodiscard]] ByteSpan Slice(std::size_t n) {
    Require(n);
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  /// Slice of count elements of elem_size bytes each, overflow safe.
  [[nodiscard]] ByteSpan SliceArray(std::uint64_t count,
                                    std::size_t elem_size) {
    return Slice(CheckedCount(count, elem_size));
  }

  /// Returns everything from the current position to the end and advances.
  [[nodiscard]] ByteSpan Rest() { return Slice(remaining()); }

  void Skip(std::size_t n) {
    Require(n);
    pos_ += n;
  }

  /// Skips count elements of elem_size bytes each, overflow safe.
  void SkipArray(std::uint64_t count, std::size_t elem_size) {
    Skip(CheckedCount(count, elem_size));
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool AtEnd() const { return pos_ == data_.size(); }

  /// Validates an allocation of `count` elements (`elem_size` bytes each)
  /// requested by an untrusted header field.  Rejects the request unless
  /// every remaining stream byte could plausibly yield at most
  /// `max_elems_per_byte` decoded elements — e.g. 1 for byte-per-element
  /// formats, 8 for >= 1-bit-per-symbol entropy codes, 255 for LZ with
  /// byte-long matches.  Returns count, narrowed, ready for resize().
  [[nodiscard]] std::size_t CheckedAlloc(
      std::uint64_t count, std::size_t elem_size,
      std::uint64_t max_elems_per_byte = 1) const {
    const std::uint64_t rem = remaining();
    if (count != 0) {
      // count > rem * max_elems_per_byte, compared by division so neither
      // side can wrap no matter how large the header field is.
      const bool over =
          rem == 0 || count / rem > max_elems_per_byte ||
          (count / rem == max_elems_per_byte && count % rem != 0);
      if (over) {
        throw Error("szx: implausible allocation (" + std::to_string(count) +
                    " elements from " + std::to_string(rem) +
                    " stream bytes)");
      }
    }
    if (elem_size != 0) {
      (void)CheckedMul(count, elem_size);  // total byte size must not wrap
    }
    return CheckedNarrow<std::size_t>(count);
  }

 private:
  /// count * elem_size as size_t, throwing on overflow.
  std::size_t CheckedCount(std::uint64_t count, std::size_t elem_size) const {
    return CheckedNarrow<std::size_t>(CheckedMul(count, elem_size));
  }

  void Require(std::size_t n) const {
    if (n > data_.size() - pos_) {
      throw Error("szx: truncated stream (need " + std::to_string(n) +
                  " bytes, have " + std::to_string(data_.size() - pos_) + ")");
    }
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace core
}  // namespace szx
