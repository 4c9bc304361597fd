// Bounds-checked little-endian byte/bit stream primitives shared by all
// codecs in this repository.
#pragma once

#include "core/byte_cursor.hpp"
#include "core/common.hpp"

namespace szx {

/// Appends plain-old-data values to a growing byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(ByteBuffer& out) : out_(out) {}

  void WriteBytes(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(src);
    out_.insert(out_.end(), p, p + n);
  }

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  std::size_t size() const { return out_.size(); }

 private:
  ByteBuffer& out_;
};

/// Bounds-checked forward writer over a preallocated span: the fixed-size
/// mirror of ByteWriter (and the write-side mirror of ByteCursor).  Throws
/// szx::Error instead of writing past the end.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::byte> dst) : rest_(dst) {}

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rest_.size() < sizeof(T)) {
      throw Error("szx: span writer overflow");
    }
    std::memcpy(rest_.data(), &value, sizeof(T));
    rest_ = rest_.subspan(sizeof(T));
  }

  std::size_t remaining() const { return rest_.size(); }

 private:
  std::span<std::byte> rest_;
};

/// MSB-first bit writer used by the Solution A/B encoders and the baseline
/// codecs (Huffman, ZFP bit planes).
class BitWriter {
 public:
  explicit BitWriter(ByteBuffer& out) : out_(out) {}

  /// Writes the low `nbits` bits of `value`, most significant first.
  void WriteBits(std::uint64_t value, int nbits) {
    for (int i = nbits - 1; i >= 0; --i) {
      acc_ = static_cast<std::uint8_t>((acc_ << 1) | ((value >> i) & 1u));
      if (++filled_ == 8) {
        out_.push_back(std::byte{acc_});
        acc_ = 0;
        filled_ = 0;
      }
    }
  }

  void WriteBit(unsigned bit) { WriteBits(bit & 1u, 1); }

  /// Pads the final partial byte with zeros.
  void Flush() {
    if (filled_ > 0) {
      out_.push_back(std::byte{static_cast<std::uint8_t>(
          acc_ << (8 - filled_))});
      acc_ = 0;
      filled_ = 0;
    }
  }

  std::uint64_t bits_written() const {
    return (out_.size() * 8) + filled_;
  }

 private:
  ByteBuffer& out_;
  std::uint8_t acc_ = 0;
  int filled_ = 0;
};

/// MSB-first bit reader matching BitWriter.
class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  unsigned ReadBit() {
    const std::size_t byte = pos_ >> 3;
    if (byte >= data_.size()) {
      throw Error("szx: truncated bit stream");
    }
    const unsigned bit =
        (std::to_integer<unsigned>(data_[byte]) >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }

  std::uint64_t ReadBits(int nbits) {
    std::uint64_t v = 0;
    for (int i = 0; i < nbits; ++i) {
      v = (v << 1) | ReadBit();
    }
    return v;
  }

  /// Reads up to 25 bits without consuming, zero-padded past the end of
  /// the stream (for table-driven prefix decoders).  Implemented as a
  /// four-byte gather so decode fast paths cost one probe, not one loop
  /// iteration per bit.
  std::uint64_t PeekBits(int nbits) const {
    const std::size_t byte = pos_ >> 3;
    std::uint32_t acc = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      acc = (acc << 8) | (byte + k < data_.size()
                              ? std::to_integer<std::uint32_t>(
                                    data_[byte + k])
                              : 0u);
    }
    const int drop = 32 - static_cast<int>(pos_ & 7) - nbits;
    return (acc >> drop) & ((std::uint64_t{1} << nbits) - 1);
  }

  /// Skips n bits (bounds-checked).
  void Skip(std::uint64_t n) {
    if (n > remaining_bits()) {
      throw Error("szx: truncated bit stream (skip)");
    }
    pos_ += n;
  }

  std::uint64_t position_bits() const { return pos_; }
  std::uint64_t remaining_bits() const { return data_.size() * 8 - pos_; }

 private:
  ByteSpan data_;
  std::uint64_t pos_ = 0;
};

}  // namespace szx
