// Scratch arena for zero-allocation steady-state compression.
//
// The codec's per-call working set (section accumulators, per-block scratch,
// the assembled frame) is bump-allocated from a ScratchArena instead of
// per-call vectors.  A chunk list keeps every pointer handed out stable for
// the duration of a call; Reset() recycles the memory and, once the high-water
// mark is known, coalesces the list into a single chunk so subsequent calls
// perform no heap allocations at all (the acceptance property asserted by
// tests/core/test_arena.cpp with a counting allocator).
//
// Ownership rules (see docs/performance.md):
//   - Memory returned by Allocate/AllocateSpan is valid until the next
//     Reset() on the same arena.  CompressInto resets the arena it is given
//     at entry, so a returned frame lives until the *next* call with that
//     arena.
//   - An arena is single-threaded; parallel codecs use one arena per thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/common.hpp"

namespace szx {

class ScratchArena {
 public:
  ScratchArena() = default;
  explicit ScratchArena(std::size_t initial_bytes) {
    if (initial_bytes > 0) AddChunk(initial_bytes);
  }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ScratchArena(ScratchArena&&) = default;
  ScratchArena& operator=(ScratchArena&&) = default;

  /// Returns `bytes` bytes aligned to `align` (a power of two).  The memory
  /// is uninitialized and remains valid until the next Reset().
  std::byte* Allocate(std::size_t bytes,
                      std::size_t align = alignof(std::max_align_t)) {
    if (align == 0 || (align & (align - 1)) != 0) {
      throw Error("szx: arena alignment must be a power of two");
    }
    if (!chunks_.empty()) {
      Chunk& c = chunks_.back();
      const std::uintptr_t base =
          reinterpret_cast<std::uintptr_t>(c.mem.get());
      const std::uintptr_t at = AlignUp(base + offset_, align);
      if (bytes <= c.size && at - base <= c.size - bytes) {
        offset_ = at - base + bytes;
        return reinterpret_cast<std::byte*>(at);
      }
    }
    const std::size_t want = bytes + align;
    if (want < bytes) throw Error("szx: arena allocation overflow");
    if (!chunks_.empty()) {
      // Only used bytes count toward the high-water mark, each piece
      // outside the current chunk rounded to max_align: in a coalesced
      // replacement the allocations after it then keep the padding they
      // have now (every in-tree alignment is <= max_align; a larger one may
      // spill once more).
      if (offset_ <= chunks_.back().size / 2) {
        // Spilling would abandon over half the chunk: the request gets a
        // chunk of its own, slotted before the current one, which later
        // requests keep filling.
        Chunk own = MakeChunk(want);
        const std::uintptr_t at = AlignUp(
            reinterpret_cast<std::uintptr_t>(own.mem.get()), align);
        chunks_.insert(chunks_.end() - 1, std::move(own));
        waste_ += AlignUp(want, alignof(std::max_align_t));
        return reinterpret_cast<std::byte*>(at);
      }
      waste_ += AlignUp(offset_, alignof(std::max_align_t));
    }
    // Grow geometrically so a warm arena converges to O(1) chunks quickly.
    AddChunk(std::max(want, std::max(capacity_, kMinChunkBytes)));
    const Chunk& c = chunks_.back();
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(c.mem.get());
    const std::uintptr_t at = AlignUp(base, align);
    offset_ = at - base + bytes;
    return reinterpret_cast<std::byte*>(at);
  }

  /// Typed convenience: `count` default-uninitialized elements of a
  /// trivially copyable type.
  template <typename U>
  std::span<U> AllocateSpan(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<U> &&
                  std::is_trivially_destructible_v<U>);
    if (count != 0 && count > SIZE_MAX / sizeof(U)) {
      throw Error("szx: arena allocation overflow");
    }
    std::byte* p = Allocate(count * sizeof(U), alignof(U));
    return {reinterpret_cast<U*>(p), count};
  }

  /// Recycles all memory.  Invalidates every pointer previously returned.
  /// When the current layout is fragmented (or wasteful), the chunk list is
  /// coalesced into one chunk sized to the observed high-water mark, which
  /// is what makes steady-state calls allocation-free.
  void Reset() {
    const std::size_t used = Used();
    if (used > high_water_) high_water_ = used;
    if (chunks_.size() > 1) {
      chunks_.clear();
      capacity_ = 0;
      AddChunk(RoundUpChunk(high_water_));
    }
    offset_ = 0;
    waste_ = 0;
  }

  /// Upper bound on the contiguous bytes needed to satisfy everything
  /// allocated since the last Reset (chunks other than the current one
  /// count their used bytes only).
  std::size_t Used() const { return waste_ + offset_; }
  /// Total bytes owned by the arena.
  std::size_t Capacity() const { return capacity_; }
  /// Number of heap allocations performed over the arena's lifetime.
  std::size_t HeapAllocations() const { return heap_allocations_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };

  static constexpr std::size_t kMinChunkBytes = 4096;

  static std::uintptr_t AlignUp(std::uintptr_t v, std::size_t align) {
    return (v + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
  }

  static std::size_t RoundUpChunk(std::size_t bytes) {
    const std::size_t want = std::max(bytes, kMinChunkBytes);
    // Round to a 4 KiB multiple; +max_align covers alignment slop at the
    // chunk head so a high-water-sized request still fits after Reset.
    return (want + alignof(std::max_align_t) + 4095) / 4096 * 4096;
  }

  Chunk MakeChunk(std::size_t size) {
    Chunk c;
    c.mem = std::make_unique<std::byte[]>(size);
    c.size = size;
    capacity_ += size;
    ++heap_allocations_;
    return c;
  }

  void AddChunk(std::size_t size) {
    chunks_.push_back(MakeChunk(size));
    offset_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t offset_ = 0;      // bump position within chunks_.back()
  std::size_t waste_ = 0;       // used bytes outside chunks_.back()
  std::size_t capacity_ = 0;
  std::size_t high_water_ = 0;
  std::size_t heap_allocations_ = 0;
};

}  // namespace szx
