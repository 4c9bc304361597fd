// SZx serial compressor / decompressor -- the public entry points of the
// core library (paper Algorithm 1 + Sec. 5 optimizations).  Each is the
// width-1 call of the chunked codec in core/omp_codec.hpp, so the streams
// are the same bytes at every width, and an exec::CancelToken installed
// with exec::ScopedCancel stops any of them with szx::Cancelled.
//
// Quick use:
//   szx::Params p;                       // REL 1e-3, block 128, Solution C
//   auto stream = szx::Compress<float>(data, p);
//   auto recon  = szx::Decompress<float>(stream);
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "core/bitops.hpp"
#include "core/common.hpp"
#include "core/format.hpp"

namespace szx {

/// Compresses `data` under `params`; returns the self-describing stream.
/// If the encoded stream would exceed the raw size, a raw-passthrough frame
/// is emitted instead (still decodable by Decompress).
template <SupportedFloat T>
[[nodiscard]] ByteBuffer Compress(std::span<const T> data, const Params& params,
                    CompressionStats* stats = nullptr);

/// Re-entrant variant: compresses into scratch owned by the caller and
/// returns a view of the finished stream.
///
/// The arena is reset at entry, so the returned span (and anything else
/// allocated from `arena`) is valid only until the next CompressInto call
/// (or Reset) on the same arena -- copy it out if it must outlive that.
/// After a warm-up call or two the arena reaches its high-water size and
/// steady-state calls perform zero heap allocations (docs/performance.md).
/// One arena must not be shared between threads.
template <SupportedFloat T>
[[nodiscard]] ByteSpan CompressInto(std::span<const T> data, const Params& params,
                      ScratchArena& arena, CompressionStats* stats = nullptr);

/// Decompresses a stream produced by Compress<T>.  Throws szx::Error if the
/// stream is truncated, corrupt, or of a different element type.
template <SupportedFloat T>
[[nodiscard]] std::vector<T> Decompress(ByteSpan stream);

/// In-place variant; `out.size()` must equal the element count in the
/// stream header.
template <SupportedFloat T>
void DecompressInto(ByteSpan stream, std::span<T> out);

/// The element count DecompressInto needs for `stream`: probe the size,
/// then decode into the caller's span.  Parses every section extent first
/// and applies the same plausibility bar as Decompress, so a forged header
/// throws szx::Error here instead of sizing a huge output buffer.
template <SupportedFloat T>
[[nodiscard]] std::size_t DecodedElementCount(ByteSpan stream);

/// Reads the header without touching the body.
[[nodiscard]] Header PeekHeader(ByteSpan stream);

/// Resolves the absolute error bound a Params would enforce on `data`.
///
/// - kAbsolute: returns params.error_bound unchanged; `data` is never
///   inspected, so NaN/Inf values or an empty span do not affect it.
/// - kValueRangeRelative: returns error_bound * (max - min) over the finite
///   values only.  Returns 0.0 when no finite value exists (empty span or
///   all NaN/Inf) and when the finite values are all equal (zero range);
///   both degenerate streams still round-trip, via lossless/constant blocks.
/// - kPointwiseRelative: returns 0.0 -- no single absolute bound exists;
///   the enforced bound is error_bound * |d| per point.
///
/// Always throws szx::Error for invalid Params (non-finite or non-positive
/// error_bound, block size out of range), matching Compress.
template <SupportedFloat T>
[[nodiscard]] double ResolveAbsoluteBound(std::span<const T> data, const Params& params);

}  // namespace szx
