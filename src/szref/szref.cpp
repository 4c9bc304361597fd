#include "szref/szref.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/executor.hpp"
#include "core/kernels/kernels.hpp"
#include "szref/huffman.hpp"

namespace szx::szref {
namespace {

constexpr std::array<char, 4> kSzMagic = {'S', 'Z', 'R', '1'};
constexpr std::array<char, 4> kSzMultiMagic = {'S', 'Z', 'R', 'M'};

#pragma pack(push, 1)
struct SzHeader {
  std::array<char, 4> magic = kSzMagic;
  std::uint8_t version = 2;
  std::uint8_t ndims = 1;
  std::uint8_t quant_bits = 16;
  std::uint8_t eb_mode = 0;
  double eb_user = 0.0;
  double eb_abs = 0.0;
  std::uint64_t dims[3] = {0, 0, 0};
  std::uint64_t num_elements = 0;
  std::uint64_t num_unpredictable = 0;
  std::uint64_t code_stream_bytes = 0;
};
#pragma pack(pop)

double ResolveBound(std::span<const float> data, const SzParams& p) {
  if (!(p.error_bound > 0.0) || !std::isfinite(p.error_bound)) {
    throw Error("szref: error bound must be finite and > 0");
  }
  if (p.quant_bits < 4 || p.quant_bits > 16) {
    throw Error("szref: quant_bits must be in [4, 16]");
  }
  if (p.mode == ErrorBoundMode::kAbsolute) return p.error_bound;
  float gmin = 0.0f, gmax = 0.0f;
  bool any = false;
  for (const float v : data) {
    if (!std::isfinite(v)) continue;
    if (!any) {
      gmin = gmax = v;
      any = true;
    } else {
      gmin = std::min(gmin, v);
      gmax = std::max(gmax, v);
    }
  }
  return any ? p.error_bound * (static_cast<double>(gmax) -
                                static_cast<double>(gmin))
             : p.error_bound;
}

struct Dims {
  std::size_t nz = 1, ny = 1, nx = 1;
  int ndims = 1;
};

// Runs the vectorized per-row Lorenzo delta over the whole grid: row (z, y)
// predicts from rows (z, y-1), (z-1, y) and (z-1, y-1) of the same static
// q grid, so every row is independent of the deltas of any other.
void LorenzoDeltaGrid(const kernels::BaselineOps& ops, const std::int32_t* q,
                      const Dims& d, std::int32_t* delta) {
  const std::size_t sy = d.nx;
  const std::size_t sz = d.nx * d.ny;
  for (std::size_t z = 0; z < d.nz; ++z) {
    for (std::size_t y = 0; y < d.ny; ++y) {
      const std::size_t row = (z * d.ny + y) * d.nx;
      const std::int32_t* qrow = q + row;
      const std::int32_t* qy = y > 0 ? qrow - sy : nullptr;
      const std::int32_t* qz = z > 0 ? qrow - sz : nullptr;
      const std::int32_t* qyz = (y > 0 && z > 0) ? qrow - sy - sz : nullptr;
      ops.lorenzo_delta_i32(qrow, qy, qz, qyz, /*has_left=*/false, d.nx,
                            delta + row);
    }
  }
}

Dims MakeDims(std::span<const std::size_t> dims, std::size_t n) {
  if (dims.empty() || dims.size() > 3) {
    throw Error("szref: dims must have 1..3 entries");
  }
  Dims d;
  d.ndims = static_cast<int>(dims.size());
  if (dims.size() == 1) {
    d.nx = dims[0];
  } else if (dims.size() == 2) {
    d.ny = dims[0];
    d.nx = dims[1];
  } else {
    d.nz = dims[0];
    d.ny = dims[1];
    d.nx = dims[2];
  }
  // Multiply with overflow checks: a crafted header whose dims product
  // wraps to num_elements would otherwise drive the z/y/x loops far past
  // the allocated output (OOB write).
  if (CheckedMul(CheckedMul(d.nz, d.ny), d.nx) != n) {
    throw Error("szref: dims product does not match element count");
  }
  return d;
}

}  // namespace

ByteBuffer SzCompress(std::span<const float> data,
                      std::span<const std::size_t> dims,
                      const SzParams& params, SzStats* stats) {
  const Dims d = MakeDims(dims, data.size());
  const double eb = ResolveBound(data, params);
  const double half_inv = 1.0 / (2.0 * eb);
  const double twice_eb = 2.0 * eb;
  const std::int64_t intv_radius = std::int64_t{1}
                                   << (params.quant_bits - 1);
  const std::int64_t code_limit = std::int64_t{1} << params.quant_bits;
  const std::size_t n = data.size();
  const kernels::BaselineOps& ops = kernels::ActiveBaselineOps();

  // Format v2 prequantizes the whole array up front (q = round(v / 2eb),
  // NaN -> 0, clamped to +/-2^27) and predicts on that static integer grid
  // instead of on reconstructed floats.  Removing the reconstruction
  // feedback is what makes passes 1 and 2 vectorizable; the decoder
  // recomputes the identical grid (escaped positions re-run PrequantOne on
  // the exact stored value), so the two sides never diverge.
  std::vector<std::int32_t> q(n);
  std::vector<std::int32_t> delta(n);
  ops.prequant_f32(data.data(), n, half_inv, q.data());
  LorenzoDeltaGrid(ops, q.data(), d, delta.data());

  std::vector<std::uint16_t> codes(n);
  std::vector<float> unpred;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = data[i];
    // r is the decoder's non-escape output for this position; escape when
    // it misses the bound (clamped / non-finite / subnormal-eb inputs all
    // land here, since a NaN or Inf v makes the comparison false) or when
    // the delta does not fit the quantization code range.
    const float r = kernels::DequantOne(q[i], twice_eb);
    const std::int64_t code = static_cast<std::int64_t>(delta[i]) +
                              intv_radius;
    const bool value_ok =
        std::isfinite(r) &&
        std::fabs(static_cast<double>(r) - static_cast<double>(v)) <= eb;
    if (value_ok && code >= 1 && code < code_limit) {
      codes[i] = static_cast<std::uint16_t>(code);
    } else {
      codes[i] = 0;  // escape: exact value stored out of band
      unpred.push_back(v);
    }
  }

  SzHeader h;
  h.ndims = static_cast<std::uint8_t>(d.ndims);
  h.quant_bits = static_cast<std::uint8_t>(params.quant_bits);
  h.eb_mode = static_cast<std::uint8_t>(params.mode);
  h.eb_user = params.error_bound;
  h.eb_abs = eb;
  for (std::size_t k = 0; k < dims.size(); ++k) h.dims[k] = dims[k];
  h.num_elements = data.size();
  h.num_unpredictable = unpred.size();

  ByteBuffer out;
  ByteWriter w(out);
  if (data.empty()) {
    w.Write(h);
  } else {
    HuffmanCodec codec;
    codec.BuildFromSymbols(codes);
    // v2 stores the codes as a chunked gap-array section (chunk count,
    // end-offset table, byte-aligned per-chunk code bytes) so the decoder
    // can fan chunks out across threads.  The section size is known before
    // the header is serialized, so no header back-patching is needed.
    ByteBuffer section;
    codec.EncodeChunked(codes, section);
    h.code_stream_bytes = section.size();
    w.Write(h);
    codec.WriteTable(out);
    out.insert(out.end(), section.begin(), section.end());
    ByteWriter w2(out);
    w2.WriteBytes(unpred.data(), unpred.size() * sizeof(float));
  }

  if (stats != nullptr) {
    stats->num_elements = data.size();
    stats->num_unpredictable = unpred.size();
    stats->huffman_bytes = h.code_stream_bytes;
    stats->compressed_bytes = out.size();
    stats->absolute_bound = eb;
  }
  return out;
}

std::vector<float> SzDecompress(ByteSpan stream, int num_threads) {
  ByteCursor r(stream);
  const SzHeader h = r.Read<SzHeader>();
  if (h.magic != kSzMagic || h.version != 2) {
    throw Error("szref: bad magic/version");
  }
  if (h.ndims < 1 || h.ndims > 3 || h.quant_bits < 4 || h.quant_bits > 16) {
    throw Error("szref: corrupt header");
  }
  // v2 reconstructs the prequantized grid from eb_abs, so a forged bound
  // must be rejected before it poisons every arithmetic step below.
  if (!(h.eb_abs > 0.0) || !std::isfinite(h.eb_abs)) {
    throw Error("szref: corrupt error bound");
  }
  std::vector<std::size_t> dims;
  for (int k = 0; k < h.ndims; ++k) {
    dims.push_back(static_cast<std::size_t>(h.dims[k]));
  }
  const Dims d = MakeDims(dims, h.num_elements);
  if (h.num_elements == 0) return {};
  // Every Huffman symbol costs at least one bit, so a stream describing
  // num_elements values must carry at least num_elements / 8 more bytes;
  // anything larger is corrupt and must not reach the allocator.
  std::vector<float> out(r.CheckedAlloc(h.num_elements, sizeof(float), 8));
  const std::size_t n = out.size();

  HuffmanCodec codec;
  codec.ReadTable(r);
  std::vector<std::uint16_t> codes;
  const std::size_t section_start = r.position();
  // Chunks decode in parallel over disjoint slices of `codes`; the result
  // is bit-identical to a serial pass for every thread count.
  codec.DecodeChunked(r, n, codes, num_threads);
  if (r.position() - section_start != h.code_stream_bytes) {
    throw Error("szref: corrupt code stream size");
  }
  ByteSpan up_bytes = r.SliceArray(h.num_unpredictable, sizeof(float));
  // szx-lint: allow(unchecked-alloc) -- the SliceArray above already proved num_unpredictable floats are present in the stream
  std::vector<float> unpred(static_cast<std::size_t>(h.num_unpredictable));
  ByteCursor(up_bytes).ReadSpan(std::span<float>(unpred));

  const std::int64_t intv_radius = std::int64_t{1} << (h.quant_bits - 1);
  const double eb = h.eb_abs;
  const double half_inv = 1.0 / (2.0 * eb);

  // Pass A (sequential): rebuild the integer q grid.  Escapes re-run
  // PrequantOne on the exact stored value -- by construction the same q the
  // encoder computed in its vectorized pass 1 -- so predictions downstream
  // of an escape agree with the encoder exactly.
  std::vector<std::int32_t> q(n);
  const std::size_t sy = d.nx;
  const std::size_t sz = d.nx * d.ny;
  std::size_t up = 0;
  std::size_t i = 0;
  for (std::size_t z = 0; z < d.nz; ++z) {
    for (std::size_t y = 0; y < d.ny; ++y) {
      for (std::size_t x = 0; x < d.nx; ++x, ++i) {
        if (codes[i] == 0) {
          if (up >= unpred.size()) {
            throw Error("szref: unpredictable value overflow");
          }
          q[i] = kernels::PrequantOne(unpred[up], half_inv);
          ++up;
        } else {
          const std::int64_t qv =
              kernels::LorenzoPredictAt(q.data(), i, x, y, z, sy, sz) +
              (static_cast<std::int64_t>(codes[i]) - intv_radius);
          // Well-formed streams stay inside +/-(2^27 + 2^16); a forged code
          // sequence can walk further, where the modular narrowing is
          // defined (C++20) and merely yields garbage floats, never UB.
          q[i] = static_cast<std::int32_t>(qv);
        }
      }
    }
  }
  if (up != h.num_unpredictable) {
    throw Error("szref: unpredictable count mismatch");
  }

  // Pass B (vectorized): dequantize the whole grid in one sweep.
  kernels::ActiveBaselineOps().dequant_f32(q.data(), n, 2.0 * eb,
                                           out.data());
  // Pass C: patch the exact values back over the escape positions.
  up = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (codes[k] == 0) out[k] = unpred[up++];
  }
  return out;
}

std::uint64_t SzElementCount(ByteSpan stream) {
  if (stream.size() >= sizeof(SzHeader)) {
    const SzHeader h = ByteCursor(stream).Read<SzHeader>();
    if (h.magic == kSzMagic) return h.num_elements;
  }
  // Multi-chunk wrapper: sum of chunks.
  ByteCursor r(stream);
  std::array<char, 4> magic{};
  r.ReadBytes(magic.data(), 4);
  if (magic != kSzMultiMagic) {
    throw Error("szref: bad magic");
  }
  const std::uint32_t chunks = r.Read<std::uint32_t>();
  std::uint64_t total = 0;
  std::vector<std::uint64_t> sizes(chunks);
  for (auto& s : sizes) s = r.Read<std::uint64_t>();
  for (const std::uint64_t s : sizes) {
    ByteSpan chunk = r.Slice(s);
    total += SzElementCount(chunk);
  }
  return total;
}

ByteBuffer SzCompressOmp(std::span<const float> data,
                         std::span<const std::size_t> dims,
                         const SzParams& params, SzStats* stats,
                         int num_threads) {
  const Dims d = MakeDims(dims, data.size());
  // Chunk along the slowest dimension; prediction does not cross chunks
  // (mirrors omp-SZ, at a small compression-ratio cost).
  const std::size_t slow = d.ndims == 3 ? d.nz : (d.ndims == 2 ? d.ny : d.nx);
  const std::size_t plane = data.size() / std::max<std::size_t>(slow, 1);
  const int threads = static_cast<int>(std::min<std::size_t>(
      exec::ResolveThreads(num_threads), std::max<std::size_t>(slow, 1)));

  // Resolve the bound once, globally, so chunks agree.
  SzParams chunk_params = params;
  chunk_params.mode = ErrorBoundMode::kAbsolute;
  chunk_params.error_bound = ResolveBound(data, params);

  std::vector<ByteBuffer> chunks(threads);
  std::vector<SzStats> chunk_stats(threads);
  std::vector<std::size_t> starts(threads + 1, slow);
  for (int c = 0; c < threads; ++c) {
    starts[c] = slow * static_cast<std::size_t>(c) /
                static_cast<std::size_t>(threads);
  }
  exec::ParallelFor(chunks.size(), threads, [&](std::uint64_t c) {
    const std::size_t lo = starts[c];
    const std::size_t hi = starts[c + 1];
    if (lo >= hi) return;
    std::vector<std::size_t> sub_dims(dims.begin(), dims.end());
    sub_dims[0] = hi - lo;
    chunks[c] = SzCompress(data.subspan(lo * plane, (hi - lo) * plane),
                           sub_dims, chunk_params, &chunk_stats[c]);
  });

  ByteBuffer out;
  ByteWriter w(out);
  w.WriteBytes(kSzMultiMagic.data(), 4);
  w.Write(static_cast<std::uint32_t>(threads));
  for (const auto& c : chunks) {
    w.Write(static_cast<std::uint64_t>(c.size()));
  }
  for (const auto& c : chunks) out.insert(out.end(), c.begin(), c.end());

  if (stats != nullptr) {
    *stats = SzStats{};
    for (const auto& cs : chunk_stats) {
      stats->num_elements += cs.num_elements;
      stats->num_unpredictable += cs.num_unpredictable;
      stats->huffman_bytes += cs.huffman_bytes;
    }
    stats->compressed_bytes = out.size();
    stats->absolute_bound = chunk_params.error_bound;
  }
  return out;
}

std::vector<float> SzDecompressOmp(ByteSpan stream, int num_threads) {
  ByteCursor r(stream);
  std::array<char, 4> magic{};
  r.ReadBytes(magic.data(), 4);
  if (magic == kSzMagic) {
    return SzDecompress(stream);
  }
  if (magic != kSzMultiMagic) {
    throw Error("szref: bad magic");
  }
  const std::uint32_t chunks = r.Read<std::uint32_t>();
  if (chunks == 0 || chunks > 4096) {
    throw Error("szref: corrupt chunk count");
  }
  std::vector<ByteSpan> spans(chunks);
  std::vector<std::uint64_t> sizes(chunks);
  for (auto& s : sizes) s = r.Read<std::uint64_t>();
  for (std::uint32_t c = 0; c < chunks; ++c) spans[c] = r.Slice(sizes[c]);

  std::vector<std::uint64_t> counts(chunks);
  std::vector<std::uint64_t> offsets(chunks + 1, 0);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    counts[c] = SzElementCount(spans[c]);
    // Per-chunk plausibility (>= 1 Huffman bit per element) keeps the sum
    // below 8 * stream bytes, so the offset accumulation cannot wrap.
    (void)ByteCursor(spans[c]).CheckedAlloc(counts[c], sizeof(float), 8);
    offsets[c + 1] = offsets[c] + counts[c];
  }
  std::vector<float> out(
      ByteCursor(stream).CheckedAlloc(offsets[chunks], sizeof(float), 8));
  exec::ParallelFor(chunks, num_threads, [&](std::uint64_t c) {
    const std::vector<float> part = SzDecompress(spans[c]);
    std::copy(part.begin(), part.end(),
              out.begin() + static_cast<std::ptrdiff_t>(offsets[c]));
  });
  return out;
}

}  // namespace szx::szref
