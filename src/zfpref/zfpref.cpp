#include "zfpref/zfpref.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/bitops.hpp"
#include "core/executor.hpp"
#include "zfpref/zfp_block.hpp"

namespace szx::zfpref {
namespace {

constexpr std::array<char, 4> kZfpMagic = {'Z', 'F', 'R', '1'};
constexpr std::array<char, 4> kZfpMultiMagic = {'Z', 'F', 'R', 'M'};
constexpr int kIntPrec = 32;

#pragma pack(push, 1)
struct ZfpHeader {
  std::array<char, 4> magic = kZfpMagic;
  std::uint8_t version = 1;
  std::uint8_t ndims = 1;
  std::uint8_t reserved[2] = {0, 0};
  double eb_user = 0.0;
  double eb_abs = 0.0;
  std::uint64_t dims[3] = {0, 0, 0};
  std::uint64_t num_elements = 0;
  std::uint64_t payload_bytes = 0;
};
#pragma pack(pop)

struct Dims {
  std::size_t n[3] = {1, 1, 1};  // z, y, x
  int ndims = 1;
  std::size_t nb[3] = {1, 1, 1};  // block counts per axis
};

Dims MakeDims(std::span<const std::size_t> dims, std::size_t count) {
  if (dims.empty() || dims.size() > 3) {
    throw Error("zfpref: dims must have 1..3 entries");
  }
  Dims d;
  d.ndims = static_cast<int>(dims.size());
  for (std::size_t k = 0; k < dims.size(); ++k) {
    d.n[3 - dims.size() + k] = dims[k];
  }
  // Overflow-checked: a wrapped dims product matching num_elements would
  // drive the block loops past the allocated output.
  if (CheckedMul(CheckedMul(d.n[0], d.n[1]), d.n[2]) != count) {
    throw Error("zfpref: dims product does not match element count");
  }
  for (int k = 0; k < 3; ++k) d.nb[k] = (d.n[k] + 3) / 4;
  return d;
}

double ResolveBound(std::span<const float> data, const ZfpParams& p) {
  if (!(p.error_bound > 0.0) || !std::isfinite(p.error_bound)) {
    throw Error("zfpref: error bound must be finite and > 0");
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

// Gathers one 4^d block with edge clamping (partial blocks replicate the
// boundary sample, as ZFP does).
void GatherBlock(std::span<const float> data, const Dims& d, std::size_t bz,
                 std::size_t by, std::size_t bx, float* block) {
  const int nd = d.ndims;
  const std::size_t zmax = d.n[0] - 1;
  const std::size_t ymax = d.n[1] - 1;
  const std::size_t xmax = d.n[2] - 1;
  std::size_t out = 0;
  const std::size_t z_count = nd >= 3 ? 4 : 1;
  const std::size_t y_count = nd >= 2 ? 4 : 1;
  for (std::size_t z = 0; z < z_count; ++z) {
    const std::size_t zz = std::min(bz * 4 + z, zmax);
    for (std::size_t y = 0; y < y_count; ++y) {
      const std::size_t yy = std::min(by * 4 + y, ymax);
      for (std::size_t x = 0; x < 4; ++x) {
        const std::size_t xx = std::min(bx * 4 + x, xmax);
        block[out++] = data[(zz * d.n[1] + yy) * d.n[2] + xx];
      }
    }
  }
}

void ScatterBlock(std::span<float> data, const Dims& d, std::size_t bz,
                  std::size_t by, std::size_t bx, const float* block) {
  const int nd = d.ndims;
  std::size_t in = 0;
  const std::size_t z_count = nd >= 3 ? 4 : 1;
  const std::size_t y_count = nd >= 2 ? 4 : 1;
  for (std::size_t z = 0; z < z_count; ++z) {
    const std::size_t zz = bz * 4 + z;
    for (std::size_t y = 0; y < y_count; ++y) {
      const std::size_t yy = by * 4 + y;
      for (std::size_t x = 0; x < 4; ++x, ++in) {
        const std::size_t xx = bx * 4 + x;
        if (zz < d.n[0] && yy < d.n[1] && xx < d.n[2]) {
          data[(zz * d.n[1] + yy) * d.n[2] + xx] = block[in];
        }
      }
    }
  }
}

/// Cut-off plane for a block: bits below kmin carry less than the error
/// bound even after inverse-transform amplification (guard bits cover the
/// per-dimension lifting gain; validated by the round-trip property tests).
int CutoffPlane(double eb, int emax, int dims) {
  // Scaled tolerance: eb expressed in the block's integer units.
  const double eb_scaled = std::ldexp(eb, (kIntPrec - 2) - emax);
  if (eb_scaled < 1.0) return 0;
  const int guard = 2 * dims + 1;
  const int ke = ExponentOf(eb_scaled);
  return std::clamp(ke - guard, 0, kIntPrec);
}

void EncodeBlock(const float* block, std::size_t size, int dims, double eb,
                 BitWriter& bw, std::uint64_t* empty_count) {
  float amax = 0.0f;
  for (std::size_t i = 0; i < size; ++i) {
    const float a = std::fabs(block[i]);
    if (a > amax) amax = a;
  }
  if (!(static_cast<double>(amax) > eb) || !std::isfinite(amax)) {
    // Entire block reconstructs to zero within the bound.  (Non-finite
    // input is out of scope for the baseline, as for real ZFP.)
    bw.WriteBit(0);
    if (empty_count != nullptr) ++*empty_count;
    return;
  }
  bw.WriteBit(1);
  const int emax = ExponentOf(amax) + 1;  // |x| < 2^emax
  bw.WriteBits(static_cast<std::uint64_t>(emax + 1024), 12);

  // Block floating point: scale into int32 with 2 headroom bits.
  const double scale = std::ldexp(1.0, (kIntPrec - 2) - emax);
  std::array<Int, 64> iblock{};
  for (std::size_t i = 0; i < size; ++i) {
    iblock[i] = static_cast<Int>(static_cast<double>(block[i]) * scale);
  }
  FwdXform(iblock.data(), dims);

  const auto perm = SequencyPerm(dims);
  std::array<UInt, 64> coeffs{};
  for (std::size_t i = 0; i < size; ++i) {
    coeffs[i] = Int2Uint(iblock[perm[i]]);
  }
  const int kmin = CutoffPlane(eb, emax, dims);
  EncodePlanes(std::span<const UInt>(coeffs.data(), size), kmin, bw);
}

void DecodeBlock(float* block, std::size_t size, int dims, double eb,
                 BitReader& br) {
  if (br.ReadBit() == 0) {
    std::fill(block, block + size, 0.0f);
    return;
  }
  const int emax = static_cast<int>(br.ReadBits(12)) - 1024;
  if (emax < -1022 || emax > 1024) {
    throw Error("zfpref: corrupt block exponent");
  }
  const int kmin = CutoffPlane(eb, emax, dims);
  std::array<UInt, 64> coeffs{};
  DecodePlanes(std::span<UInt>(coeffs.data(), size), kmin, br);

  const auto perm = SequencyPerm(dims);
  std::array<Int, 64> iblock{};
  for (std::size_t i = 0; i < size; ++i) {
    iblock[perm[i]] = Uint2Int(coeffs[i]);
  }
  InvXform(iblock.data(), dims);
  const double scale = std::ldexp(1.0, emax - (kIntPrec - 2));
  for (std::size_t i = 0; i < size; ++i) {
    block[i] = static_cast<float>(static_cast<double>(iblock[i]) * scale);
  }
}

}  // namespace

ByteBuffer ZfpCompress(std::span<const float> data,
                       std::span<const std::size_t> dims,
                       const ZfpParams& params, ZfpStats* stats) {
  const Dims d = MakeDims(dims, data.size());
  const double eb = ResolveBound(data, params);
  const std::size_t bsize = BlockSize(d.ndims);

  ByteBuffer payload;
  BitWriter bw(payload);
  std::uint64_t empty = 0;
  std::uint64_t blocks = 0;
  std::array<float, 64> block{};
  if (!data.empty()) {
    for (std::size_t bz = 0; bz < d.nb[0]; ++bz) {
      for (std::size_t by = 0; by < d.nb[1]; ++by) {
        for (std::size_t bx = 0; bx < d.nb[2]; ++bx) {
          GatherBlock(data, d, bz, by, bx, block.data());
          EncodeBlock(block.data(), bsize, d.ndims, eb, bw, &empty);
          ++blocks;
        }
      }
    }
  }
  bw.Flush();

  ZfpHeader h;
  h.ndims = static_cast<std::uint8_t>(d.ndims);
  h.eb_user = params.error_bound;
  h.eb_abs = eb;
  for (std::size_t k = 0; k < dims.size(); ++k) h.dims[k] = dims[k];
  h.num_elements = data.size();
  h.payload_bytes = payload.size();

  ByteBuffer out;
  out.reserve(sizeof(h) + payload.size());
  ByteWriter w(out);
  w.Write(h);
  out.insert(out.end(), payload.begin(), payload.end());

  if (stats != nullptr) {
    stats->num_elements = data.size();
    stats->num_blocks = blocks;
    stats->num_empty_blocks = empty;
    stats->compressed_bytes = out.size();
    stats->absolute_bound = eb;
  }
  return out;
}

std::vector<float> ZfpDecompress(ByteSpan stream) {
  ByteCursor r(stream);
  std::array<char, 4> magic{};
  r.ReadBytes(magic.data(), 4);
  if (magic == kZfpMultiMagic) {
    // Chunked stream from ZfpCompressOmp: decode chunks sequentially.
    const std::uint32_t chunks = r.Read<std::uint32_t>();
    if (chunks == 0 || chunks > 4096) {
      throw Error("zfpref: corrupt chunk count");
    }
    std::vector<std::uint64_t> sizes(chunks);
    for (auto& s : sizes) s = r.Read<std::uint64_t>();
    std::vector<float> out;
    for (std::uint32_t c = 0; c < chunks; ++c) {
      const std::vector<float> part = ZfpDecompress(r.Slice(sizes[c]));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }
  ByteCursor r2(stream);
  const ZfpHeader h = r2.Read<ZfpHeader>();
  if (h.magic != kZfpMagic || h.version != 1) {
    throw Error("zfpref: bad magic/version");
  }
  if (h.ndims < 1 || h.ndims > 3) {
    throw Error("zfpref: corrupt header");
  }
  std::vector<std::size_t> dims;
  for (int k = 0; k < h.ndims; ++k) {
    dims.push_back(static_cast<std::size_t>(h.dims[k]));
  }
  const Dims d = MakeDims(dims, h.num_elements);
  if (h.num_elements == 0) return {};
  // Each 4^d block covers at most 64 elements and costs at least one
  // payload bit, so num_elements beyond 512x the remaining bytes cannot
  // be genuine; refuse before allocating.
  std::vector<float> out(r2.CheckedAlloc(h.num_elements, sizeof(float), 512));
  ByteSpan payload = r2.Slice(h.payload_bytes);
  BitReader br(payload);
  const std::size_t bsize = BlockSize(d.ndims);
  std::array<float, 64> block{};
  for (std::size_t bz = 0; bz < d.nb[0]; ++bz) {
    for (std::size_t by = 0; by < d.nb[1]; ++by) {
      for (std::size_t bx = 0; bx < d.nb[2]; ++bx) {
        DecodeBlock(block.data(), bsize, d.ndims, h.eb_abs, br);
        ScatterBlock(out, d, bz, by, bx, block.data());
      }
    }
  }
  return out;
}

namespace {

constexpr std::array<char, 4> kZfpFixedMagic = {'Z', 'F', 'R', 'F'};

#pragma pack(push, 1)
struct ZfpFixedHeader {
  std::array<char, 4> magic = kZfpFixedMagic;
  std::uint8_t version = 1;
  std::uint8_t ndims = 1;
  std::uint8_t reserved[2] = {0, 0};
  std::uint32_t block_bits = 0;  ///< exact bits per 4^d block
  std::uint32_t reserved2 = 0;
  std::uint64_t dims[3] = {0, 0, 0};
  std::uint64_t num_elements = 0;
};
#pragma pack(pop)

constexpr std::uint32_t kFixedBlockHeaderBits = 13;  // empty flag + emax

}  // namespace

ByteBuffer ZfpCompressFixedRate(std::span<const float> data,
                                std::span<const std::size_t> dims,
                                double bits_per_value, ZfpStats* stats) {
  const Dims d = MakeDims(dims, data.size());
  const std::size_t bsize = BlockSize(d.ndims);
  if (!(bits_per_value >= 1.0) || bits_per_value > 34.0) {
    throw Error("zfpref: rate must be in [1, 34] bits per value");
  }
  // szx-lint: allow(unchecked-narrow) -- rate is validated to [1, 34] and bsize is at most 64, so the product fits in 12 bits
  const auto block_bits = static_cast<std::uint32_t>(
      bits_per_value * static_cast<double>(bsize));
  if (block_bits <= kFixedBlockHeaderBits) {
    throw Error("zfpref: rate too small for the block header");
  }

  ByteBuffer payload;
  BitWriter bw(payload);
  std::uint64_t empty = 0;
  std::uint64_t blocks = 0;
  std::array<float, 64> block{};
  for (std::size_t bz = 0; bz < d.nb[0] && !data.empty(); ++bz) {
    for (std::size_t by = 0; by < d.nb[1]; ++by) {
      for (std::size_t bx = 0; bx < d.nb[2]; ++bx) {
        GatherBlock(data, d, bz, by, bx, block.data());
        float amax = 0.0f;
        for (std::size_t i = 0; i < bsize; ++i) {
          const float a = std::fabs(block[i]);
          if (a > amax) amax = a;
        }
        if (amax == 0.0f || !std::isfinite(amax)) {
          bw.WriteBit(0);
          for (std::uint32_t p = 1; p < block_bits; ++p) bw.WriteBit(0);
          ++empty;
          ++blocks;
          continue;
        }
        bw.WriteBit(1);
        const int emax = ExponentOf(amax) + 1;
        bw.WriteBits(static_cast<std::uint64_t>(emax + 1024), 12);
        const double scale = std::ldexp(1.0, (kIntPrec - 2) - emax);
        std::array<Int, 64> iblock{};
        for (std::size_t i = 0; i < bsize; ++i) {
          iblock[i] =
              static_cast<Int>(static_cast<double>(block[i]) * scale);
        }
        FwdXform(iblock.data(), d.ndims);
        const auto perm = SequencyPerm(d.ndims);
        std::array<UInt, 64> coeffs{};
        for (std::size_t i = 0; i < bsize; ++i) {
          coeffs[i] = Int2Uint(iblock[perm[i]]);
        }
        EncodePlanesBudget(std::span<const UInt>(coeffs.data(), bsize), 0,
                           block_bits - kFixedBlockHeaderBits, bw);
        ++blocks;
      }
    }
  }
  bw.Flush();

  ZfpFixedHeader h;
  h.ndims = static_cast<std::uint8_t>(d.ndims);
  h.block_bits = block_bits;
  for (std::size_t k = 0; k < dims.size(); ++k) h.dims[k] = dims[k];
  h.num_elements = data.size();
  ByteBuffer out;
  out.reserve(sizeof(h) + payload.size());
  ByteWriter w(out);
  w.Write(h);
  out.insert(out.end(), payload.begin(), payload.end());
  if (stats != nullptr) {
    stats->num_elements = data.size();
    stats->num_blocks = blocks;
    stats->num_empty_blocks = empty;
    stats->compressed_bytes = out.size();
    stats->absolute_bound = 0.0;  // fixed rate has no bound
  }
  return out;
}

std::vector<float> ZfpDecompressFixedRate(ByteSpan stream) {
  ByteCursor r(stream);
  const ZfpFixedHeader h = r.Read<ZfpFixedHeader>();
  if (h.magic != kZfpFixedMagic || h.version != 1) {
    throw Error("zfpref: bad fixed-rate magic/version");
  }
  if (h.ndims < 1 || h.ndims > 3 ||
      h.block_bits <= kFixedBlockHeaderBits) {
    throw Error("zfpref: corrupt fixed-rate header");
  }
  std::vector<std::size_t> dims;
  for (int k = 0; k < h.ndims; ++k) {
    dims.push_back(static_cast<std::size_t>(h.dims[k]));
  }
  const Dims d = MakeDims(dims, h.num_elements);
  if (h.num_elements == 0) return {};
  const std::size_t bsize = BlockSize(d.ndims);
  // Fixed rate means the payload size is exactly determined by the block
  // count; verify it before allocating the output.
  const std::uint64_t total_blocks =
      CheckedMul(CheckedMul(d.nb[0], d.nb[1]), d.nb[2]);
  const std::uint64_t need_bits = CheckedMul(total_blocks, h.block_bits);
  if (need_bits > CheckedMul(r.remaining(), 8)) {
    throw Error("zfpref: truncated fixed-rate payload");
  }
  std::vector<float> out(r.CheckedAlloc(h.num_elements, sizeof(float), 512));
  ByteSpan payload = r.Rest();
  BitReader br(payload);
  std::array<float, 64> block{};
  for (std::size_t bz = 0; bz < d.nb[0]; ++bz) {
    for (std::size_t by = 0; by < d.nb[1]; ++by) {
      for (std::size_t bx = 0; bx < d.nb[2]; ++bx) {
        if (br.ReadBit() == 0) {
          br.Skip(h.block_bits - 1);
          std::fill(block.begin(), block.begin() + bsize, 0.0f);
          ScatterBlock(out, d, bz, by, bx, block.data());
          continue;
        }
        const int emax = static_cast<int>(br.ReadBits(12)) - 1024;
        if (emax < -1022 || emax > 1024) {
          throw Error("zfpref: corrupt fixed-rate block exponent");
        }
        std::array<UInt, 64> coeffs{};
        DecodePlanesBudget(std::span<UInt>(coeffs.data(), bsize), 0,
                           h.block_bits - kFixedBlockHeaderBits, br);
        const auto perm = SequencyPerm(d.ndims);
        std::array<Int, 64> iblock{};
        for (std::size_t i = 0; i < bsize; ++i) {
          iblock[perm[i]] = Uint2Int(coeffs[i]);
        }
        InvXform(iblock.data(), d.ndims);
        const double scale = std::ldexp(1.0, emax - (kIntPrec - 2));
        for (std::size_t i = 0; i < bsize; ++i) {
          block[i] =
              static_cast<float>(static_cast<double>(iblock[i]) * scale);
        }
        ScatterBlock(out, d, bz, by, bx, block.data());
      }
    }
  }
  return out;
}

ByteBuffer ZfpCompressOmp(std::span<const float> data,
                          std::span<const std::size_t> dims,
                          const ZfpParams& params, ZfpStats* stats,
                          int num_threads) {
  MakeDims(dims, data.size());  // validate geometry up front
  // Chunk along the slowest dimension in multiples of the block edge.
  const std::size_t slow = dims.empty() ? 0 : dims[0];
  const std::size_t slow_blocks = (slow + 3) / 4;
  const std::size_t plane = slow == 0 ? 0 : data.size() / slow;
  const int threads = static_cast<int>(std::min<std::size_t>(
      exec::ResolveThreads(num_threads), std::max<std::size_t>(slow_blocks, 1)));

  ZfpParams chunk_params = params;
  chunk_params.mode = ErrorBoundMode::kAbsolute;
  chunk_params.error_bound = ResolveBound(data, params);

  std::vector<std::size_t> starts(threads + 1, slow);
  for (int c = 0; c < threads; ++c) {
    starts[c] = std::min<std::size_t>(
        4 * (slow_blocks * static_cast<std::size_t>(c) /
             static_cast<std::size_t>(threads)),
        slow);
  }
  std::vector<ByteBuffer> chunks(threads);
  std::vector<ZfpStats> chunk_stats(threads);
  exec::ParallelFor(chunks.size(), threads, [&](std::uint64_t c) {
    const std::size_t lo = starts[c];
    const std::size_t hi = starts[c + 1];
    if (lo >= hi) return;
    std::vector<std::size_t> sub_dims(dims.begin(), dims.end());
    sub_dims[0] = hi - lo;
    chunks[c] = ZfpCompress(data.subspan(lo * plane, (hi - lo) * plane),
                            sub_dims, chunk_params, &chunk_stats[c]);
  });

  ByteBuffer out;
  ByteWriter w(out);
  w.WriteBytes(kZfpMultiMagic.data(), 4);
  w.Write(static_cast<std::uint32_t>(threads));
  for (const auto& c : chunks) w.Write(static_cast<std::uint64_t>(c.size()));
  for (const auto& c : chunks) out.insert(out.end(), c.begin(), c.end());

  if (stats != nullptr) {
    *stats = ZfpStats{};
    for (const auto& cs : chunk_stats) {
      stats->num_elements += cs.num_elements;
      stats->num_blocks += cs.num_blocks;
      stats->num_empty_blocks += cs.num_empty_blocks;
    }
    stats->compressed_bytes = out.size();
    stats->absolute_bound = chunk_params.error_bound;
  }
  return out;
}

}  // namespace szx::zfpref
