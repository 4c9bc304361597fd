#include "resilience/salvage.hpp"

#include <algorithm>
#include <sstream>

#include "core/annotations.hpp"
#include "core/executor.hpp"
#include "core/json.hpp"

namespace szx::resilience {

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kCorrupt: return "corrupt";
    case Verdict::kTruncated: return "truncated";
    case Verdict::kUnverified: return "unverified";
  }
  return "?";
}

const char* ChunkFillName(ChunkFill f) {
  switch (f) {
    case ChunkFill::kDecoded: return "decoded";
    case ChunkFill::kMuFill: return "mu_fill";
    case ChunkFill::kSentinel: return "sentinel";
  }
  return "?";
}

bool DamageReport::AllTablesVerify() const {
  return header == Verdict::kOk && type_bits == Verdict::kOk &&
         const_mu == Verdict::kOk && ncb_req == Verdict::kOk &&
         ncb_mu == Verdict::kOk && ncb_zsize == Verdict::kOk;
}

bool DamageReport::BlockDamaged(std::uint64_t k) const {
  return std::any_of(
      damaged_blocks.begin(), damaged_blocks.end(),
      [&](const BlockRange& r) { return r.begin <= k && k < r.end; });
}

namespace {

// --------------------------------------------------------------------------
// Report plumbing.

void AddBlockRange(std::vector<BlockRange>& v, std::uint64_t begin,
                   std::uint64_t end) {
  if (begin >= end) return;
  if (!v.empty() && v.back().end == begin) {
    v.back().end = end;
  } else {
    v.push_back({begin, end});
  }
}

void AddByteRange(std::vector<ByteRange>& v, std::uint64_t begin,
                  std::uint64_t end) {
  if (begin >= end) return;
  if (!v.empty() && v.back().end == begin) {
    v.back().end = end;
  } else {
    v.push_back({begin, end});
  }
}

// --------------------------------------------------------------------------
// Fill helpers.  Sentinel fill cannot fail; mu fill reads the verified
// tables through the bounds-checked accessors and is wrapped by callers.

template <SupportedFloat T>
void FillSentinel(std::span<T> out, double sentinel) {
  const T v = static_cast<T>(sentinel);
  for (T& x : out) x = v;
}

/// Fills blocks [first_block, last_block) with their per-block mu from the
/// const/mu tables, starting at the given table indices (the degradation
/// path when a payload chunk is damaged but the tables verify).  Not a
/// WalkBlocks caller: it may read only the verified mu tables, never the
/// zsize or req sections, which may be the damaged ones.
template <SupportedFloat T>
void MuFillBlocks(const Sections<T>& s, std::uint64_t first_block,
                  std::uint64_t last_block, std::uint64_t ci,
                  std::uint64_t nci, std::span<T> out) {
  const Header& h = s.header;
  const std::uint32_t bs = h.block_size;
  for (std::uint64_t k = first_block; k < last_block; ++k) {
    const std::uint64_t begin = k * bs;
    const std::uint64_t count =
        std::min<std::uint64_t>(bs, h.num_elements - begin);
    std::span<T> block = out.subspan(begin, count);
    const T mu =
        IsNonConstant(s.type_bits, k) ? s.NcbMu(nci++) : s.ConstMu(ci++);
    for (T& v : block) v = mu;
  }
}

/// Element range [begin, end) covered by blocks [first, last).
std::pair<std::uint64_t, std::uint64_t> BlockElemRange(
    const Header& h, std::uint64_t first, std::uint64_t last) {
  const std::uint64_t begin = first * h.block_size;
  const std::uint64_t end =
      std::min<std::uint64_t>(last * h.block_size, h.num_elements);
  return {begin, std::max(begin, end)};
}

template <SupportedFloat T>
void SentinelFillChunk(const Header& h, std::uint64_t first,
                       std::uint64_t last, double sentinel,
                       std::span<T> out) {
  const auto [begin, end] = BlockElemRange(h, first, last);
  FillSentinel(out.subspan(begin, end - begin), sentinel);
}

// --------------------------------------------------------------------------
// Footer path: every section and payload chunk has a checksum to test.  The
// sections come from ParseSections (which refuses another element type), a
// damaged section's byte range from FrameExtentsOf.

template <SupportedFloat T>
void FooterSalvage(ByteSpan stream, const IntegrityFooterView& fv,
                   const SalvageOptions& opt, bool decode,
                   SalvageResult<T>& res) {
  DamageReport& r = res.report;
  r.has_footer = true;
  r.footer = Verdict::kOk;
  const ByteSpan prefix = stream.first(fv.footer_offset);
  if (prefix.size() < sizeof(Header) ||
      Fnv1a64(prefix.first(sizeof(Header))) != fv.header_fnv) {
    r.header = Verdict::kCorrupt;
    r.error = "header checksum mismatch";
    AddByteRange(r.damaged_bytes, 0,
                 std::min<std::uint64_t>(sizeof(Header), stream.size()));
    return;
  }
  r.header = Verdict::kOk;
  Sections<T> s;
  try {
    // The report keeps the header fields even when the sections cannot be
    // parsed as T (a frame of the other element type, say).
    const Header h = ParseHeader(prefix);
    r.version = h.version;
    r.num_elements = h.num_elements;
    r.num_blocks = h.num_blocks;
    s = ParseSections<T>(prefix);
  } catch (const Error& e) {
    r.error = e.what();
    return;
  }
  const Header& h = s.header;
  if (fv.chunk_count != IntegrityChunkCount(h)) {
    // A verified header and a self-consistent footer that disagree on the
    // chunk plan cannot come from the same encode; refuse to guess.
    r.footer = Verdict::kCorrupt;
    r.error = "footer chunk plan disagrees with header";
    return;
  }
  // ParseSections computed these same extents without throwing.
  const FrameExtents x = FrameExtentsOf(h, sizeof(T));
  const auto damaged = [&r](const Extent& e) {
    AddByteRange(r.damaged_bytes, e.offset, e.offset + e.length);
  };
  const auto section_verdict = [&](ByteSpan sec, std::uint64_t want,
                                   const Extent& e) {
    if (Fnv1a64(sec) == want) return Verdict::kOk;
    damaged(e);
    return Verdict::kCorrupt;
  };
  r.type_bits = section_verdict(s.type_bits, fv.type_bits_fnv, x.type_bits);
  r.const_mu = section_verdict(s.const_mu, fv.const_mu_fnv, x.const_mu);
  r.ncb_req = section_verdict(s.ncb_req, fv.ncb_req_fnv, x.ncb_req);
  r.ncb_mu = section_verdict(s.ncb_mu, fv.ncb_mu_fnv, x.ncb_mu);
  r.ncb_zsize = section_verdict(s.ncb_zsize, fv.ncb_zsize_fnv, x.ncb_zsize);

  std::span<T> out;
  if (decode) {
    try {
      res.data.resize(CheckedOutputCount<T>(stream, h));
    } catch (const Error& e) {
      r.error = e.what();
      return;
    }
    out = res.data;
  }

  const std::uint32_t cc = fv.chunk_count;
  // Per-chunk verdict/fill slots: each parallel salvage task writes only
  // its own disjoint index, and the ParallelFor barrier (Batch::Wait's
  // acquire on unfinished_) publishes every slot before the serial
  // aggregation below reads them.
  std::vector<Verdict> cv SZX_SYNCHRONIZED_BY(parallel_for_join)(
      cc, Verdict::kUnverified);
  std::vector<ChunkFill> cf SZX_SYNCHRONIZED_BY(parallel_for_join)(
      cc, ChunkFill::kSentinel);
  std::vector<ChunkRef> refs(cc);
  bool have_refs = false;

  if ((h.flags & kFlagRawPassthrough) != 0) {
    refs[0].first_block = 0;
    refs[0].last_block = h.num_blocks;
    const bool ok = Fnv1a64(s.payload) == fv.ChunkFnv(0);
    cv[0] = ok ? Verdict::kOk : Verdict::kCorrupt;
    if (ok) {
      cf[0] = ChunkFill::kDecoded;
      if (decode) ByteCursor(s.payload).ReadSpan(out);
    } else {
      cf[0] = ChunkFill::kSentinel;
      if (decode) FillSentinel(out, opt.sentinel);
      damaged(x.payload);
    }
  } else {
    const bool tables_ok = r.AllTablesVerify();
    const bool mu_ok = r.type_bits == Verdict::kOk &&
                       r.const_mu == Verdict::kOk &&
                       r.ncb_mu == Verdict::kOk;
    if (r.type_bits == Verdict::kOk && r.ncb_zsize == Verdict::kOk) {
      try {
        BuildChunkRefs(s, std::span<ChunkRef>(refs));
        have_refs = true;
      } catch (const Error&) {
        have_refs = false;
      }
    }
    if (!have_refs) {
      // The chunk directory cannot be located, so no payload checksum can
      // be tested: degrade the whole frame in one step.
      SetChunkBounds(h.num_blocks, std::span<ChunkRef>(refs));
      for (std::uint32_t c = 0; c < cc; ++c) {
        cv[c] = Verdict::kUnverified;
        cf[c] = mu_ok ? ChunkFill::kMuFill : ChunkFill::kSentinel;
      }
      if (decode) {
        bool filled = false;
        if (mu_ok) {
          try {
            MuFillBlocks(s, 0, h.num_blocks, 0, 0, out);
            filled = true;
          } catch (const Error&) {
            filled = false;
          }
        }
        if (!filled) {
          FillSentinel(out, opt.sentinel);
          for (std::uint32_t c = 0; c < cc; ++c) {
            cf[c] = ChunkFill::kSentinel;
          }
        }
      }
    } else {
      const auto solution = static_cast<CommitSolution>(h.solution);
      // Chunks are independent (disjoint refs/cv/cf/out ranges); the
      // executor facade runs them inline at width 1, and the serial
      // aggregation below keeps the DamageReport deterministic for any
      // width.
      exec::ParallelFor(cc, opt.num_threads, [&](std::uint64_t c) {
        const ChunkRef& cr = refs[c];
        const std::uint64_t pbegin = cr.payload_base;
        const std::uint64_t pend =
            c + 1 < cc ? refs[c + 1].payload_base : h.payload_bytes;
        const bool chunk_ok =
            Fnv1a64(s.payload.subspan(pbegin, pend - pbegin)) ==
            fv.ChunkFnv(c);
        Verdict verdict = chunk_ok ? Verdict::kOk : Verdict::kCorrupt;
        ChunkFill fill = ChunkFill::kSentinel;
        if (chunk_ok && tables_ok) {
          fill = ChunkFill::kDecoded;
          if (decode) {
            try {
              DecodeChunkInto(s, solution, cr, out);
            } catch (const Error&) {
              // Checksums matched yet the chunk is internally inconsistent
              // (only possible for a forged stream): quarantine it.
              verdict = Verdict::kCorrupt;
              fill = ChunkFill::kSentinel;
            }
          }
        } else if (chunk_ok) {
          verdict = Verdict::kUnverified;  // payload fine, tables are not
        }
        if (fill != ChunkFill::kDecoded) {
          bool filled = false;
          if (mu_ok) {
            try {
              if (decode) {
                MuFillBlocks(s, cr.first_block, cr.last_block, cr.const_base,
                             cr.ncb_base, out);
              }
              fill = ChunkFill::kMuFill;
              filled = true;
            } catch (const Error&) {
              filled = false;
            }
          }
          if (!filled) {
            fill = ChunkFill::kSentinel;
            if (decode) {
              SentinelFillChunk(h, cr.first_block, cr.last_block,
                                opt.sentinel, out);
            }
          }
        }
        cv[c] = verdict;
        cf[c] = fill;
      });
    }
  }

  // Serial aggregation keeps the report deterministic for any thread count.
  for (std::uint32_t c = 0; c < cc; ++c) {
    const ChunkRef& cr = refs[c];
    const std::uint64_t blocks = cr.last_block - cr.first_block;
    r.chunks.push_back({cr.first_block, cr.last_block, cv[c], cf[c]});
    switch (cf[c]) {
      case ChunkFill::kDecoded: r.blocks_recovered += blocks; break;
      case ChunkFill::kMuFill: r.blocks_mu_filled += blocks; break;
      case ChunkFill::kSentinel: r.blocks_lost += blocks; break;
    }
    if (cf[c] != ChunkFill::kDecoded) {
      AddBlockRange(r.damaged_blocks, cr.first_block, cr.last_block);
    }
    if (cv[c] == Verdict::kCorrupt && have_refs) {
      const std::uint64_t pbegin = cr.payload_base;
      const std::uint64_t pend =
          c + 1 < cc ? refs[c + 1].payload_base : h.payload_bytes;
      AddByteRange(r.damaged_bytes, x.payload.offset + pbegin,
                   x.payload.offset + pend);
    }
  }
  r.usable = true;
  r.clean = r.AllTablesVerify() && r.footer == Verdict::kOk &&
            std::all_of(cv.begin(), cv.end(),
                        [](Verdict v) { return v == Verdict::kOk; });
}

// --------------------------------------------------------------------------
// Footerless fallback (v1 streams, or a footer destroyed by truncation or a
// torn write).  Nothing can be verified; the walk decodes whatever the
// surviving metadata still addresses, block by block, and reports every
// degradation.  Serial by construction so thread count cannot matter.
// The header is parsed untyped so the report keeps its fields; the element
// type is then checked by format.hpp's RequireElementType, and the section
// extents come from FrameExtentsOf, clamped to the bytes that survive.

/// The part of extent `e` that `stream` still holds; `verdict` says
/// whether any of it is missing.
ByteSpan ClampSection(ByteSpan stream, const Extent& e, Verdict& verdict) {
  const std::uint64_t size = stream.size();
  if (e.offset >= size) {
    verdict = e.length > 0 ? Verdict::kTruncated : Verdict::kUnverified;
    return {};
  }
  const std::uint64_t avail = std::min(e.length, size - e.offset);
  verdict = avail < e.length ? Verdict::kTruncated : Verdict::kUnverified;
  return stream.subspan(e.offset, avail);
}

template <SupportedFloat T>
void FallbackSalvage(ByteSpan stream, const SalvageOptions& opt, bool decode,
                     SalvageResult<T>& res) {
  DamageReport& r = res.report;
  r.has_footer = false;
  Header h;
  try {
    h = ParseHeader(stream);
  } catch (const Error& e) {
    r.header = Verdict::kCorrupt;
    r.error = std::string("header unparseable: ") + e.what();
    AddByteRange(r.damaged_bytes, 0,
                 std::min<std::uint64_t>(sizeof(Header), stream.size()));
    return;
  }
  r.header = Verdict::kUnverified;
  r.version = h.version;
  r.num_elements = h.num_elements;
  r.num_blocks = h.num_blocks;
  FrameExtents x;
  std::uint64_t out_bytes = 0;
  try {
    RequireElementType<T>(h);
    x = FrameExtentsOf(h, sizeof(T));
    out_bytes = CheckedMul(h.num_elements, sizeof(T));
  } catch (const Error& e) {
    r.error = e.what();
    return;
  }
  // The header is unverified here, so its num_elements could be forged:
  // refuse absurd output allocations instead of attempting them.
  if (out_bytes > opt.max_output_bytes) {
    r.error = "salvage output would exceed SalvageOptions::max_output_bytes";
    return;
  }
  const bool raw = (h.flags & kFlagRawPassthrough) != 0;
  ByteSpan type_av, const_av, req_av, mu_av, zsize_av, payload_av;
  Verdict payload_verdict = Verdict::kUnverified;
  payload_av = ClampSection(stream, x.payload, payload_verdict);
  if (!raw) {
    type_av = ClampSection(stream, x.type_bits, r.type_bits);
    const_av = ClampSection(stream, x.const_mu, r.const_mu);
    req_av = ClampSection(stream, x.ncb_req, r.ncb_req);
    mu_av = ClampSection(stream, x.ncb_mu, r.ncb_mu);
    zsize_av = ClampSection(stream, x.ncb_zsize, r.ncb_zsize);
  }
  if (stream.size() < x.end) {
    AddByteRange(r.damaged_bytes, stream.size(), x.end);
  }
  r.usable = true;  // some output can be produced (possibly all sentinel)
  if (!decode) return;

  std::span<T> out;
  try {
    res.data.resize(CheckedOutputCount<T>(stream, h));
  } catch (const Error& e) {
    r.error = e.what();
    r.usable = false;
    return;
  }
  out = res.data;

  if (raw) {
    const std::uint64_t avail_elems = payload_av.size() / sizeof(T);
    if (avail_elems > 0) {
      ByteCursor(payload_av.first(avail_elems * sizeof(T)))
          .ReadSpan(out.subspan(0, avail_elems));
    }
    FillSentinel(out.subspan(avail_elems), opt.sentinel);
    const std::uint32_t bs = h.block_size;
    const std::uint64_t intact_blocks =
        std::min<std::uint64_t>(h.num_blocks, avail_elems / bs);
    const std::uint64_t full_tail =
        avail_elems >= h.num_elements ? h.num_blocks : intact_blocks;
    r.blocks_recovered = full_tail;
    r.blocks_lost = h.num_blocks - full_tail;
    AddBlockRange(r.damaged_blocks, full_tail, h.num_blocks);
    return;
  }

  // Not WalkBlocks: this walk must tolerate missing sections (it reads the
  // clamped *_av spans and degrades block by block instead of throwing).
  const auto solution = static_cast<CommitSolution>(h.solution);
  const kernels::BlockOps<T>& ops = kernels::ActiveOps<T>();
  const std::uint32_t bs = h.block_size;
  std::uint64_t ci = 0;
  std::uint64_t nci = 0;
  std::uint64_t offset = 0;
  bool payload_addr_ok = true;  // false once a zsize entry is unreadable
  for (std::uint64_t k = 0; k < h.num_blocks; ++k) {
    const std::uint64_t begin = k * bs;
    const std::uint64_t count =
        std::min<std::uint64_t>(bs, h.num_elements - begin);
    std::span<T> block = out.subspan(begin, count);
    if ((k >> 3) >= type_av.size()) {
      // The type-bit tail is gone: nothing beyond this point is even
      // classifiable.  Sentinel-fill the remainder and stop.
      FillSentinel(out.subspan(begin), opt.sentinel);
      r.blocks_lost += h.num_blocks - k;
      AddBlockRange(r.damaged_blocks, k, h.num_blocks);
      return;
    }
    if (!IsNonConstant(type_av, k)) {
      T mu{};
      bool mu_read = true;
      try {
        mu = LoadAt<T>(const_av, ci);
      } catch (const Error&) {
        mu_read = false;
      }
      ++ci;
      if (mu_read) {
        for (T& v : block) v = mu;
        ++r.blocks_recovered;  // mu IS the exact decode of a constant block
      } else {
        FillSentinel(block, opt.sentinel);
        ++r.blocks_lost;
        AddBlockRange(r.damaged_blocks, k, k + 1);
      }
      continue;
    }
    T mu{};
    std::uint8_t req = 0;
    std::uint16_t zs = 0;
    bool mu_read = true, req_read = true, zs_read = true;
    try {
      mu = LoadAt<T>(mu_av, nci);
    } catch (const Error&) {
      mu_read = false;
    }
    try {
      req = LoadAt<std::uint8_t>(req_av, nci);
    } catch (const Error&) {
      req_read = false;
    }
    try {
      zs = LoadAt<std::uint16_t>(zsize_av, nci);
    } catch (const Error&) {
      zs_read = false;
    }
    ++nci;
    bool decoded = false;
    if (mu_read && req_read && zs_read && payload_addr_ok &&
        offset + zs <= payload_av.size()) {
      try {
        const ReqPlan plan = PlanFromReqLength<T>(req);
        detail::DecodeBlockBySolution(ops, solution,
                                      payload_av.subspan(offset), zs, mu,
                                      plan, block);
        decoded = true;
      } catch (const Error&) {
        decoded = false;
      }
    }
    if (!zs_read) {
      payload_addr_ok = false;  // later payload offsets are unknowable
    } else {
      offset += zs;
    }
    if (decoded) {
      ++r.blocks_recovered;
    } else if (mu_read) {
      for (T& v : block) v = mu;
      ++r.blocks_mu_filled;
      AddBlockRange(r.damaged_blocks, k, k + 1);
    } else {
      FillSentinel(block, opt.sentinel);
      ++r.blocks_lost;
      AddBlockRange(r.damaged_blocks, k, k + 1);
    }
  }
}

}  // namespace

std::string DamageReport::ToJson() const {
  std::ostringstream os;
  os << "{\"usable\":" << (usable ? "true" : "false")
     << ",\"clean\":" << (clean ? "true" : "false") << ",\"error\":\"";
  os << JsonEscape(error);
  os << "\",\"version\":" << static_cast<int>(version)
     << ",\"has_footer\":" << (has_footer ? "true" : "false")
     << ",\"verdicts\":{\"footer\":\"" << VerdictName(footer)
     << "\",\"header\":\"" << VerdictName(header) << "\",\"type_bits\":\""
     << VerdictName(type_bits) << "\",\"const_mu\":\""
     << VerdictName(const_mu) << "\",\"ncb_req\":\"" << VerdictName(ncb_req)
     << "\",\"ncb_mu\":\"" << VerdictName(ncb_mu) << "\",\"ncb_zsize\":\""
     << VerdictName(ncb_zsize) << "\"}"
     << ",\"num_elements\":" << num_elements
     << ",\"num_blocks\":" << num_blocks
     << ",\"blocks_recovered\":" << blocks_recovered
     << ",\"blocks_mu_filled\":" << blocks_mu_filled
     << ",\"blocks_lost\":" << blocks_lost << ",\"chunks\":[";
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ChunkVerdict& c = chunks[i];
    os << (i == 0 ? "" : ",") << "{\"first_block\":" << c.first_block
       << ",\"last_block\":" << c.last_block << ",\"verdict\":\""
       << VerdictName(c.verdict) << "\",\"fill\":\""
       << ChunkFillName(c.fill) << "\"}";
  }
  os << "],\"damaged_blocks\":[";
  for (std::size_t i = 0; i < damaged_blocks.size(); ++i) {
    os << (i == 0 ? "" : ",") << "[" << damaged_blocks[i].begin << ","
       << damaged_blocks[i].end << "]";
  }
  os << "],\"damaged_bytes\":[";
  for (std::size_t i = 0; i < damaged_bytes.size(); ++i) {
    os << (i == 0 ? "" : ",") << "[" << damaged_bytes[i].begin << ","
       << damaged_bytes[i].end << "]";
  }
  os << "]}";
  return os.str();
}

template <SupportedFloat T>
SalvageResult<T> SalvageDecode(ByteSpan stream, const SalvageOptions& opt) {
  SalvageResult<T> res;
  const std::optional<IntegrityFooterView> fv = FindIntegrityFooter(stream);
  if (fv.has_value()) {
    FooterSalvage<T>(stream, *fv, opt, /*decode=*/true, res);
  } else {
    FallbackSalvage<T>(stream, opt, /*decode=*/true, res);
  }
  if (!res.report.usable) res.data.clear();
  return res;
}

template <SupportedFloat T>
DamageReport VerifyIntegrity(ByteSpan stream) {
  SalvageResult<T> res;
  const SalvageOptions opt;
  const std::optional<IntegrityFooterView> fv = FindIntegrityFooter(stream);
  if (fv.has_value()) {
    FooterSalvage<T>(stream, *fv, opt, /*decode=*/false, res);
  } else {
    FallbackSalvage<T>(stream, opt, /*decode=*/false, res);
  }
  return res.report;
}

template SalvageResult<float> SalvageDecode<float>(ByteSpan,
                                                   const SalvageOptions&);
template SalvageResult<double> SalvageDecode<double>(ByteSpan,
                                                     const SalvageOptions&);
template DamageReport VerifyIntegrity<float>(ByteSpan);
template DamageReport VerifyIntegrity<double>(ByteSpan);

}  // namespace szx::resilience
