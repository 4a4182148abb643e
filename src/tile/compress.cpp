#include "tile/compress.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tile/edge_block.h"
#include "util/checked.h"
#include "util/dcheck.h"
#include "util/status.h"

namespace gstore::tile {

namespace {

// ---- varints (LEB128, shared by kDelta/kRuns/kHybrid) ----------------------

void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

unsigned varint_len(std::uint32_t v) {
  unsigned n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint32_t get_varint(std::span<const std::uint8_t> in, std::size_t& pos) {
  std::uint32_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (pos >= in.size()) throw FormatError("truncated varint in tile payload");
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint32_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 28) throw FormatError("varint overflow in tile payload");
  }
}

// ---- bit packing -----------------------------------------------------------

// OR-writes `bits` (≤16) of `v` at bit offset `bitpos` of a zeroed buffer.
void write_bits(std::uint8_t* p, std::uint64_t bitpos, std::uint32_t v,
                unsigned bits) {
  const std::size_t i = static_cast<std::size_t>(bitpos >> 3);
  const unsigned off = static_cast<unsigned>(bitpos & 7);
  const std::uint32_t w = v << off;  // ≤ 16 + 7 = 23 significant bits
  p[i] |= static_cast<std::uint8_t>(w);
  if (bits + off > 8) p[i + 1] |= static_cast<std::uint8_t>(w >> 8);
  if (bits + off > 16) p[i + 2] |= static_cast<std::uint8_t>(w >> 16);
}

// Reads `bits` (≤16) at `bitpos` byte-by-byte; never touches p[avail..].
// Caller guarantees bitpos + bits <= avail * 8.
std::uint32_t read_bits_tail(const std::uint8_t* p, std::size_t avail,
                             std::uint64_t bitpos, std::uint32_t mask) {
  const std::size_t i = static_cast<std::size_t>(bitpos >> 3);
  std::uint32_t v = p[i];
  if (i + 1 < avail) v |= static_cast<std::uint32_t>(p[i + 1]) << 8;
  if (i + 2 < avail) v |= static_cast<std::uint32_t>(p[i + 2]) << 16;
  return (v >> (bitpos & 7)) & mask;
}

// Widen-decodes `count` values starting at element `start` of a bit-packed
// plane into global ids. `avail` is the byte distance from the plane start to
// the end of the body: the bulk loop reads 8-byte windows that may overhang
// the plane into later payload bytes (masked off) but never past the body.
void unpack_plane(const std::uint8_t* p, std::size_t avail, std::uint64_t start,
                  std::size_t count, unsigned bits, graph::vid_t base,
                  graph::vid_t* out) {
  if (bits == 16) {
    const std::uint8_t* q = p + start * 2;
    for (std::size_t k = 0; k < count; ++k) {
      std::uint16_t v;
      std::memcpy(&v, q + k * 2, 2);
      out[k] = base + v;
    }
    return;
  }
  if (bits == 8) {
    const std::uint8_t* q = p + start;
    for (std::size_t k = 0; k < count; ++k) out[k] = base + q[k];
    return;
  }
  const std::uint32_t mask = (1u << bits) - 1u;
  // Elements whose full 8-byte load window stays inside `avail` bytes: the
  // ones at index <= last_bit / bits.
  std::size_t bulk = 0;
  if (avail >= 8) {
    const std::uint64_t last =
        (static_cast<std::uint64_t>(avail) - 8) * 8 / bits;
    if (last >= start)
      bulk = static_cast<std::size_t>(
          std::min<std::uint64_t>(count, last - start + 1));
  }
  for (std::size_t k = 0; k < bulk; ++k) {
    const std::uint64_t bitpos = (start + k) * bits;
    std::uint64_t w;
    std::memcpy(&w, p + (bitpos >> 3), 8);
    out[k] = base + static_cast<graph::vid_t>((w >> (bitpos & 7)) & mask);
  }
  for (std::size_t k = bulk; k < count; ++k) {
    const std::uint64_t bitpos = (start + k) * bits;
    out[k] = base + read_bits_tail(p, avail, bitpos, mask);
  }
}

// Reads two consecutive varints: a row header (src delta, then the item
// count or count/mode word), a (gap, run length - 1) item or a kDelta edge.
// Both fit one byte in nearly every row header, which one 2-byte load covers.
struct VarintPair {
  std::uint32_t first;
  std::uint32_t second;
};
inline VarintPair get_varint_pair(std::span<const std::uint8_t> in,
                                  std::size_t& pos) {
  if (in.size() - pos >= 2) {
    std::uint16_t two = 0;
    std::memcpy(&two, in.data() + pos, 2);
    if ((two & 0x8080u) == 0) {
      pos += 2;
      return {two & 0xFFu, static_cast<std::uint32_t>(two >> 8)};
    }
  }
  const std::uint32_t first = get_varint(in, pos);
  return {first, get_varint(in, pos)};
}

// After the last declared edge, only zero padding (< 4 bytes) may remain.
void check_zero_tail(std::span<const std::uint8_t> body, std::size_t pos) {
  if (body.size() < pos || body.size() - pos >= kTilePayloadAlign)
    throw FormatError("trailing bytes after tile payload body");
  for (std::size_t i = pos; i < body.size(); ++i)
    if (body[i] != 0) throw FormatError("nonzero tile payload padding");
}

// ---- encoders --------------------------------------------------------------

void append_header(std::vector<std::uint8_t>& out, TileCodec codec,
                   unsigned src_bits, unsigned dst_bits, std::size_t n) {
  TilePayloadHeader h;
  h.codec = static_cast<std::uint8_t>(codec);
  h.src_bits = static_cast<std::uint8_t>(src_bits);
  h.dst_bits = static_cast<std::uint8_t>(dst_bits);
  h.edge_count = static_cast<std::uint32_t>(n);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&h);
  out.insert(out.end(), p, p + sizeof(h));
}

void pad_payload(std::vector<std::uint8_t>& out) {
  while (out.size() % kTilePayloadAlign != 0) out.push_back(0);
}

std::vector<std::uint8_t> encode_raw(std::span<const SnbEdge> edges) {
  std::vector<std::uint8_t> out;
  out.reserve(kTilePayloadHeaderBytes + edges.size() * sizeof(SnbEdge));
  append_header(out, TileCodec::kRaw, 0, 0, edges.size());
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(edges.data());
  out.insert(out.end(), bytes, bytes + edges.size() * sizeof(SnbEdge));
  return out;  // 8 + 4n is already 4-aligned
}

std::vector<std::uint8_t> encode_delta(std::span<const SnbEdge> edges) {
  std::vector<std::uint8_t> out;
  out.reserve(kTilePayloadHeaderBytes + edges.size() * 2 + 16);
  append_header(out, TileCodec::kDelta, 0, 0, edges.size());
  std::uint16_t prev_src = 0;
  std::uint16_t prev_dst = 0;
  for (const SnbEdge& e : edges) {
    const std::uint32_t dsrc = static_cast<std::uint16_t>(e.src16 - prev_src);
    put_varint(out, dsrc);
    if (dsrc == 0) {
      // Same source row: sorted destinations are increasing → small delta.
      put_varint(out, static_cast<std::uint16_t>(e.dst16 - prev_dst));
    } else {
      put_varint(out, e.dst16);
    }
    prev_src = e.src16;
    prev_dst = e.dst16;
  }
  pad_payload(out);
  return out;
}

std::vector<std::uint8_t> encode_packed(std::span<const SnbEdge> edges) {
  std::uint32_t smax = 0, dmax = 0;
  for (const SnbEdge& e : edges) {
    smax = std::max<std::uint32_t>(smax, e.src16);
    dmax = std::max<std::uint32_t>(dmax, e.dst16);
  }
  const unsigned src_bits = std::max(1u, static_cast<unsigned>(std::bit_width(smax)));
  const unsigned dst_bits = std::max(1u, static_cast<unsigned>(std::bit_width(dmax)));
  const std::size_t n = edges.size();
  std::vector<std::uint8_t> out;
  append_header(out, TileCodec::kPacked, src_bits, dst_bits, n);
  const std::size_t src_plane = (n * src_bits + 7) / 8;
  const std::size_t dst_plane = (n * dst_bits + 7) / 8;
  out.resize(kTilePayloadHeaderBytes + src_plane + dst_plane, 0);
  std::uint8_t* sp = out.data() + kTilePayloadHeaderBytes;
  std::uint8_t* dp = sp + src_plane;
  std::uint64_t sbit = 0, dbit = 0;
  for (const SnbEdge& e : edges) {
    write_bits(sp, sbit, e.src16, src_bits);
    write_bits(dp, dbit, e.dst16, dst_bits);
    sbit += src_bits;
    dbit += dst_bits;
  }
  pad_payload(out);
  return out;
}

// Scans row [i, j) (one source) and calls fn(gap, len) per (gap, run) item:
// the item covers `len` consecutive destinations starting at prev_end + gap
// (mod 2^16), where prev_end is one past the previous item (0 at row start).
template <typename Fn>
void scan_row_items(std::span<const SnbEdge> edges, std::size_t i,
                    std::size_t j, Fn&& fn) {
  std::uint32_t prev_end = 0;
  std::size_t k = i;
  while (k < j) {
    const std::uint32_t d = edges[k].dst16;
    std::uint64_t len = 1;
    // Extends while destinations are consecutive ascending; never crosses
    // 65535 because a dst16 can't equal d + len past it.
    while (k + len < j && edges[k + len].dst16 == d + len) ++len;
    fn((d - prev_end) & 0xFFFFu, len);
    prev_end = d + static_cast<std::uint32_t>(len);
    k += len;
  }
}

std::vector<std::uint8_t> encode_hybrid(std::span<const SnbEdge> edges) {
  std::uint32_t dmax = 0;
  for (const SnbEdge& e : edges) dmax = std::max<std::uint32_t>(dmax, e.dst16);
  const unsigned dst_bits = std::max(1u, static_cast<unsigned>(std::bit_width(dmax)));
  std::vector<std::uint8_t> out;
  out.reserve(kTilePayloadHeaderBytes + edges.size() * 2 + 16);
  append_header(out, TileCodec::kHybrid, 0, dst_bits, edges.size());
  std::uint16_t prev_src = 0;
  std::size_t i = 0;
  while (i < edges.size()) {
    const std::uint16_t s = edges[i].src16;
    std::size_t j = i;
    while (j < edges.size() && edges[j].src16 == s) ++j;
    const std::uint32_t count = static_cast<std::uint32_t>(j - i);
    std::uint64_t runs_size = 0;
    scan_row_items(edges, i, j, [&](std::uint32_t gap, std::uint64_t len) {
      runs_size += varint_len(gap) +
                   varint_len(static_cast<std::uint32_t>(len - 1));
    });
    const std::uint64_t packed_size =
        (static_cast<std::uint64_t>(count) * dst_bits + 7) / 8;
    put_varint(out, static_cast<std::uint16_t>(s - prev_src));
    if (packed_size < runs_size) {
      // Hub row: dense enough that a flat bit-packed dst vector wins.
      put_varint(out, (count << 1) | 1u);
      const std::size_t base = out.size();
      out.resize(base + packed_size, 0);
      std::uint64_t bit = 0;
      for (std::size_t k = i; k < j; ++k) {
        write_bits(out.data() + base, bit, edges[k].dst16, dst_bits);
        bit += dst_bits;
      }
    } else {
      put_varint(out, count << 1);
      scan_row_items(edges, i, j, [&](std::uint32_t gap, std::uint64_t len) {
        put_varint(out, gap);
        put_varint(out, static_cast<std::uint32_t>(len - 1));
      });
    }
    prev_src = s;
    i = j;
  }
  pad_payload(out);
  return out;
}

}  // namespace

// ---- public API ------------------------------------------------------------

TileCodecInfo parse_tile_payload(std::span<const std::uint8_t> payload,
                                 std::int64_t expect_edges) {
  if (payload.size() < kTilePayloadHeaderBytes)
    throw FormatError("tile payload too small for its header");
  if (payload.size() % kTilePayloadAlign != 0)
    throw FormatError("tile payload size is not 4-byte aligned");
  TilePayloadHeader h;
  std::memcpy(&h, payload.data(), sizeof(h));

  TileCodecInfo info;
  info.codec = static_cast<TileCodec>(
      checked_in(h.codec, 0, kTileCodecCount - 1, "tile codec byte"));
  checked_in(h.reserved, 0, 0, "tile payload reserved byte");
  if (expect_edges >= 0) {
    const auto e = static_cast<std::uint64_t>(expect_edges);
    info.edge_count = checked_in(h.edge_count, e, e, "tile payload edge count");
  } else {
    info.edge_count = checked_in(h.edge_count, 0, kMaxTilePayloadEdges,
                                 "tile payload edge count");
  }
  switch (info.codec) {
    case TileCodec::kPacked:
      info.src_bits = static_cast<unsigned>(
          checked_in(h.src_bits, 1, 16, "tile payload src bit width"));
      info.dst_bits = static_cast<unsigned>(
          checked_in(h.dst_bits, 1, 16, "tile payload dst bit width"));
      break;
    case TileCodec::kHybrid:
      checked_in(h.src_bits, 0, 0, "tile payload src bit width");
      info.dst_bits = static_cast<unsigned>(
          checked_in(h.dst_bits, 1, 16, "tile payload dst bit width"));
      break;
    default:
      checked_in(h.src_bits, 0, 0, "tile payload src bit width");
      checked_in(h.dst_bits, 0, 0, "tile payload dst bit width");
      break;
  }
  info.body = payload.subspan(kTilePayloadHeaderBytes);

  // Structural body-size floors (all operands sanitized above, so the plain
  // arithmetic cannot overflow: edge_count ≤ 2^32, bit widths ≤ 16).
  const std::uint64_t body_bytes = info.body.size();
  if (info.codec == TileCodec::kRaw) {
    if (body_bytes != info.edge_count * sizeof(SnbEdge))
      throw FormatError("raw tile body size does not match its edge count");
  } else if (info.edge_count == 0) {
    throw FormatError("non-raw tile payload declares zero edges");
  } else if (info.codec == TileCodec::kPacked) {
    const std::uint64_t need = (info.edge_count * info.src_bits + 7) / 8 +
                               (info.edge_count * info.dst_bits + 7) / 8;
    if (body_bytes < need || body_bytes - need >= kTilePayloadAlign)
      throw FormatError("bit-packed tile body size does not match its planes");
  } else if (info.codec == TileCodec::kDelta) {
    if (body_bytes < info.edge_count * 2)
      throw FormatError("delta tile body too small for its edge count");
  }
  return info;
}

std::vector<std::uint8_t> encode_tile_as(TileCodec codec,
                                         std::span<const SnbEdge> edges) {
  GS_CHECK_MSG(edges.size() <= 0x7fffffffu,
               "tile too large for a v3 payload header");
  // An empty tile has exactly one valid payload (the bare kRaw header) —
  // non-raw headers declaring zero edges are rejected at parse time.
  if (edges.empty()) return encode_raw(edges);
  switch (codec) {
    case TileCodec::kRaw:
      return encode_raw(edges);
    case TileCodec::kDelta:
      return encode_delta(edges);
    case TileCodec::kPacked:
      return encode_packed(edges);
    case TileCodec::kRuns:
      throw InvalidArgument("kRuns tiles are decode-only; encode kHybrid");
    case TileCodec::kHybrid:
      return encode_hybrid(edges);
  }
  throw FormatError("unknown tile codec");
}

std::vector<std::uint8_t> compress_tile(std::span<const SnbEdge> edges) {
  if (edges.empty()) return encode_raw(edges);
  std::vector<std::uint8_t> best;
  for (const TileCodec c : kWritableCodecs) {
    std::vector<std::uint8_t> candidate = encode_tile_as(c, edges);
    if (best.empty() || candidate.size() < best.size())
      best = std::move(candidate);
  }
  return best;
}

std::vector<SnbEdge> decompress_tile(std::span<const std::uint8_t> payload) {
  const TileCodecInfo info = parse_tile_payload(payload);
  const std::span<const std::uint8_t> body = info.body;
  const std::uint64_t n = info.edge_count;
  std::vector<SnbEdge> out;
  out.reserve(static_cast<std::size_t>(n));

  // Bit-by-bit plane reader: deliberately naive so the oracle shares nothing
  // with decode_blocks' windowed fast paths.
  auto get_bits = [&](std::uint64_t bitpos, unsigned bits) -> std::uint32_t {
    if (bitpos + bits > static_cast<std::uint64_t>(body.size()) * 8)
      throw FormatError("truncated bit-packed tile body");
    std::uint32_t v = 0;
    for (unsigned b = 0; b < bits; ++b) {
      const std::uint64_t bp = bitpos + b;
      v |= static_cast<std::uint32_t>((body[bp >> 3] >> (bp & 7)) & 1u) << b;
    }
    return v;
  };

  std::size_t pos = 0;
  switch (info.codec) {
    case TileCodec::kRaw: {
      out.resize(static_cast<std::size_t>(n));
      if (n > 0)
        std::memcpy(out.data(), body.data(), body.size());
      return out;
    }
    case TileCodec::kDelta: {
      std::uint16_t prev_src = 0;
      std::uint16_t prev_dst = 0;
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint32_t dsrc = get_varint(body, pos);
        const std::uint32_t dval = get_varint(body, pos);
        SnbEdge e;
        e.src16 = static_cast<std::uint16_t>(prev_src + dsrc);
        e.dst16 = dsrc == 0 ? static_cast<std::uint16_t>(prev_dst + dval)
                            : static_cast<std::uint16_t>(dval);
        out.push_back(e);
        prev_src = e.src16;
        prev_dst = e.dst16;
      }
      break;
    }
    case TileCodec::kPacked: {
      const std::uint64_t src_plane_bits = n * info.src_bits;
      for (std::uint64_t k = 0; k < n; ++k) {
        SnbEdge e;
        e.src16 = static_cast<std::uint16_t>(
            get_bits(k * info.src_bits, info.src_bits));
        e.dst16 = static_cast<std::uint16_t>(
            get_bits((src_plane_bits + 7) / 8 * 8 + k * info.dst_bits,
                     info.dst_bits));
        out.push_back(e);
      }
      pos = (src_plane_bits + 7) / 8 +
            static_cast<std::size_t>((n * info.dst_bits + 7) / 8);
      break;
    }
    case TileCodec::kRuns: {
      std::uint16_t src = 0;
      while (out.size() < n) {
        src = static_cast<std::uint16_t>(src + get_varint(body, pos));
        const std::uint32_t items = get_varint(body, pos);
        if (items == 0) throw FormatError("empty row in runs tile body");
        std::uint32_t prev_end = 0;
        for (std::uint32_t it = 0; it < items; ++it) {
          const std::uint32_t gap = get_varint(body, pos);
          const std::uint64_t len =
              static_cast<std::uint64_t>(get_varint(body, pos)) + 1;
          if (len > n - out.size())
            throw FormatError("runs tile body encodes more edges than declared");
          const std::uint32_t d0 = (prev_end + gap) & 0xFFFFu;
          for (std::uint64_t t = 0; t < len; ++t) {
            SnbEdge e;
            e.src16 = src;
            e.dst16 = static_cast<std::uint16_t>((d0 + t) & 0xFFFFu);
            out.push_back(e);
          }
          prev_end = d0 + static_cast<std::uint32_t>(len);
        }
      }
      break;
    }
    case TileCodec::kHybrid: {
      std::uint16_t src = 0;
      while (out.size() < n) {
        src = static_cast<std::uint16_t>(src + get_varint(body, pos));
        const std::uint32_t h = get_varint(body, pos);
        const std::uint32_t count = h >> 1;
        if (count == 0) throw FormatError("empty row in hybrid tile body");
        if (count > n - out.size())
          throw FormatError("hybrid tile body encodes more edges than declared");
        if (h & 1u) {
          const std::uint64_t bit0 = static_cast<std::uint64_t>(pos) * 8;
          for (std::uint32_t k = 0; k < count; ++k) {
            SnbEdge e;
            e.src16 = src;
            e.dst16 = static_cast<std::uint16_t>(
                get_bits(bit0 + static_cast<std::uint64_t>(k) * info.dst_bits,
                         info.dst_bits));
            out.push_back(e);
          }
          pos += static_cast<std::size_t>(
              (static_cast<std::uint64_t>(count) * info.dst_bits + 7) / 8);
        } else {
          std::uint32_t prev_end = 0;
          std::uint32_t left = count;
          while (left > 0) {
            const std::uint32_t gap = get_varint(body, pos);
            const std::uint64_t len =
                static_cast<std::uint64_t>(get_varint(body, pos)) + 1;
            if (len > left)
              throw FormatError("hybrid row run overflows its declared count");
            const std::uint32_t d0 = (prev_end + gap) & 0xFFFFu;
            for (std::uint64_t t = 0; t < len; ++t) {
              SnbEdge e;
              e.src16 = src;
              e.dst16 = static_cast<std::uint16_t>((d0 + t) & 0xFFFFu);
              out.push_back(e);
            }
            prev_end = d0 + static_cast<std::uint32_t>(len);
            left -= static_cast<std::uint32_t>(len);
          }
        }
      }
      break;
    }
  }
  check_zero_tail(body, pos);
  return out;
}

// ---- block decoder ---------------------------------------------------------

void decode_blocks(const TileCodecInfo& info, graph::vid_t sb, graph::vid_t db,
                   EdgeBlock& b, void (*sink)(void*, const EdgeBlock&),
                   void* ctx) {
  GS_CHECK_MSG(info.codec != TileCodec::kRaw,
               "raw tile bodies are aliased, not decoded");
  // All cursor state lives in locals, so the widening stores into the block
  // arrays never force it back to memory.
  const std::span<const std::uint8_t> body = info.body;
  const std::uint8_t* const p = body.data();
  const std::size_t size = body.size();
  constexpr std::size_t cap = EdgeBlock::kMaxEdges;
  graph::vid_t* const src = b.src;
  graph::vid_t* const dst = b.dst;
  std::size_t k = 0;      // slots filled in the current block
  std::size_t first = 0;  // edges handed out before the current block
  const auto flush = [&] {
    b.first = first;
    b.size = static_cast<std::uint32_t>(k);
    sink(ctx, b);
    first += k;
    k = 0;
  };
  // Expands a run of `len` consecutive dsts from d0 (mod 2^16) for one row.
  const auto emit_run = [&](graph::vid_t row_src, std::uint32_t d0,
                            std::uint64_t len) {
    while (len > 0) {
      if (k == cap) flush();
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::uint64_t>(cap - k, len));
      for (std::size_t t = 0; t < take; ++t) {
        src[k + t] = row_src;
        dst[k + t] = db + ((d0 + static_cast<std::uint32_t>(t)) & 0xFFFFu);
      }
      k += take;
      d0 += static_cast<std::uint32_t>(take);
      len -= take;
    }
  };

  std::uint64_t left = info.edge_count;  // declared edges not yet decoded
  std::size_t pos = 0;                   // byte cursor into the body
  std::uint32_t s = 0;                   // current local src
  switch (info.codec) {
    case TileCodec::kRaw:
      break;
    case TileCodec::kDelta: {
      std::uint32_t d = 0;
      for (; left > 0; --left) {
        if (k == cap) flush();
        const auto [dsrc, dval] = get_varint_pair(body, pos);
        s = (s + dsrc) & 0xFFFFu;
        d = (dsrc == 0 ? d + dval : dval) & 0xFFFFu;
        src[k] = sb + s;
        dst[k] = db + d;
        ++k;
      }
      break;
    }
    case TileCodec::kPacked: {
      const std::uint64_t n = info.edge_count;
      const std::size_t src_plane =
          static_cast<std::size_t>((n * info.src_bits + 7) / 8);
      pos = src_plane +
            static_cast<std::size_t>((n * info.dst_bits + 7) / 8);
      for (std::uint64_t done = 0; done < n; done += k) {
        if (k == cap) flush();
        k = static_cast<std::size_t>(std::min<std::uint64_t>(cap, n - done));
        unpack_plane(p, size, done, k, info.src_bits, sb, src);
        unpack_plane(p + src_plane, size - src_plane, done, k, info.dst_bits,
                     db, dst);
      }
      break;
    }
    case TileCodec::kRuns:
      while (left > 0) {
        const auto [dsrc, items] = get_varint_pair(body, pos);
        s = (s + dsrc) & 0xFFFFu;
        if (items == 0) throw FormatError("empty row in runs tile body");
        std::uint32_t prev_end = 0;
        for (std::uint32_t it = 0; it < items; ++it) {
          const auto [gap, len_minus_1] = get_varint_pair(body, pos);
          const std::uint64_t len = std::uint64_t{len_minus_1} + 1;
          if (len > left)
            throw FormatError(
                "runs tile body encodes more edges than declared");
          left -= len;
          const std::uint32_t d0 = (prev_end + gap) & 0xFFFFu;
          emit_run(sb + s, d0, len);
          prev_end = d0 + static_cast<std::uint32_t>(len);
        }
      }
      break;
    case TileCodec::kHybrid: {
      const unsigned bits = info.dst_bits;
      const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
      while (left > 0) {
        const auto [dsrc, h] = get_varint_pair(body, pos);
        s = (s + dsrc) & 0xFFFFu;
        const std::uint32_t count = h >> 1;
        if (count == 0) throw FormatError("empty row in hybrid tile body");
        if (count > left)
          throw FormatError(
              "hybrid tile body encodes more edges than declared");
        left -= count;
        const graph::vid_t row_src = sb + s;
        if ((h & 1u) == 0) {  // gap/run items
          std::uint32_t prev_end = 0;
          for (std::uint32_t rem = count; rem > 0;) {
            const auto [gap, len_minus_1] = get_varint_pair(body, pos);
            const std::uint64_t len = std::uint64_t{len_minus_1} + 1;
            if (len > rem)
              throw FormatError("hybrid row run overflows its declared count");
            rem -= static_cast<std::uint32_t>(len);
            const std::uint32_t d0 = (prev_end + gap) & 0xFFFFu;
            emit_run(row_src, d0, len);
            prev_end = d0 + static_cast<std::uint32_t>(len);
          }
          continue;
        }
        // Bit-packed dsts from this byte boundary; one bounds check per row.
        const std::uint64_t row_bytes =
            (static_cast<std::uint64_t>(count) * bits + 7) / 8;
        if (row_bytes > size - pos)
          throw FormatError("truncated bit-packed hybrid row");
        const std::uint8_t* const row = p + pos;
        if (count <= 4 && size - pos >= 8) {
          // Short row: four slots from one 8-byte window (4 x 16 bits <= 64);
          // slots past `count` stay outside the block until a later row
          // fills them.
          if (cap - k < 4) flush();
          std::uint64_t w = 0;
          std::memcpy(&w, row, 8);
          for (unsigned j = 0; j < 4; ++j) {
            src[k + j] = row_src;
            dst[k + j] =
                db + static_cast<graph::vid_t>((w >> (j * bits)) & mask);
          }
          k += count;
        } else {
          for (std::size_t done = 0; done < count;) {
            if (k == cap) flush();
            const std::size_t take =
                std::min<std::size_t>(cap - k, count - done);
            std::fill_n(src + k, take, row_src);
            unpack_plane(row, size - pos, done, take, bits, db, dst + k);
            k += take;
            done += take;
          }
        }
        pos += static_cast<std::size_t>(row_bytes);
      }
      break;
    }
  }
  check_zero_tail(body, pos);
  if (k > 0) flush();
}

}  // namespace gstore::tile
