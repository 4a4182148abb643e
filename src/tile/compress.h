// Per-tile codecs — the production tile payload format since store v3.
//
// Every non-empty tile payload starts with an 8-byte self-describing header
// (codec byte, per-endpoint bit widths, edge count) followed by the encoded
// body, zero-padded so the whole payload is a multiple of 4 bytes (keeps
// every tile's file offset 4-aligned for O_DIRECT-friendly reads and aligned
// SnbEdge aliasing of raw bodies). Codecs, per Log(Graph) and the
// compression survey (PAPERS.md):
//
//   kRaw    — n SnbEdge tuples verbatim (compat/fallback; the v1/v2 format).
//   kDelta  — (src_delta, dst|dst_delta) LEB128 varints, the PR-ablation
//             codec promoted unchanged.
//   kPacked — planar bit-packing: all src locals at src_bits each, then all
//             dst locals at dst_bits each, widths = ⌈log2(max local + 1)⌉.
//             Decodes with flat widening loops (SIMD-friendly).
//   kRuns   — row/interval encoding: per source row, (gap, run_len) items
//             over sorted destinations; consecutive dsts collapse to one item.
//             Decode-only: kHybrid writes the same gap/run rows, and its
//             row header is larger only on rows of 64+ edges, by a byte or
//             two, so the writer no longer encodes kRuns.
//   kHybrid — degree-aware: per row, either gap/run items (sparse rows) or a
//             bit-packed dst vector at dst_bits (hub rows), whichever is
//             smaller for that row.
//
// All decode arithmetic wraps mod 2^16, so every codec round-trips arbitrary
// tuple order bit-exactly — sortedness only affects the ratio; writers sort
// each tile slice before encoding. The header fields are untrusted on-disk
// data: parse_tile_payload() range-checks every field through util/checked.h
// once, and everything downstream (decode_blocks, decompress_tile) consumes
// only the sanitized TileCodecInfo.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "tile/snb.h"

namespace gstore::tile {

enum class TileCodec : std::uint8_t {
  kRaw = 0,
  kDelta = 1,
  kPacked = 2,
  kRuns = 3,
  kHybrid = 4,
};
inline constexpr std::uint8_t kTileCodecCount = 5;
// The codecs compress_tile() picks among, in codec-id order.
inline constexpr TileCodec kWritableCodecs[] = {
    TileCodec::kRaw, TileCodec::kDelta, TileCodec::kPacked, TileCodec::kHybrid};

// Fixed payload prologue. Wire struct (GL6-tracked): fields must pass
// through parse_tile_payload()'s range checks before any arithmetic.
struct TilePayloadHeader {
  std::uint8_t codec = 0;
  std::uint8_t src_bits = 0;  // kPacked only; 0 otherwise
  std::uint8_t dst_bits = 0;  // kPacked/kHybrid; 0 otherwise
  std::uint8_t reserved = 0;  // must be 0
  std::uint32_t edge_count = 0;
};
static_assert(sizeof(TilePayloadHeader) == 8);

inline constexpr std::size_t kTilePayloadHeaderBytes = sizeof(TilePayloadHeader);
inline constexpr std::size_t kTilePayloadAlign = 4;
// Allocation bound for standalone decompression (fuzz/verify): a run item
// can expand ~20000×, so the declared count — not the payload size — bounds
// the output. 2^27 edges ≈ 512 MiB decoded, far past any real tile.
inline constexpr std::uint64_t kMaxTilePayloadEdges = 1ull << 27;

// Header fields after validation, plus the encoded body (payload minus the
// 8-byte header; still includes the ≤3 zero pad bytes at the tail).
struct TileCodecInfo {
  TileCodec codec = TileCodec::kRaw;
  unsigned src_bits = 0;
  unsigned dst_bits = 0;
  std::uint64_t edge_count = 0;
  std::span<const std::uint8_t> body;
};

// Validates a payload's header: codec byte, bit widths, reserved byte,
// declared edge count (against per-codec structural minima and, when
// `expect_edges` >= 0, against the count the caller knows from the .sei
// index). Throws FormatError on anything off. This is the single
// sanitization point for the untrusted header fields.
TileCodecInfo parse_tile_payload(std::span<const std::uint8_t> payload,
                                 std::int64_t expect_edges = -1);

// Compresses one tile's edges: encodes with every writable codec and returns
// the smallest payload (ties break toward the lower codec id, so
// incompressible tiles fall back to kRaw). Preserves edge order; callers that
// want the best ratio sort first. An empty span yields an 8-byte kRaw header.
std::vector<std::uint8_t> compress_tile(std::span<const SnbEdge> edges);

// Encodes with one specific writable codec (benchmarks, fuzz seeds, tests);
// throws InvalidArgument for kRuns.
std::vector<std::uint8_t> encode_tile_as(TileCodec codec,
                                         std::span<const SnbEdge> edges);

// Decompresses a payload produced by compress_tile/encode_tile_as. This is
// the independent scalar oracle: it shares no decode loop with
// decode_blocks, and it insists on a fully-consumed body (only zero padding
// may trail the encoded edges). Throws FormatError on malformed input.
std::vector<SnbEdge> decompress_tile(std::span<const std::uint8_t> payload);

struct EdgeBlock;  // tile/edge_block.h

// Block decoder for the EdgeBlock hot path; for_each_block() is its caller.
// Walks an encoded body in storage order (a source row at a time for kRuns
// and kHybrid), writes global ids base + local straight into block.src/dst
// and calls sink(ctx, block) for each filled block: 0 < size <= kMaxEdges and
// `first` counts the edges before it. A block may end short of kMaxEdges at
// a row boundary; a row that does not fit continues in the next block.
// Throws FormatError if the body is truncated or structurally invalid, or if
// anything but zero padding trails the declared edges; the final block is
// handed out only after that tail check. `info` must come from
// parse_tile_payload() and must not be kRaw (raw bodies alias the payload).
void decode_blocks(const TileCodecInfo& info, graph::vid_t src_base,
                   graph::vid_t dst_base, EdgeBlock& block,
                   void (*sink)(void* ctx, const EdgeBlock& block), void* ctx);

}  // namespace gstore::tile
