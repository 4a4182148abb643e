// Fuzz target: the v3 tile-payload codecs over arbitrary bytes.
//
// The input is one tile payload (8-byte codec header + body) as it would sit
// in a <base>.tiles file. The contract under test:
//
//   * parse_tile_payload / decompress_tile reject any malformed payload with
//     a typed FormatError — never a crash, a wrapped size computation, or an
//     attacker-sized allocation — and they agree on accept vs reject;
//   * an accepted payload decodes identically through the EdgeBlock hot
//     path (for_each_block over a TileView, which runs decode_blocks) and
//     the scalar oracle (decompress_tile); a rejected body is rejected by
//     the hot path too;
//   * every block the hot path hands out keeps the EdgeBlock invariants
//     (0 < size <= kMaxEdges, `first` = edges before it) and stays within
//     the declared edge count, accepted payload or not;
//   * whatever edges an accepted payload holds survive a re-encode round
//     trip bit-exactly, through compress_tile's codec pick and through every
//     codec forced individually.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "graph/types.h"
#include "tile/compress.h"
#include "tile/edge_block.h"
#include "tile/tile_file.h"
#include "util/status.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace gstore;
  const std::span<const std::uint8_t> payload(data, size);

  tile::TileCodecInfo info;
  try {
    info = tile::parse_tile_payload(payload);
  } catch (const FormatError&) {
    // Header rejected: the full decode must reject too, not limp through.
    try {
      (void)tile::decompress_tile(payload);
      std::abort();
    } catch (const FormatError&) {
    }
    return 0;
  }

  // Keep execs fast: a few run-encoded bytes can legally declare millions of
  // edges. Real tiles this size exist, but decoding them adds nothing per
  // input; the cross-checks below cover the loops at every count.
  if (info.edge_count > (1u << 16)) return 0;

  constexpr graph::vid_t kSrcBase = 1u << 20, kDstBase = 3u << 20;
  tile::TileView v;
  v.src_base = kSrcBase;
  v.dst_base = kDstBase;
  v.set_payload(info);

  // Every block the hot path hands out keeps the EdgeBlock invariants and
  // stays within the declared edge count, even on a payload it then rejects.
  std::size_t at = 0;
  const auto check_block = [&](const tile::EdgeBlock& b) {
    if (b.view != &v || b.first != at || b.size == 0 ||
        b.size > tile::EdgeBlock::kMaxEdges ||
        at + b.size > info.edge_count)
      std::abort();
    at += b.size;
  };

  std::vector<tile::SnbEdge> oracle;
  try {
    oracle = tile::decompress_tile(payload);
  } catch (const FormatError&) {
    // Body rejected after a valid header: the hot path must agree.
    try {
      tile::for_each_block(v, check_block);
      std::abort();
    } catch (const FormatError&) {
    }
    return 0;
  }

  // Accepted: the hot path agrees with the oracle edge for edge.
  tile::for_each_block(v, [&](const tile::EdgeBlock& b) {
    const std::size_t first = at;
    check_block(b);
    for (std::uint32_t k = 0; k < b.size; ++k) {
      const tile::SnbEdge& e = oracle[first + k];
      if (b.src[k] != kSrcBase + e.src16 || b.dst[k] != kDstBase + e.dst16)
        std::abort();
    }
  });
  if (at != oracle.size()) std::abort();

  // Re-encode round trips, through the pick and through each codec forced.
  if (tile::decompress_tile(tile::compress_tile(oracle)) != oracle)
    std::abort();
  for (const tile::TileCodec c : tile::kWritableCodecs)
    if (tile::decompress_tile(tile::encode_tile_as(c, oracle)) != oracle)
      std::abort();
  return 0;
}
