// Two-pass edge-list → tile-store converter (paper §IV-B "Implementation")
// and the CSR-file converter used as the Table I comparison point.
#pragma once

#include <cstdint>
#include <string>

#include "graph/edge_list.h"

namespace gstore::tile {

struct ConvertOptions {
  unsigned tile_bits = 16;
  std::uint32_t group_side = 256;
  // For directed graphs: store out-edges (true) or in-edges (false). The
  // paper stores one of the two; algorithms adapt (Algorithm 2).
  bool out_edges = true;
  // ---- Fig 10 ablation knobs (both default to the paper's format) ----
  // SNB 4-byte tuples; false writes 8-byte full-vid tuples ("no SNB").
  bool snb = true;
  // Upper-triangle storage for undirected graphs; false stores both
  // orientations ("no symmetry", the traditional 2D-partitioned layout).
  bool symmetry = true;
  // Per-tile codec compression (store format v3): each tile slice is sorted
  // and encoded with the smallest of the tile/compress.h codecs. false (or
  // snb = false, which has no codec path) writes the uncompressed v2 layout
  // bit-identically to older gstores — the ablation baseline and the
  // backward-compat test writer.
  bool compress = true;
  // Compaction generation stamped into TileStoreMeta. gstore_convert always
  // writes 0; ingest::compact_store reuses the converter with old+1.
  std::uint32_t generation = 0;
};

struct ConvertStats {
  double pass1_seconds = 0;  // start-edge (counting) pass
  double pass2_seconds = 0;  // scatter pass + write
  double total_seconds = 0;
  std::uint64_t stored_edges = 0;
  std::uint64_t tile_count = 0;
  std::uint64_t bytes_written = 0;
  // v3 only: total encoded payload bytes (headers + bodies + padding) and
  // how many tiles each codec won (indexed by tile::TileCodec).
  std::uint64_t payload_bytes = 0;
  std::uint64_t codec_tiles[5] = {0, 0, 0, 0, 0};
};

// Converts and writes <base>.tiles/.sei/.deg. Self loops are dropped: they
// carry no information for the paper's algorithms. Returns timing/size stats.
ConvertStats convert_to_tiles(const graph::EdgeList& el, const std::string& base_path,
                              ConvertOptions options = {});

// Builds a CSR and writes <base>.adj/.beg — the conversion G-Store's Table I
// compares against. Undirected edges are stored in both adjacency lists.
struct CsrFileStats {
  double total_seconds = 0;
  std::uint64_t bytes_written = 0;
};
CsrFileStats convert_to_csr_file(const graph::EdgeList& el,
                                 const std::string& base_path);

}  // namespace gstore::tile
