// Deep structural verification of an on-disk tile store.
//
// Beyond the header checks TileStore::open already performs, this walks the
// whole store and validates every invariant a correct converter must
// produce. Used by `gstore_convert --verify` and by failure-injection tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gstore::tile {

struct VerifyReport {
  bool ok = true;
  std::vector<std::string> problems;
  std::uint64_t tiles_checked = 0;
  std::uint64_t edges_checked = 0;
  // v3 stores: payloads whose codec header + body passed the independent
  // (decompress_tile) decode cross-check.
  std::uint64_t payloads_checked = 0;
  std::uint64_t wal_frames_checked = 0;
  std::uint64_t wal_edges_checked = 0;

  void fail(std::string what) {
    ok = false;
    problems.push_back(std::move(what));
  }
};

// Verifies <base>.tiles/.sei[/.deg][/.wal] (following the generation
// manifest, if one exists):
//  * headers consistent (open-level checks);
//  * every SNB/fat tuple decodes to vertex ids inside its tile's ranges and
//    inside the graph;
//  * v3 stores: every tile payload's codec byte and width header are valid,
//    the declared edge count matches the .sei index and the body actually
//    decodes to that many edges with per-codec local ids inside the tile
//    width, and the block decoder (decode_blocks, via visit_edges) and the
//    oracle (decompress_tile) agree edge-for-edge;
//  * symmetric stores hold only upper-triangle tuples;
//  * counting symmetry: tuple-derived degree sums add up to the header's
//    edge count (2× for upper-triangle stores, where each tuple stands for
//    both directions);
//  * the degree file (if present) is exactly vertex_count entries long and
//    matches degrees recomputed from tiles, accounting for each stored
//    tuple once per direction it represents;
//  * the WAL (if present) has an intact header, every fully-present frame
//    passes its CRC, and — when the WAL belongs to this generation — its
//    edges land inside the vertex range.
// Stops early after `max_problems` findings.
VerifyReport verify_store(const std::string& base_path,
                          std::size_t max_problems = 16);

}  // namespace gstore::tile
