// Shared helpers for the gstore test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "io/file.h"
#include "tile/convert.h"
#include "tile/edge_block.h"
#include "tile/tile_file.h"

namespace gstore::testing {

// Converts an edge list into a tile store inside `dir` and opens it.
inline tile::TileStore make_store(const io::TempDir& dir,
                                  const graph::EdgeList& el,
                                  tile::ConvertOptions opts = {},
                                  io::DeviceConfig dev = {},
                                  const std::string& name = "g") {
  const std::string base = dir.file(name);
  tile::convert_to_tiles(el, base, opts);
  return tile::TileStore::open(base, dev);
}

// Decodes every edge of every tile back to global coordinates.
inline std::vector<graph::Edge> decode_all_edges(tile::TileStore& store) {
  std::vector<graph::Edge> out;
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k) {
    const std::uint64_t bytes = store.tile_bytes(k);
    if (bytes == 0) continue;
    buf.resize(bytes);
    store.read_range(k, k + 1, buf.data());
    const tile::TileView v = store.view(k, buf.data());
    tile::visit_edges(
        v, [&](graph::vid_t a, graph::vid_t b) { out.push_back({a, b}); });
  }
  return out;
}

}  // namespace gstore::testing
