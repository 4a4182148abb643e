// Physical-group statistics and iteration helpers (paper §V-A, Figures 6/7).
#pragma once

#include <cstdint>
#include <vector>

#include "tile/tile_file.h"

namespace gstore::tile {

struct GroupStats {
  std::uint64_t group = 0;        // row-major group id
  std::uint64_t tiles = 0;        // stored tiles in the group
  std::uint64_t edges = 0;
  std::uint64_t bytes = 0;
};

// Per-group edge counts/sizes for a store (Fig 7 data).
std::vector<GroupStats> group_stats(const TileStore& store);

// Per-tile edge counts in layout order (Fig 5 data).
std::vector<std::uint64_t> tile_edge_counts(const TileStore& store);

// Bytes of algorithmic metadata touched while processing one physical group:
// `bytes_per_vertex` × the number of distinct vertex rows/columns the group
// spans. The paper sizes q so this fits the LLC.
std::uint64_t group_metadata_bytes(const Grid& grid, std::uint64_t group,
                                   std::uint64_t bytes_per_vertex);

}  // namespace gstore::tile
