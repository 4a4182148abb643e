#include "tile/grouping.h"

#include <algorithm>

#include "util/bitops.h"

namespace gstore::tile {

std::vector<GroupStats> group_stats(const TileStore& store) {
  const Grid& grid = store.grid();
  std::vector<GroupStats> out;
  out.reserve(grid.group_count());
  for (std::uint64_t g = 0; g < grid.group_count(); ++g) {
    const auto [first, last] = grid.group_range(g);
    GroupStats s;
    s.group = g;
    s.tiles = last - first;
    s.edges = store.start_edge()[last] - store.start_edge()[first];
    // Physical payload bytes — under v3 codecs this is no longer
    // proportional to the edge count.
    s.bytes = store.bytes_of_range(first, last);
    out.push_back(s);
  }
  return out;
}

std::vector<std::uint64_t> tile_edge_counts(const TileStore& store) {
  std::vector<std::uint64_t> out(store.grid().tile_count());
  for (std::uint64_t k = 0; k < out.size(); ++k)
    out[k] = store.tile_edge_count(k);
  return out;
}

std::uint64_t group_metadata_bytes(const Grid& grid, std::uint64_t group,
                                   std::uint64_t bytes_per_vertex) {
  const std::uint32_t g_side = grid.groups_per_side();
  const std::uint32_t gi = static_cast<std::uint32_t>(group / g_side);
  const std::uint32_t gj = static_cast<std::uint32_t>(group % g_side);
  const std::uint64_t width = grid.tile_width();
  auto span_of = [&](std::uint32_t gk) {
    const std::uint64_t lo = std::uint64_t{gk} * grid.group_side() * width;
    const std::uint64_t hi =
        std::min<std::uint64_t>(lo + std::uint64_t{grid.group_side()} * width,
                                grid.vertex_count());
    return hi > lo ? hi - lo : 0;
  };
  // Row and column ranges overlap exactly when gi == gj.
  std::uint64_t vertices = span_of(gi);
  if (gi != gj) vertices += span_of(gj);
  return vertices * bytes_per_vertex;
}

}  // namespace gstore::tile
