#include "algo/bfs.h"

#include "algo/atomics.h"
#include "util/status.h"

namespace gstore::algo {

void TileBfs::init(const tile::TileStore& store) {
  const auto& meta = store.meta();
  symmetric_ = meta.symmetric();
  in_edges_ = meta.in_edges();
  tile_bits_ = meta.tile_bits;
  GS_CHECK_MSG(root_ < store.vertex_count(), "BFS root out of range");

  depth_.assign(store.vertex_count(), kUnvisited);
  frontier_row_cur_.assign(store.grid().p(), 0);
  frontier_row_next_.assign(store.grid().p(), 0);

  level_ = 0;
  visited_ = 1;
  newly_visited_ = 0;
  depth_[root_] = 0;
  frontier_row_cur_[root_ >> tile_bits_] = 1;
}

void TileBfs::begin_iteration(std::uint32_t, std::uint32_t) {
  newly_visited_ = 0;
}

void TileBfs::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TileBfs::process_block(const tile::EdgeBlock& block) {
  // For in-edge stores the tuple is (dst, src): `from` is then the head of
  // the original edge and `to` its tail, so the frontier test flips.
  const graph::vid_t* from = in_edges_ ? block.dst : block.src;
  const graph::vid_t* to = in_edges_ ? block.src : block.dst;
  const tile::TileCoord rows = block_rows(block, tile_bits_);
  const std::uint32_t from_row = in_edges_ ? rows.j : rows.i;
  const std::uint32_t to_row = in_edges_ ? rows.i : rows.j;
  std::int32_t* depth = depth_.data();
  block.prefetch_src(depth);
  block.prefetch_dst(depth);
  const bool both_ways = symmetric_;
  const std::int32_t level = level_;
  const std::int32_t next_level = level + 1;
  // Visits per side of the tuple, published once when the block ends.
  std::uint32_t to_visits = 0;
  std::uint32_t from_visits = 0;
  for (std::uint32_t k = 0; k < block.size; ++k) {
    if (atomic_load(&depth[from[k]]) == level &&
        atomic_load(&depth[to[k]]) == kUnvisited &&
        atomic_cas(&depth[to[k]], kUnvisited, next_level))
      ++to_visits;
    if (both_ways && atomic_load(&depth[to[k]]) == level &&
        atomic_load(&depth[from[k]]) == kUnvisited &&
        atomic_cas(&depth[from[k]], kUnvisited, next_level))
      ++from_visits;  // Algorithm 1 lines 8-10
  }
  if (to_visits + from_visits == 0) return;
  atomic_fetch_add(&newly_visited_, std::uint64_t{to_visits + from_visits});
  if (to_visits != 0) mark_row(&frontier_row_next_[to_row]);
  if (from_visits != 0) mark_row(&frontier_row_next_[from_row]);
}

bool TileBfs::end_iteration(std::uint32_t) {
  visited_ += newly_visited_;
  frontier_row_cur_.swap(frontier_row_next_);
  std::fill(frontier_row_next_.begin(), frontier_row_next_.end(), 0);
  // A level that visits nothing ends the run; level_ stays the deepest one.
  if (newly_visited_ == 0) return false;
  ++level_;
  return true;
}

bool TileBfs::tile_needed(std::uint32_t i, std::uint32_t j) const {
  // A tile can generate visits only if a frontier vertex lies in its source
  // range — or, on symmetric stores, its destination range.
  if (frontier_row_cur_[in_edges_ ? j : i]) return true;
  return symmetric_ && frontier_row_cur_[j];
}

bool TileBfs::tile_useful_next(std::uint32_t i, std::uint32_t j) const {
  if (frontier_row_next_[in_edges_ ? j : i]) return true;
  return symmetric_ && frontier_row_next_[j];
}

std::uint32_t TileBfs::tile_priority(std::uint32_t i, std::uint32_t j) const {
  // All frontier rows share one level, so every needed tile lands in the
  // same bucket and a round drains exactly the current level's tiles.
  return tile_needed(i, j) ? static_cast<std::uint32_t>(level_)
                           : kPriorityIdle;
}

}  // namespace gstore::algo
