#include "algo/bfs_async.h"

#include <algorithm>
#include <limits>

#include "algo/atomics.h"
#include "util/status.h"

namespace gstore::algo {

void TileBfsAsync::init(const tile::TileStore& store) {
  const auto& meta = store.meta();
  symmetric_ = meta.symmetric();
  in_edges_ = meta.in_edges();
  tile_bits_ = meta.tile_bits;
  GS_CHECK_MSG(root_ < store.vertex_count(), "BFS root out of range");

  depth_.assign(store.vertex_count(), kInf);
  active_row_cur_.assign(store.grid().p(), 0);
  active_row_next_.assign(store.grid().p(), 0);
  depth_[root_] = 0;
  active_row_cur_[root_ >> tile_bits_] = 1;
  passes_ = 0;
}

void TileBfsAsync::begin_iteration(std::uint32_t) { relaxed_ = 0; }

void TileBfsAsync::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TileBfsAsync::process_block(const tile::EdgeBlock& block) {
  const graph::vid_t* from = in_edges_ ? block.dst : block.src;
  const graph::vid_t* to = in_edges_ ? block.src : block.dst;
  const tile::TileCoord rows = block_rows(block, tile_bits_);
  const std::uint32_t from_row = in_edges_ ? rows.j : rows.i;
  const std::uint32_t to_row = in_edges_ ? rows.i : rows.j;
  std::int32_t* depth = depth_.data();
  block.prefetch_src(depth);
  block.prefetch_dst(depth);
  const bool both_ways = symmetric_;
  // Relaxations per side of the tuple, published once when the block ends.
  std::uint32_t to_relaxed = 0;
  std::uint32_t from_relaxed = 0;
  for (std::uint32_t k = 0; k < block.size; ++k) {
    // Freshest value, not an iteration snapshot — the "asynchronous" part.
    const std::int32_t df = atomic_load(&depth[from[k]]);
    if (df != kInf && atomic_min(&depth[to[k]], df + 1)) ++to_relaxed;
    if (both_ways) {
      const std::int32_t dt = atomic_load(&depth[to[k]]);
      if (dt != kInf && atomic_min(&depth[from[k]], dt + 1)) ++from_relaxed;
    }
  }
  if (to_relaxed + from_relaxed == 0) return;
  atomic_fetch_add(&relaxed_, std::uint64_t{to_relaxed + from_relaxed});
  if (to_relaxed != 0) mark_row(&active_row_next_[to_row]);
  if (from_relaxed != 0) mark_row(&active_row_next_[from_row]);
}

bool TileBfsAsync::end_iteration(std::uint32_t) {
  ++passes_;
  active_row_cur_.swap(active_row_next_);
  std::fill(active_row_next_.begin(), active_row_next_.end(), 0);
  return relaxed_ > 0;
}

bool TileBfsAsync::tile_needed(std::uint32_t i, std::uint32_t j) const {
  if (active_row_cur_[in_edges_ ? j : i]) return true;
  return symmetric_ && active_row_cur_[j];
}

bool TileBfsAsync::tile_useful_next(std::uint32_t i, std::uint32_t j) const {
  if (active_row_next_[in_edges_ ? j : i]) return true;
  return symmetric_ && active_row_next_[j];
}

std::vector<std::int32_t> TileBfsAsync::depths() const {
  std::vector<std::int32_t> out(depth_.size());
  for (std::size_t v = 0; v < depth_.size(); ++v)
    out[v] = depth_[v] == kInf ? -1 : depth_[v];
  return out;
}

}  // namespace gstore::algo
