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

void TileBfs::begin_iteration(std::uint32_t) { newly_visited_ = 0; }

void TileBfs::visit(graph::vid_t v, std::int32_t next_level) {
  if (atomic_cas(&depth_[v], kUnvisited, next_level)) {
    atomic_store(&frontier_row_next_[v >> tile_bits_], std::uint8_t{1});
    std::atomic_ref<std::uint64_t>(newly_visited_)
        .fetch_add(1, std::memory_order_relaxed);
  }
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
  block.prefetch_src(depth_.data());
  block.prefetch_dst(depth_.data());
  const std::int32_t next_level = level_ + 1;
  for (std::uint32_t k = 0; k < block.size; ++k) {
    if (atomic_load(&depth_[from[k]]) == level_ &&
        atomic_load(&depth_[to[k]]) == kUnvisited)
      visit(to[k], next_level);
    if (symmetric_ && atomic_load(&depth_[to[k]]) == level_ &&
        atomic_load(&depth_[from[k]]) == kUnvisited)
      visit(from[k], next_level);  // Algorithm 1 lines 8-10
  }
}

bool TileBfs::end_iteration(std::uint32_t) {
  visited_ += newly_visited_;
  ++level_;
  frontier_row_cur_.swap(frontier_row_next_);
  std::fill(frontier_row_next_.begin(), frontier_row_next_.end(), 0);
  return newly_visited_ > 0;
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
