// Breadth-first search over the tile store (paper §II-B, Algorithm 1).
//
// On symmetric (undirected upper-triangle) stores each tile is processed in
// both directions — the extra lines 8-10 of the paper's Algorithm 1. The
// selective-fetch oracle skips tiles whose row/column ranges contain no
// current-level frontier, and the proactive-caching oracle exposes the
// partially-known next-iteration frontier (Rules 1 & 2).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "store/algorithm.h"

namespace gstore::algo {

class TileBfs final : public store::TileAlgorithm {
 public:
  static constexpr std::int32_t kUnvisited = -1;

  explicit TileBfs(graph::vid_t root) : root_(root) {}

  std::string name() const override { return "bfs"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter, std::uint32_t bucket) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override;
  bool tile_useful_next(std::uint32_t i, std::uint32_t j) const override;

  // Priority mode: every frontier tile carries the current level as its
  // bucket, so one priority round == one level-sync iteration and results
  // are trivially bit-identical to grid order. Both modes plan a round with
  // one tile scan, so BFS reads the same tiles under either; priority mode
  // only adds bucket numbers that match BFS levels in the stats.
  std::uint32_t tile_priority(std::uint32_t i, std::uint32_t j) const override;
  std::uint64_t last_round_updates() const override { return newly_visited_; }

  const std::vector<std::int32_t>& depth() const noexcept { return depth_; }
  std::uint64_t visited_count() const noexcept { return visited_; }
  // Deepest level reached (0 when the root has no out-edges).
  std::int32_t max_depth() const noexcept { return level_; }

 private:
  void process_block(const tile::EdgeBlock& block);

  graph::vid_t root_;
  bool symmetric_ = true;
  bool in_edges_ = false;
  unsigned tile_bits_ = 16;
  std::int32_t level_ = 0;
  std::uint64_t visited_ = 0;
  std::uint64_t newly_visited_ = 0;  // summed once per block during iteration
  std::vector<std::int32_t> depth_;
  std::vector<std::uint8_t> frontier_row_cur_;   // tile-row has depth==level
  std::vector<std::uint8_t> frontier_row_next_;  // tile-row gained depth==level+1
};

}  // namespace gstore::algo
