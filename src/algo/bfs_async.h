// Asynchronous BFS (paper §II-B cites Pearce et al. [26]: asynchronous
// traversal "reduces the total number of iterations needed").
//
// Instead of synchronous level-by-level expansion, every pass relaxes
// depth[to] = min(depth[to], depth[from]+1) using the freshest values —
// depth improvements propagate *within* a pass, through as many tiles as the
// processing order allows. Converges to exact BFS depths in at most as many
// passes as the synchronous level count, usually far fewer.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.h"
#include "store/algorithm.h"

namespace gstore::algo {

class TileBfsAsync final : public store::TileAlgorithm {
 public:
  static constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max();

  explicit TileBfsAsync(graph::vid_t root) : root_(root) {}

  std::string name() const override { return "bfs-async"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override;
  bool tile_useful_next(std::uint32_t i, std::uint32_t j) const override;

  // Depths in BFS convention: -1 for unreachable (after convergence).
  std::vector<std::int32_t> depths() const;
  std::uint32_t passes() const noexcept { return passes_; }

 private:
  void process_block(const tile::EdgeBlock& block);

  graph::vid_t root_;
  bool symmetric_ = true;
  bool in_edges_ = false;
  unsigned tile_bits_ = 16;
  std::uint64_t relaxed_ = 0;
  std::uint32_t passes_ = 0;
  std::vector<std::int32_t> depth_;
  std::vector<std::uint8_t> active_row_cur_;
  std::vector<std::uint8_t> active_row_next_;
};

}  // namespace gstore::algo
