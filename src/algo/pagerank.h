// PageRank over the tile store (paper §II-B).
//
// Push-style accumulation: every stored edge forwards rank/degree from its
// tail to its head. On symmetric stores each tuple contributes in both
// directions (the undirected adaptation of the paper's Algorithm 1 idea
// applied to PageRank). All graph data is reused every iteration, so the
// proactive-caching oracle always answers true — matching the paper's
// observation that for PageRank nearly 100% of cached data is reused.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/degree.h"
#include "graph/types.h"
#include "store/algorithm.h"

namespace gstore::algo {

struct PageRankOptions {
  double damping = 0.85;
  std::uint32_t max_iterations = 10;
  // Early-exit when the max |Δrank| over all vertices drops below this
  // (0 disables and runs exactly max_iterations).
  double tolerance = 0.0;
};

class TilePageRank final : public store::TileAlgorithm {
 public:
  explicit TilePageRank(PageRankOptions options = {}) : options_(options) {}

  std::string name() const override { return "pagerank"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;

  const std::vector<float>& ranks() const noexcept { return rank_; }
  std::uint32_t iterations_run() const noexcept { return iterations_; }
  double last_delta() const noexcept { return last_delta_; }

 private:
  void process_block(const tile::EdgeBlock& block);
  PageRankOptions options_;
  bool symmetric_ = true;
  bool in_edges_ = false;
  graph::vid_t n_ = 0;
  std::uint32_t iterations_ = 0;
  double last_delta_ = 0.0;
  graph::CompressedDegrees degrees_;
  std::vector<float> rank_;       // rank at the start of the iteration
  std::vector<float> contrib_;    // rank[v]/deg[v], precomputed per iteration
  std::vector<float> incoming_;   // accumulated neighbour contributions
};

}  // namespace gstore::algo
