// PageRank over the tile store (paper §II-B).
//
// Push-style accumulation: every stored edge forwards rank/degree from its
// tail to its head. On symmetric stores each tuple contributes in both
// directions (the undirected adaptation of the paper's Algorithm 1 idea
// applied to PageRank). All graph data is reused every iteration, so the
// proactive-caching oracle always answers true — matching the paper's
// observation that for PageRank nearly 100% of cached data is reused.
//
// Fixed point. The per-vertex contributions and their sums are u64 fixed
// point: rank r is held as r·n·2^F with F = 63 − bit_width(n), so the mean
// rank 1/n is exactly 2^F. The ranks sum to at most 1 (dangling vertices
// leak mass), so every sum stays under n·2^F < 2^63 and cannot overflow.
// ranks() stays f32: the fixed-point value divided by the scale.
//
// Determinism. The block kernel adds with one relaxed integer fetch_add per
// endpoint — for the tuple's first field on symmetric and in-edge stores,
// one per run of tuples sharing it (a tile row), summed in a register
// first. Integer addition is associative, and end_iteration's per-vertex
// update reads only its own vertex's sum, so the ranks are bit-identical for
// any thread count, tile order, schedule, serve gang, overlay split and
// store format.
//
// One vertex pass per iteration. end_iteration runs one parallel loop that
// writes each vertex's next rank, its next contribution (rank·scale/degree)
// and its zeroed accumulator; init computes the first contributions, so
// begin_iteration has nothing to do.
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
  void begin_iteration(std::uint32_t, std::uint32_t) override {}
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
  double scale_ = 1.0;            // fixed-point value of rank 1.0: n·2^F
  std::uint64_t base_fx_ = 0;     // (1 − damping)/n, fixed point
  std::uint64_t damping_fx_ = 0;  // damping · 2^63
  std::uint32_t iterations_ = 0;
  double last_delta_ = 0.0;
  graph::CompressedDegrees degrees_;
  std::vector<float> rank_;              // rank at the start of the iteration
  std::vector<std::uint64_t> contrib_;   // rank/degree, fixed point
  std::vector<std::uint64_t> incoming_;  // Σ contrib over in-neighbours
};

}  // namespace gstore::algo
