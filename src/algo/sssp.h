// Single-source shortest paths — the extension algorithm (paper §IX plans
// broader algorithm support; SSSP exercises frontier-driven selective fetch
// with non-monotone metadata, unlike BFS).
//
// The 4-byte tile tuple has no room for weights, so weights are derived
// deterministically from the endpoint pair (hash → [1, 16]); the in-memory
// Dijkstra reference uses the same function, keeping validation exact.
// Relaxation is Bellman-Ford style with per-tile-row activity flags.
//
// Priority mode (docs/SCHEDULING.md) turns this into delta-stepping over
// tiles: each tile row tracks the minimum un-drained candidate distance,
// tile_priority buckets it by floor(dist/delta), and the engine drains the
// lowest bucket first — so the wavefront's tiles are fetched before
// far-from-the-source tiles that a grid sweep would stream every iteration.
// Final distances are bit-identical to grid order: relaxation is a monotone
// min over left-associated float path sums, so the converged fixpoint does
// not depend on the order relaxations arrive in.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.h"
#include "store/algorithm.h"

namespace gstore::algo {

// Deterministic pseudo-weight in [1,16], symmetric in its arguments.
inline float edge_weight(graph::vid_t u, graph::vid_t v) noexcept {
  const graph::vid_t lo = u < v ? u : v;
  const graph::vid_t hi = u < v ? v : u;
  std::uint64_t x = (static_cast<std::uint64_t>(lo) << 32) | hi;
  x *= 0x9e3779b97f4a7c15ULL;
  x ^= x >> 33;
  return 1.0f + static_cast<float>(x % 16);
}

class TileSssp final : public store::TileAlgorithm {
 public:
  static constexpr float kInf = std::numeric_limits<float>::infinity();

  explicit TileSssp(graph::vid_t root) : root_(root) {}

  std::string name() const override { return "sssp"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override;
  bool tile_useful_next(std::uint32_t i, std::uint32_t j) const override;

  // Delta-stepping hooks (priority mode).
  std::uint32_t tile_priority(std::uint32_t i, std::uint32_t j) const override;
  void begin_round(std::uint32_t round, std::uint32_t bucket) override;
  bool end_round(std::uint32_t round, std::uint32_t bucket) override;
  std::uint64_t last_round_updates() const override { return relaxed_; }
  bool dirty_rows(std::vector<std::uint32_t>& out) const override;
  bool reactivate(const tile::TileStore& store,
                  std::span<const std::uint64_t> delta_tiles) override;

  // Delta-stepping bucket width. Weights are in [1, 16], so the default
  // groups a few hops per bucket; smaller deltas order more strictly (fewer
  // wasted relaxations, more rounds), larger ones approach grid behaviour.
  void set_delta(float delta) { delta_ = delta; }

  const std::vector<float>& distances() const noexcept { return dist_; }

 private:
  void process_block(const tile::EdgeBlock& block);
  void relax(graph::vid_t to, float cand);
  std::uint32_t bucket_of(float d) const;

  graph::vid_t root_;
  bool symmetric_ = true;
  bool in_edges_ = false;
  unsigned tile_bits_ = 16;
  float delta_ = 8.0f;
  std::uint64_t relaxed_ = 0;
  std::vector<float> dist_;
  std::vector<std::uint8_t> active_row_cur_;   // row had a distance drop last iter
  std::vector<std::uint8_t> active_row_next_;
  // Priority-mode state: per tile-row minimum un-drained candidate distance
  // (kInf = nothing pending). relax() lowers it; begin_round clears it for
  // the rows whose bucket the round drains, so in-round relaxations re-arm
  // them for a later round.
  std::vector<float> row_pending_;
  std::vector<std::uint32_t> drained_rows_;  // rows cleared by begin_round
  std::vector<std::uint32_t> dirty_rows_;    // rows whose priority changed
};

}  // namespace gstore::algo
