// Push-based PageRank-delta (Gauss–Southwell residual propagation) — the
// residual-mass workload the priority scheduler exists for (ROADMAP item 2,
// docs/SCHEDULING.md).
//
// Instead of power iteration over the whole graph (TilePageRank), every
// vertex carries a residual: un-propagated probability mass. Draining a
// vertex moves its residual into its rank and pushes damping·residual/degree
// to each neighbour. Work therefore concentrates where mass still moves —
// per-tile-row residual mass is the priority oracle, and begin_iteration
// drains the rows of the buckets its round runs. A grid sweep runs every
// bucket, so it drains every row holding residual: one full residual sweep.
// The engine's priority rounds run heavy tiles first while converged
// regions of the graph are never fetched again.
//
// Determinism: residuals, ranks, and pushes are all uint64 fixed-point
// (kFxBits fractional bits). Integer atomic adds commute exactly, so a run's
// result is independent of thread count and tile dispatch order *within* a
// schedule. Across schedules (grid vs priority) drain order differs, which
// changes where the per-drain truncation to fixed point lands — results
// agree to within the truncation tolerance, not bit-exactly; the property
// tests bound the difference. Total residual shrinks geometrically (each
// drain removes res and re-injects at most damping·res), so termination at
// any tolerance is guaranteed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/degree.h"
#include "graph/types.h"
#include "store/algorithm.h"

namespace gstore::algo {

struct PageRankDeltaOptions {
  double damping = 0.85;
  // Stop once the total un-drained residual mass falls below this fraction
  // of the total rank mass (1.0).
  double tolerance = 1e-7;
};

class TilePageRankDelta final : public store::TileAlgorithm {
 public:
  // Fixed-point scale: residual 1.0 == 1 << kFxBits. 40 fractional bits
  // leave 24 integer bits — total mass is 1.0, so overflow is unreachable.
  static constexpr unsigned kFxBits = 40;

  explicit TilePageRankDelta(PageRankDeltaOptions options = {})
      : options_(options) {}

  std::string name() const override { return "pagerank-delta"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter, std::uint32_t bucket) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_useful_next(std::uint32_t i, std::uint32_t j) const override;
  std::uint32_t tile_priority(std::uint32_t i, std::uint32_t j) const override;
  std::uint64_t last_round_updates() const override { return drained_; }

  // Final ranks: drained mass plus whatever residual is still pending (it
  // would all land in the rank eventually, so counting it tightens the
  // truncation error).
  std::vector<float> ranks() const;
  // Total un-drained residual mass, as a fraction of 1.0.
  double residual_mass() const;
  std::uint32_t rounds_run() const noexcept { return rounds_; }

 private:
  void process_block(const tile::EdgeBlock& block);
  void drain_rows_upto(std::uint32_t bucket);
  std::uint32_t bucket_of_row(std::uint32_t r) const;

  PageRankDeltaOptions options_;
  bool symmetric_ = true;
  bool in_edges_ = false;
  unsigned tile_bits_ = 16;
  graph::vid_t n_ = 0;
  std::uint32_t rounds_ = 0;
  std::uint64_t drained_ = 0;  // vertices drained in the last round
  graph::CompressedDegrees degrees_;
  std::vector<std::uint64_t> rank_fx_;     // settled mass
  std::vector<std::uint64_t> res_fx_;      // pending mass per vertex
  std::vector<std::uint64_t> push_fx_;     // per-edge push of drained vertices
  std::vector<std::uint64_t> row_res_fx_;  // pending mass per tile row
  std::vector<std::uint32_t> drained_rows_;
};

}  // namespace gstore::algo
