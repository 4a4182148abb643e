// Connected components via min-label propagation (paper §II-B, Algorithm 2;
// Shiloach–Vishkin-style iterative labeling after [31]/[4]).
//
// Every stored edge propagates the smaller component label across itself in
// both directions — for directed graphs this computes *weakly* connected
// components from a single stored edge direction, which is exactly the
// saving Algorithm 2 argues for (no broadcast over the other direction).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "store/algorithm.h"

namespace gstore::algo {

class TileWcc final : public store::TileAlgorithm {
 public:
  std::string name() const override { return "wcc"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override;
  // All tiles stay useful while labels keep moving (the paper runs CC over
  // the full graph each iteration to ride sequential bandwidth).
  bool tile_useful_next(std::uint32_t, std::uint32_t) const override {
    return changed_ != 0;
  }

  const std::vector<graph::vid_t>& labels() const noexcept { return label_; }
  std::uint64_t component_count() const;

 private:
  void process_block(const tile::EdgeBlock& block);
  unsigned tile_bits_ = 16;
  std::uint64_t changed_ = 0;  // label updates this iteration (atomic)
  std::uint32_t iteration_ = 0;
  std::vector<graph::vid_t> label_;
};

}  // namespace gstore::algo
