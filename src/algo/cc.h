// Weakly connected components in one sweep: lock-free union-find over the
// label array. The paper's Algorithm 2 propagates min labels until a whole
// sweep moves none; this is the hooking step of Shiloach–Vishkin [31]/[4]
// without the repeated rounds, as in Afforest (Sutton et al., IPDPS 2018)
// and Jayanti–Tarjan's concurrent union-find (PODC 2016), so every run reads
// each tile once. Every stored edge unions its endpoints regardless of
// direction: on a directed store that yields *weakly* connected components
// from one stored edge direction, the saving Algorithm 2 argues for.
//
// label_[v] is v's parent in a forest whose roots label themselves. Three
// invariants keep it lock-free and deterministic:
//   * hook   — an edge whose endpoints have different roots moves the
//              larger root under the smaller with one CAS that succeeds
//              only while that root is still a root; a failed CAS finds
//              both roots again. So label_[v] <= v always, and each
//              component's root is its smallest id, which is ref_wcc's
//              label at any thread count.
//   * halve  — find() points each vertex it passes at its grandparent with
//              a relaxed store. A non-root's parent only ever moves to one
//              of its ancestors, so a racing store that writes an older
//              ancestor is still a valid parent, and no CAS is needed.
//   * compress — end_iteration() sets label_[v] = label_[label_[v]] in one
//              ascending pass; since label_[v] <= v, each parent is final
//              before its children read it.
// Edges whose endpoints already share a parent are skipped without a find.
//
// New edges only merge components, so reactivate() resumes from converged
// labels: one round over the delta's tiles, then the compress pass.
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
  void begin_iteration(std::uint32_t, std::uint32_t) override {}
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  // Every tile with data, or only the tiles reactivate() marked.
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override;
  // One sweep reads each tile once, so nothing is worth pinning.
  bool tile_useful_next(std::uint32_t, std::uint32_t) const override {
    return false;
  }
  bool reactivate(const tile::TileStore& store,
                  std::span<const std::uint64_t> delta_tiles) override;

  const std::vector<graph::vid_t>& labels() const noexcept { return label_; }
  std::uint64_t component_count() const;

 private:
  void process_block(const tile::EdgeBlock& block);
  graph::vid_t find(graph::vid_t v);
  void unite(graph::vid_t a, graph::vid_t b);

  std::vector<graph::vid_t> label_;
  // Tiles a resume runs, row-major over the p×p grid; empty = every tile.
  std::uint32_t p_ = 0;
  std::vector<std::uint8_t> marked_;
};

}  // namespace gstore::algo
