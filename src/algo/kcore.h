// k-core decomposition for a fixed k — an extension algorithm showcasing a
// *shrinking* working set: vertices are peeled until every remaining vertex
// has at least k live neighbours. Exercises the engine's selective fetch
// from the opposite direction of BFS (tiles become unnecessary as their
// vertex ranges die off).
//
// Undirected graphs only (the classical definition).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "store/algorithm.h"

namespace gstore::algo {

class TileKCore final : public store::TileAlgorithm {
 public:
  explicit TileKCore(graph::degree_t k) : k_(k) {}

  std::string name() const override { return "kcore"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override;
  bool tile_useful_next(std::uint32_t i, std::uint32_t j) const override;

  // True if v survives in the k-core.
  const std::vector<std::uint8_t>& alive() const noexcept { return alive_; }
  std::uint64_t core_size() const;

 private:
  void process_block(const tile::EdgeBlock& block);
  graph::degree_t k_;
  unsigned tile_bits_ = 16;
  std::uint64_t killed_this_iter_ = 0;
  std::vector<std::uint8_t> alive_;
  std::vector<graph::degree_t> live_degree_;  // recomputed every iteration
  // A tile row stays relevant while it contains any alive vertex.
  std::vector<std::uint8_t> row_alive_;
};

// In-memory reference: classic peeling. Returns the alive bitmap.
std::vector<std::uint8_t> ref_kcore(const graph::EdgeList& el, graph::degree_t k);

}  // namespace gstore::algo
