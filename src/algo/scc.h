// Strongly connected components over dual tile stores.
//
// The paper (§IV-A) observes that SCC "needs both in-edges and out-edges",
// which single-direction stores cannot serve — and positions tile-based
// storage as the answer. This module demonstrates the dual-store pattern:
// one store holds out-edges, a second holds in-edges (both half-size), and
// SCC runs forward-backward reachability (Fleischer/Hendrickson/Pınar-style
// FB algorithm, the paper's reference [10]) through the SCR engine:
//
//   repeat until every vertex is assigned:
//     pick an unassigned pivot (highest degree first),
//     FW  = vertices reachable from the pivot (out-store, masked),
//     BW  = vertices that reach the pivot (in-store, masked),
//     SCC(pivot) = FW ∩ BW.
//
// Worst case is O(#SCC) engine traversals — fine for power-law graphs whose
// mass sits in one giant SCC plus small/singleton components (a trim pass
// assigns zero-degree vertices in bulk).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "store/scr_engine.h"
#include "tile/tile_file.h"

namespace gstore::algo {

// Mask-restricted reachability: BFS-like traversal that follows stored
// tuples as (from, to) pairs verbatim — on an out-edge store this yields
// forward reachability, on an in-edge store backward reachability.
class TileReach final : public store::TileAlgorithm {
 public:
  TileReach(graph::vid_t root, const std::vector<std::uint8_t>* mask)
      : root_(root), mask_(mask) {}

  std::string name() const override { return "reach"; }
  void init(const tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter) override;
  void process_tile(const tile::TileView& view) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override;
  bool tile_useful_next(std::uint32_t i, std::uint32_t j) const override;

  const std::vector<std::uint8_t>& reached() const noexcept { return reached_; }

 private:
  void process_block(const tile::EdgeBlock& block);
  graph::vid_t root_;
  const std::vector<std::uint8_t>* mask_;
  unsigned tile_bits_ = 16;
  std::uint64_t new_reached_ = 0;
  std::vector<std::uint8_t> reached_;
  std::vector<std::uint8_t> frontier_row_cur_;
  std::vector<std::uint8_t> frontier_row_next_;
};

struct SccOptions {
  store::EngineConfig engine;
};

// Runs SCC across the two stores. `out_store` must hold out-edges and
// `in_store` in-edges of the same directed graph. Returns, per vertex, the
// id (smallest member) of its strongly connected component.
std::vector<graph::vid_t> tile_scc(tile::TileStore& out_store,
                                   tile::TileStore& in_store,
                                   SccOptions options = {});

// In-memory reference (iterative Tarjan), labels = smallest member id.
std::vector<graph::vid_t> ref_scc(const graph::EdgeList& el);

}  // namespace gstore::algo
