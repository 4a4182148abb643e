// GridGraph-like baseline (Zhu et al., ATC'15) — the paper's closest related
// system (§VIII): 2-level hierarchical 2D partitioning on a single machine.
//
// Mapped onto this codebase, GridGraph's design corresponds to:
//   * the traditional grid layout — full matrix (both orientations of
//     undirected edges) with full-vid 8-byte tuples, i.e. our tile store
//     with `snb=false, symmetry=false`;
//   * block-granular streaming in grid order with selective scheduling;
//   * reliance on the OS page cache — approximated by the engine's LRU
//     pool (the paper's §VIII: "GridGraph depends upon Linux page-cache for
//     caching [while] G-Store exploits the properties of 2D tiles");
//   * no algorithm-aware (proactive) caching.
//
// The class is a thin, documented configuration of the shared streaming
// machinery: the comparison in the benchmarks is then exactly about the
// paper's claims (format size + caching policy), not incidental code
// quality differences.
#pragma once

#include <cstdint>
#include <string>

#include "graph/edge_list.h"
#include "io/device.h"
#include "store/scr_engine.h"
#include "tile/convert.h"
#include "tile/tile_file.h"

namespace gstore::baseline {

struct GridGraphConfig {
  std::uint64_t memory_bytes = 64ull << 20;  // page-cache stand-in budget
  unsigned tile_bits = 16;
  std::uint32_t group_side = 256;
  io::DeviceConfig device;
};

// Converts `el` into the GridGraph on-disk layout at `base_path`
// (.tiles/.sei/.deg with 8-byte tuples, full matrix).
tile::ConvertStats convert_to_gridgraph(const graph::EdgeList& el,
                                        const std::string& base_path,
                                        const GridGraphConfig& config = {});

class GridGraphEngine {
 public:
  GridGraphEngine(const std::string& base_path, GridGraphConfig config = {});

  // Runs any tile algorithm under GridGraph-style execution (LRU caching,
  // selective block scheduling).
  store::EngineStats run(store::TileAlgorithm& algo);

  tile::TileStore& tile_store() noexcept { return store_; }

 private:
  GridGraphConfig config_;
  tile::TileStore store_;
};

}  // namespace gstore::baseline
