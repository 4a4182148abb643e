#include "baseline/gridgraph.h"

namespace gstore::baseline {

tile::ConvertStats convert_to_gridgraph(const graph::EdgeList& el,
                                        const std::string& base_path,
                                        const GridGraphConfig& config) {
  tile::ConvertOptions copt;
  copt.tile_bits = config.tile_bits;
  copt.group_side = config.group_side;
  copt.snb = false;      // 8-byte full-vid tuples
  copt.symmetry = false; // both orientations of undirected edges
  return tile::convert_to_tiles(el, base_path, copt);
}

GridGraphEngine::GridGraphEngine(const std::string& base_path,
                                 GridGraphConfig config)
    : config_(config), store_(tile::TileStore::open(base_path, config.device)) {}

store::EngineStats GridGraphEngine::run(store::TileAlgorithm& algo) {
  store::EngineConfig cfg;
  cfg.stream_memory_bytes = config_.memory_bytes;
  cfg.segment_bytes =
      std::max<std::uint64_t>(config_.memory_bytes / 16, 64 << 10);
  cfg.policy = store::CachePolicyKind::kLru;  // page-cache-like, not proactive
  // Cached blocks are served before streaming (the engine's only cache-hit
  // path); the *policy* — recency instead of algorithmic metadata — is what
  // distinguishes this baseline, per the paper's §VIII comparison.
  return store::ScrEngine(store_, cfg).run(algo);
}

}  // namespace gstore::baseline
