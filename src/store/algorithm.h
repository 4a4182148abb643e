// The algorithm interface the SCR engine drives (paper §VI).
//
// An algorithm owns its metadata arrays (depth, rank, labels …) and exposes
// three oracles the engine uses:
//   * tile_needed(i,j)      — selective fetch: must this tile be processed in
//                             the *current* iteration? (paper §V-B)
//   * tile_useful_next(i,j) — proactive caching: with the information known
//                             so far, might this tile be needed in the *next*
//                             iteration? (paper §VI-C Rules 1 & 2)
//   * tile_priority(i,j)    — worklist scheduling (docs/SCHEDULING.md): how
//                             urgent is this tile's pending work? The engine's
//                             priority mode drains the minimum bucket per
//                             round instead of sliding the grid in row order.
// process_tile() may be called concurrently for different tiles; metadata
// updates must be thread-safe.
//
// Oracle stability: the engine plans a whole iteration or round right after
// begin_iteration()/begin_round() — which tiles it takes from the cache
// pool, fetches, or splices from the overlay — and has reads in flight
// before its first process_tile() call. So tile_needed() and tile_priority()
// must not change between that begin hook and the end of the round's scan:
// they may read only "current" state that process_tile() never writes.
// Debug builds check tile_needed() by planning again after the scan.
//
// Two compute paths exist (docs/HOTPATH.md):
//   * per-edge   — process_tile() iterates with tile::visit_edges. Simple,
//                  and the correctness oracle for the block path.
//   * block      — process_tile() forwards to process_tile_blocked(), which
//                  decodes the tile into SoA EdgeBlocks and calls
//                  process_block() per block. Hot algorithms override
//                  process_block() with a branch-hoisted, prefetching kernel.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tile/edge_block.h"
#include "tile/tile_file.h"

namespace gstore::store {

class TileAlgorithm {
 public:
  // tile_priority() result meaning "this tile has no pending work".
  static constexpr std::uint32_t kPriorityIdle = 0xffffffffu;

  virtual ~TileAlgorithm() = default;

  virtual std::string name() const = 0;

  // Called once before the first iteration; the store outlives the run.
  virtual void init(const tile::TileStore& store) = 0;

  virtual void begin_iteration(std::uint32_t iter) = 0;

  // Process every edge of one tile. `view.edges` are SNB tuples; global ids
  // are view.src_base + e.src16 / view.dst_base + e.dst16.
  virtual void process_tile(const tile::TileView& view) = 0;

  // Process one decoded SoA block of a tile. The default reconstructs the
  // block's slice of its source view and feeds it back through
  // process_tile(), so algorithms that only implement the per-edge path
  // work unchanged when something drives them block-wise. Hot algorithms
  // override this; their process_tile() then forwards to
  // process_tile_blocked() so both entry points share one kernel.
  virtual void process_block(const tile::EdgeBlock& block) {
    tile::TileView sub = *block.view;
    if (sub.fat) {
      sub.fat_edges = sub.fat_edges.subspan(block.first, block.size);
    } else if (sub.codec == tile::TileCodec::kRaw) {
      sub.edges = sub.edges.subspan(block.first, block.size);
    } else {
      // Encoded tile: the block's SoA arrays are the only materialized form
      // (there is no tuple span to slice), so re-narrow the already-decoded
      // global ids back into a raw SNB slice for the per-edge path.
      tile::SnbEdge tmp[tile::EdgeBlock::kMaxEdges];
      for (std::uint32_t k = 0; k < block.size; ++k) {
        tmp[k].src16 = static_cast<std::uint16_t>(block.src[k] - sub.src_base);
        tmp[k].dst16 = static_cast<std::uint16_t>(block.dst[k] - sub.dst_base);
      }
      sub = tile::splice_view(sub, std::span<const tile::SnbEdge>(tmp, block.size));
      process_tile(sub);
      return;
    }
    process_tile(sub);
  }

  // Returns true if another iteration is required.
  virtual bool end_iteration(std::uint32_t iter) = 0;

  // Selective-fetch oracle. Default: every tile, every iteration.
  virtual bool tile_needed(std::uint32_t /*i*/, std::uint32_t /*j*/) const {
    return true;
  }

  // Proactive-caching oracle. Default: everything is worth caching (true for
  // PageRank/WCC, where the whole graph is reused each iteration).
  virtual bool tile_useful_next(std::uint32_t /*i*/, std::uint32_t /*j*/) const {
    return true;
  }

  // ---- priority-mode hooks (ScheduleMode::kPriority, docs/SCHEDULING.md) --

  // Priority oracle: the delta-stepping bucket of this tile's pending work
  // (smaller = drained earlier), or kPriorityIdle when it has none. The
  // default derives from tile_needed, which puts every needed tile in one
  // bucket — grid-oriented algorithms then run unchanged in priority mode,
  // one bucket-0 round per iteration.
  virtual std::uint32_t tile_priority(std::uint32_t i, std::uint32_t j) const {
    return tile_needed(i, j) ? 0 : kPriorityIdle;
  }

  // Round hooks. A priority round processes one worklist bucket, not the
  // whole grid; algorithms that distinguish rounds from iterations (e.g.
  // delta-stepping SSSP snapshotting the rows it is about to drain)
  // override these. Defaults delegate to the iteration hooks.
  virtual void begin_round(std::uint32_t round, std::uint32_t bucket) {
    (void)bucket;
    begin_iteration(round);
  }
  // Returns false to stop the run even if tiles remain filed (e.g. a
  // residual algorithm whose total pending mass fell under tolerance).
  virtual bool end_round(std::uint32_t round, std::uint32_t bucket) {
    (void)bucket;
    return end_iteration(round);
  }

  // Label updates made during the last round (relaxations, visits, pushed
  // mass). The engine attributes a round's fetched bytes to
  // wasted_fetch_bytes when this is 0. Default: unknown, counts as progress.
  virtual std::uint64_t last_round_updates() const { return 1; }

  // Incremental worklist maintenance: appends the tile-row indices whose
  // priority inputs changed during the last round, so the engine re-files
  // only tiles touching those rows. Returns false when the dirty set is
  // unknown — the engine then re-evaluates every tile.
  virtual bool dirty_rows(std::vector<std::uint32_t>& /*out*/) const {
    return false;
  }

  // Incremental recompute (ScrEngine::resume): re-arm pending work from a
  // previous converged run for exactly the tiles a WAL delta touched — the
  // overlay carrying the new edges is already attached to `store`. Returns
  // false when the algorithm cannot resume (no prior state, or its labels
  // are not monotone under edge insertion); the engine then falls back to a
  // cold run.
  virtual bool reactivate(const tile::TileStore& /*store*/,
                          std::span<const std::uint64_t> /*delta_tiles*/) {
    return false;
  }

 protected:
  // Block-path driver for process_tile() overrides: decodes the view and
  // dispatches each block through the process_block() virtual.
  void process_tile_blocked(const tile::TileView& view) {
    tile::for_each_block(
        view, [this](const tile::EdgeBlock& b) { process_block(b); });
  }
};

}  // namespace gstore::store
