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
// process_tile() is the one compute entry point (docs/HOTPATH.md). The
// built-in algorithms implement it as tile::for_each_block over the view,
// handing each decoded SoA EdgeBlock to their own branch-hoisted,
// prefetching block kernel; tile::visit_edges is the simple per-edge way
// to write one, and the correctness oracle for the block decoder.
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
};

}  // namespace gstore::store
