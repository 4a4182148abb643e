// The algorithm interface the SCR engine drives (paper §VI).
//
// An algorithm owns its metadata arrays (depth, rank, labels …) and exposes
// three oracles the engine uses:
//   * tile_priority(i,j)    — selective fetch and priority scheduling
//                             (paper §V-B, docs/SCHEDULING.md): the bucket
//                             of this tile's pending work, or kPriorityIdle
//                             when it has none.
//   * tile_needed(i,j)      — must this tile be processed in the current
//                             iteration? The default tile_priority derives
//                             from it.
//   * tile_useful_next(i,j) — proactive caching: with the information known
//                             so far, might this tile be needed in the *next*
//                             iteration? (paper §VI-C Rules 1 & 2)
// process_tile() may be called concurrently for different tiles; metadata
// updates must be thread-safe.
//
// One protocol plans every round, in ScrEngine's two modes and in the serve
// gang alike: one scan asks tile_priority of every tile that carries data,
// then one begin_iteration(iter, bucket) call tells the algorithm which
// bucket the round runs. A grid sweep (and a gang round) runs every tile
// with work and says kMaxBucket, "every bucket"; a priority round runs the
// lowest bucket's tiles and says that bucket. Then the round's tiles are
// processed, and end_iteration(iter) decides whether to go on.
//
// Oracle stability: the scan before the begin hook fixes a round's tiles —
// which the engine takes from the cache pool, fetches, or splices from the
// overlay — and has reads in flight before its first process_tile() call.
// The oracles may change during the round; the next round scans again. So
// tile_priority must say kPriorityIdle for a tile whose pending work a
// round drained, or the next round runs it again, and tile_needed must not
// depend on the begin hook.
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

#include "tile/edge_block.h"
#include "tile/tile_file.h"

namespace gstore::store {

class TileAlgorithm {
 public:
  // tile_priority() result meaning "this tile has no pending work".
  static constexpr std::uint32_t kPriorityIdle = 0xffffffffu;
  // Priorities at or above this share one overflow bucket: its tiles run
  // together in one round, which begin_iteration() sees as bucket
  // kMaxBucket. Grid sweeps and gang rounds, which run every bucket at
  // once, say kMaxBucket too.
  static constexpr std::uint32_t kMaxBucket = 1u << 16;

  virtual ~TileAlgorithm() = default;

  virtual std::string name() const = 0;

  // Called once before the first iteration; the store outlives the run.
  virtual void init(const tile::TileStore& store) = 0;

  // Starts a round that runs the tiles of buckets up to `bucket` (see the
  // header comment). Algorithms that drain pending work by bucket (SSSP,
  // PageRank-delta) drain exactly those buckets here.
  virtual void begin_iteration(std::uint32_t iter,
                               std::uint32_t bucket = kMaxBucket) = 0;

  // Process every edge of one tile. `view.edges` are SNB tuples; global ids
  // are view.src_base + e.src16 / view.dst_base + e.dst16.
  virtual void process_tile(const tile::TileView& view) = 0;

  // Returns true if another iteration is required. Returning false stops
  // the run even if tiles still have work (e.g. a residual algorithm whose
  // total pending mass fell under tolerance).
  virtual bool end_iteration(std::uint32_t iter) = 0;

  // Selective-fetch oracle. Default: every tile, every iteration.
  virtual bool tile_needed(std::uint32_t /*i*/, std::uint32_t /*j*/) const {
    return true;
  }

  // Proactive-caching oracle. Default: everything is worth caching (true for
  // PageRank, which reuses the whole graph each iteration).
  virtual bool tile_useful_next(std::uint32_t /*i*/, std::uint32_t /*j*/) const {
    return true;
  }

  // Priority oracle: the delta-stepping bucket of this tile's pending work
  // (smaller = drained earlier), or kPriorityIdle when it has none. The
  // default derives from tile_needed, which puts every needed tile in one
  // bucket — grid-oriented algorithms then run unchanged in priority mode,
  // one bucket-0 round per iteration.
  virtual std::uint32_t tile_priority(std::uint32_t i, std::uint32_t j) const {
    return tile_needed(i, j) ? 0 : kPriorityIdle;
  }

  // Label updates made during the last round (relaxations, visits, pushed
  // mass). The engine attributes a round's fetched bytes to
  // wasted_fetch_bytes when this is 0. Default: unknown, counts as progress.
  virtual std::uint64_t last_round_updates() const { return 1; }

  // Incremental recompute (ScrEngine::resume): re-arm pending work from a
  // previous converged run for exactly the tiles a WAL delta touched — the
  // overlay carrying the new edges is already attached to `store`. The
  // engine then asks tile_priority of every tile, so nothing else may stay
  // pending from the previous run, whichever mode it ran in. Returns
  // false when the algorithm cannot resume (no prior state, or its labels
  // are not monotone under edge insertion); the engine then falls back to a
  // cold run.
  virtual bool reactivate(const tile::TileStore& /*store*/,
                          std::span<const std::uint64_t> /*delta_tiles*/) {
    return false;
  }
};

}  // namespace gstore::store
