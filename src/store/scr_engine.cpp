#include "store/scr_engine.h"

#include <algorithm>
#include <vector>

#include "store/round_executor.h"
#include "tile/overlay.h"
#include "util/dcheck.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::store {

struct ScrEngine::Runner {
  Runner(tile::TileStore& store, const EngineConfig& config,
         TileAlgorithm& algo)
      : store(store),
        grid(store.grid()),
        config(config),
        algo(algo),
        policy(CachingPolicy::make(config.policy)),
        overlay(store.overlay()),
        exec(store, config, hooks()),
        pool(exec.pool()),
        stats(exec.stats()) {}

  // The pass's three hooks: a tile's scan cost is its edge count, a tile is
  // processed by the one algorithm, and CACHE is the policy's admit.
  RoundHooks hooks() {
    return RoundHooks{
        [this](std::uint64_t idx) {
          return store.tile_edge_count(idx) + overlay_count(idx);
        },
        [this](std::uint64_t, std::span<const tile::TileView> views) {
          for (const tile::TileView& v : views) algo.process_tile(v);
        },
        [this](CachePool& p, const Segment& seg) {
          policy->admit(p, seg, grid, algo);
        }};
  }

  // ---- helpers -----------------------------------------------------------

  bool needed_now(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    return algo.tile_needed(c.i, c.j);
  }

  std::uint32_t priority_of(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    return algo.tile_priority(c.i, c.j);
  }

  std::uint64_t overlay_count(std::uint64_t layout_idx) const {
    return overlay == nullptr ? 0 : overlay->tile_edges(layout_idx).size();
  }

  bool has_data(std::uint64_t layout_idx) const {
    return store.tile_bytes(layout_idx) != 0 || overlay_count(layout_idx) != 0;
  }

  // ---- one round: the pass, then the bookkeeping around it ---------------

  IterationStats counters() const {
    return IterationStats{stats.tiles_from_disk, stats.tiles_from_cache,
                          stats.tiles_skipped, stats.edges_processed,
                          exec.bytes_fetched()};
  }

  // Books a finished round: its fetched bytes count as wasted when it made
  // no updates (last_round_updates() holds the round's count until the next
  // begin hook resets it), and it gets its per_iteration entry.
  void record_round(const IterationStats& before, std::uint32_t bucket,
                    double seconds) {
    const std::uint64_t fetched = exec.bytes_fetched() - before.bytes_fetched;
    if (algo.last_round_updates() == 0) stats.wasted_fetch_bytes += fetched;
    stats.per_iteration.push_back(IterationStats{
        stats.tiles_from_disk - before.tiles_from_disk,
        stats.tiles_from_cache - before.tiles_from_cache,
        stats.tiles_skipped - before.tiles_skipped,
        stats.edges_processed - before.edges_processed, fetched, bucket,
        seconds});
  }

  // ---- one iteration -----------------------------------------------------

  // Grid mode's round: every tile carrying data that the algorithm needs
  // this iteration, in layout order.
  void needed_tiles(std::vector<std::uint64_t>& out) const {
    out.clear();
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx)
      if (has_data(idx) && needed_now(idx)) out.push_back(idx);
  }

  // The tile_needed contract (algorithm.h): the list the pass was planned
  // from, before any tile was processed, is still the list after the scan.
  bool needed_tiles_unchanged() const {
    std::vector<std::uint64_t> again;
    needed_tiles(again);
    return again == round_tiles;
  }

  // Returns true if the algorithm wants another iteration.
  bool run_iteration(std::uint32_t iter) {
    const Timer iter_timer;
    const IterationStats before = counters();
    algo.begin_iteration(iter);

    // Plan the whole iteration up front, so reads are in flight before the
    // first tile is processed.
    needed_tiles(round_tiles);
    stats.tiles_skipped += exec.run_round(round_tiles);
    GSTORE_DCHECK(needed_tiles_unchanged());

    // Iteration-boundary cache analysis. Runs *before* end_iteration(): the
    // tile_useful_next oracle refers to the upcoming iteration, and
    // end_iteration typically promotes next-iteration metadata (e.g. BFS
    // frontier flags) to current.
    if (pool.budget() > 0) policy->analyze(pool, grid, algo);

    const bool more = algo.end_iteration(iter);
    record_round(before, IterationStats::kNoBucket, iter_timer.seconds());
    return more;
  }

  // ---- priority mode (docs/SCHEDULING.md) --------------------------------

  // Priority mode's plan, one scan like needed_tiles: every tile carrying
  // data is asked for its priority, and the round is the lowest bucket's
  // tiles in layout order. Priorities at or above kMaxBucket share one
  // bucket. Returns the bucket, or kPriorityIdle when no tile has work.
  std::uint32_t plan_round() {
    round_tiles.clear();
    std::uint32_t bucket = TileAlgorithm::kPriorityIdle;
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      if (!has_data(idx)) continue;
      const std::uint32_t p = priority_of(idx);
      if (p == TileAlgorithm::kPriorityIdle) continue;
      const std::uint32_t b = std::min(p, TileAlgorithm::kMaxBucket);
      if (b > bucket) continue;
      if (b < bucket) {
        bucket = b;
        round_tiles.clear();
      }
      round_tiles.push_back(idx);
    }
    return bucket;
  }

  // One priority round over the planned tiles — cached ones processed in
  // place (the REWIND idea applied per round), the rest streamed. Returns
  // end_round()'s verdict.
  bool run_round(std::uint32_t round, std::uint32_t bucket) {
    const Timer round_timer;
    const IterationStats before = counters();
    algo.begin_round(round, bucket);
    stats.max_bucket = std::max(stats.max_bucket, bucket);
    // The returned skip count is dropped: a round's candidates are its
    // bucket's tiles (see IterationStats).
    exec.run_round(round_tiles);

    // Round-boundary cache analysis, before end_round for the same reason
    // the grid path runs it before end_iteration (tile_useful_next refers
    // to upcoming work; end_round promotes next-state metadata).
    if (pool.budget() > 0) policy->analyze(pool, grid, algo);

    const bool more = algo.end_round(round, bucket);
    record_round(before, bucket, round_timer.seconds());
    return more;
  }

  // Drives priority rounds to completion, planning each one after the
  // previous round's end hook (the first after init, or after reactivate
  // when `cold` is false).
  EngineStats run_priority(bool cold) {
    Timer total;
    if (cold) algo.init(store);
    bool more = true;
    std::uint32_t round = 0;
    for (; more; ++round) {
      const std::uint32_t bucket = plan_round();
      if (bucket == TileAlgorithm::kPriorityIdle) break;
      GS_CHECK_MSG(round < config.max_iterations,
                   "algorithm did not converge within max_iterations");
      more = run_round(round, bucket);
    }
    stats.iterations = round;
    return exec.finish(total.seconds());
  }

  EngineStats run() {
    if (config.schedule == ScheduleMode::kPriority)
      return run_priority(/*cold=*/true);
    Timer total;
    algo.init(store);
    bool more = true;
    std::uint32_t iter = 0;
    while (more && iter < config.max_iterations) {
      more = run_iteration(iter);
      ++iter;
    }
    GS_CHECK_MSG(!more, "algorithm did not converge within max_iterations");
    stats.iterations = iter;
    return exec.finish(total.seconds());
  }

  tile::TileStore& store;
  const tile::Grid& grid;
  const EngineConfig& config;
  TileAlgorithm& algo;
  std::unique_ptr<CachingPolicy> policy;
  // The overlay is frozen for the duration of a run (reader/writer contract
  // in tile/overlay.h), so which tiles carry data never changes mid-run.
  const tile::TileOverlay* overlay = nullptr;
  RoundExecutor exec;
  CachePool& pool;
  EngineStats& stats;
  // The round being run, in ascending layout order.
  std::vector<std::uint64_t> round_tiles;
};

ScrEngine::ScrEngine(tile::TileStore& store, EngineConfig config)
    : store_(store), config_(config) {}

EngineStats ScrEngine::run(TileAlgorithm& algo) {
  Runner runner(store_, config_, algo);
  EngineStats s = runner.run();
  GS_LOG(Info) << algo.name() << ": " << s.iterations << " iterations, "
               << s.edges_processed << " edges processed, "
               << s.bytes_read / (1 << 20) << " MiB read, "
               << s.tiles_from_cache << " tiles from cache";
  return s;
}

EngineStats ScrEngine::resume(TileAlgorithm& algo,
                              std::span<const std::uint64_t> delta_tiles) {
  Runner runner(store_, config_, algo);
  if (delta_tiles.empty() || !algo.reactivate(store_, delta_tiles)) {
    // No prior state to resume from (or nothing to resume onto): the cold
    // run is the correct — and only — answer.
    GS_LOG(Info) << algo.name()
                 << ": reactivate declined, falling back to a cold run";
    return runner.run();
  }
  EngineStats s = runner.run_priority(/*cold=*/false);
  GS_LOG(Info) << algo.name() << ": incremental resume over "
               << delta_tiles.size() << " delta tiles, " << s.iterations
               << " rounds, " << s.bytes_read / (1 << 20) << " MiB read";
  return s;
}

}  // namespace gstore::store
