#include "store/scr_engine.h"

#include <algorithm>
#include <vector>

#include "store/round_executor.h"
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
        exec(store, config, hooks()),
        pool(exec.pool()),
        stats(exec.stats()),
        grid_sweeps(config.schedule == ScheduleMode::kGrid) {}

  // The pass's three hooks: a tile's scan cost is its edge count, a tile is
  // processed by the one algorithm, and CACHE is the policy's admit.
  RoundHooks hooks() {
    return RoundHooks{
        [this](std::uint64_t idx) { return exec.tile_edges(idx); },
        [this](std::uint64_t, std::span<const tile::TileView> views) {
          for (const tile::TileView& v : views) algo.process_tile(v);
        },
        [this](CachePool& p, const Segment& seg) {
          policy->admit(p, seg, grid, algo);
        }};
  }

  // ---- one round: the plan, the pass, the bookkeeping --------------------

  // One scan over the tiles carrying data asks each its tile_priority. A
  // grid sweep takes every tile with work and runs every bucket
  // (kMaxBucket); a priority round takes the lowest bucket's tiles, where
  // priorities at or above kMaxBucket share one bucket. Either way the
  // round is in ascending layout order. Returns the round's bucket, or
  // kPriorityIdle when a priority plan finds no tile with work.
  std::uint32_t plan_round() {
    round_tiles.clear();
    std::uint32_t bucket = grid_sweeps ? TileAlgorithm::kMaxBucket
                                       : TileAlgorithm::kPriorityIdle;
    for (const std::uint64_t idx : exec.data_tiles()) {
      const tile::TileCoord c = grid.coord_at(idx);
      const std::uint32_t p = algo.tile_priority(c.i, c.j);
      if (p == TileAlgorithm::kPriorityIdle) continue;
      const std::uint32_t b = std::min(p, TileAlgorithm::kMaxBucket);
      if (b > bucket) continue;
      if (b < bucket && !grid_sweeps) {
        bucket = b;
        round_tiles.clear();
      }
      round_tiles.push_back(idx);
    }
    return bucket;
  }

  IterationStats counters() const {
    return IterationStats{stats.tiles_from_disk, stats.tiles_from_cache,
                          stats.tiles_skipped, stats.edges_processed,
                          exec.bytes_fetched()};
  }

  // Runs the planned round — cached tiles processed in place (REWIND), the
  // rest streamed — between the begin and the end hook, and books it.
  // Returns the end hook's verdict.
  bool run_round(std::uint32_t round, std::uint32_t bucket) {
    const Timer round_timer;
    const IterationStats before = counters();
    algo.begin_iteration(round, bucket);
    const std::uint64_t skipped = exec.run_round(round_tiles);

    // Round-boundary cache analysis. Runs *before* the end hook: the
    // tile_useful_next oracle refers to the upcoming round, and the end
    // hook typically promotes next-round metadata (e.g. BFS frontier flags)
    // to current.
    if (pool.budget() > 0) policy->analyze(pool, grid, algo);
    const bool more = algo.end_iteration(round);

    // A grid sweep's candidates are every tile with base bytes, so it books
    // the ones it skipped; a priority round's are its bucket's tiles, so
    // tiles outside it were not skipped by it (see IterationStats).
    if (grid_sweeps) {
      stats.tiles_skipped += skipped;
      bucket = IterationStats::kNoBucket;
    } else {
      stats.max_bucket = std::max(stats.max_bucket, bucket);
    }
    // Fetched bytes count as wasted when the round made no updates
    // (last_round_updates() holds the round's count until the next begin
    // hook resets it).
    const std::uint64_t fetched = exec.bytes_fetched() - before.bytes_fetched;
    if (algo.last_round_updates() == 0) stats.wasted_fetch_bytes += fetched;
    stats.per_iteration.push_back(IterationStats{
        stats.tiles_from_disk - before.tiles_from_disk,
        stats.tiles_from_cache - before.tiles_from_cache,
        stats.tiles_skipped - before.tiles_skipped,
        stats.edges_processed - before.edges_processed, fetched, bucket,
        round_timer.seconds()});
    return more;
  }

  // Drives rounds to completion, planning each one after the previous
  // round's end hook (the first after init, or after reactivate when `cold`
  // is false). A grid run stops only when the end hook says so, and runs
  // its round even when the plan is empty; a priority run also stops when
  // no tile has work.
  EngineStats run(bool cold) {
    Timer total;
    if (cold) algo.init(store);
    std::uint32_t round = 0;
    for (bool more = true; more; ++round) {
      const std::uint32_t bucket = plan_round();
      if (bucket == TileAlgorithm::kPriorityIdle) break;
      GS_CHECK_MSG(round < config.max_iterations,
                   "algorithm did not converge within max_iterations");
      more = run_round(round, bucket);
    }
    stats.iterations = round;
    return exec.finish(total.seconds());
  }

  tile::TileStore& store;
  const tile::Grid& grid;
  const EngineConfig& config;
  TileAlgorithm& algo;
  std::unique_ptr<CachingPolicy> policy;
  RoundExecutor exec;
  CachePool& pool;
  EngineStats& stats;
  // Rounds run every bucket (ScheduleMode::kGrid) or the lowest one.
  bool grid_sweeps;
  // The round being run, in ascending layout order.
  std::vector<std::uint64_t> round_tiles;
};

ScrEngine::ScrEngine(tile::TileStore& store, EngineConfig config)
    : store_(store), config_(config) {}

EngineStats ScrEngine::run(TileAlgorithm& algo) {
  Runner runner(store_, config_, algo);
  EngineStats s = runner.run(/*cold=*/true);
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
    return runner.run(/*cold=*/true);
  }
  // A resume drives priority rounds whatever the configured schedule.
  runner.grid_sweeps = false;
  EngineStats s = runner.run(/*cold=*/false);
  GS_LOG(Info) << algo.name() << ": incremental resume over "
               << delta_tiles.size() << " delta tiles, " << s.iterations
               << " rounds, " << s.bytes_read / (1 << 20) << " MiB read";
  return s;
}

}  // namespace gstore::store
