#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>

#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "algo/reference.h"
#include "graph/generator.h"
#include "ingest/delta.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "util/status.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gstore::store {
namespace {

using graph::GraphKind;
using gstore::testing::data_tiles;
using gstore::testing::half_cached;
using gstore::testing::OverlapProbeAlgo;
using gstore::testing::RowPriorityAlgo;

// Records which tiles the engine delivers each iteration.
class RecordingAlgo final : public TileAlgorithm {
 public:
  explicit RecordingAlgo(std::uint32_t iterations) : want_iters_(iterations) {}

  std::string name() const override { return "recorder"; }
  void init(const tile::TileStore& store) override {
    grid_ = &store.grid();
    per_iter_.clear();
  }
  void begin_iteration(std::uint32_t, std::uint32_t) override {
    per_iter_.emplace_back();
  }
  void process_tile(const tile::TileView& view) override {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t idx = grid_->layout_index(view.coord.i, view.coord.j);
    ++per_iter_.back()[idx];
    edges_seen_ += view.edge_count();
  }
  bool end_iteration(std::uint32_t iter) override { return iter + 1 < want_iters_; }

  bool tile_needed(std::uint32_t i, std::uint32_t j) const override {
    return needed_rows_.empty() || needed_rows_.count(i) || needed_rows_.count(j);
  }

  std::set<std::uint32_t> needed_rows_;  // empty = all
  std::vector<std::map<std::uint64_t, int>> per_iter_;
  std::uint64_t edges_seen_ = 0;

 private:
  std::uint32_t want_iters_;
  const tile::Grid* grid_ = nullptr;
  std::mutex mu_;
};

tile::TileStore kron_store(const io::TempDir& dir, unsigned scale = 9,
                           unsigned ef = 6) {
  tile::ConvertOptions o;
  o.tile_bits = 5;   // 32-vertex tiles → many tiles at small scale
  o.group_side = 3;  // non-dividing group side
  return gstore::testing::make_store(
      dir, graph::kronecker(scale, ef, GraphKind::kUndirected, 17), o);
}

EngineConfig tiny_memory() {
  EngineConfig c;
  c.stream_memory_bytes = 16 << 10;  // forces many slide phases + evictions
  c.segment_bytes = 2 << 10;
  return c;
}

TEST(ScrEngine, EveryNonEmptyTileProcessedOncePerIteration) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(3);
  ScrEngine engine(store, tiny_memory());
  const auto stats = engine.run(algo);

  EXPECT_EQ(stats.iterations, 3u);
  ASSERT_EQ(algo.per_iter_.size(), 3u);
  std::set<std::uint64_t> nonempty;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    if (store.tile_edge_count(k) > 0) nonempty.insert(k);
  for (const auto& seen : algo.per_iter_) {
    ASSERT_EQ(seen.size(), nonempty.size());
    for (const auto& [idx, count] : seen) {
      EXPECT_EQ(count, 1) << "tile " << idx << " processed more than once";
      EXPECT_TRUE(nonempty.count(idx));
    }
  }
  EXPECT_EQ(algo.edges_seen_, 3 * store.edge_count());
}

TEST(ScrEngine, RewindServesTilesFromCache) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c;
  c.stream_memory_bytes = 64 << 20;  // whole graph fits the pool
  c.segment_bytes = 1 << 20;
  RecordingAlgo algo(3);
  ScrEngine engine(store, c);
  const auto stats = engine.run(algo);
  // After iteration 0 everything is cached; iterations 1-2 do zero disk I/O.
  EXPECT_GT(stats.tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_read, store.bytes_of_range(0, store.grid().tile_count()));
}

TEST(ScrEngine, RewindIsZeroCopy) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  EngineConfig c = tiny_memory();
  c.stream_memory_bytes = 64 << 10;
  // Small enough that the (codec-compressed) store spans several segment
  // fills, so at least one refill hits a segment with pinned slices.
  c.segment_bytes = 1 << 10;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, c).run(algo);
  // Tiles were served from the cache, and none of them was memcpy'd into
  // the pool: REWIND reads the segments' own pinned bytes.
  EXPECT_GT(stats.tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_copied_to_pool, 0u);
  // The zero-copy contract's other half: refilling a segment whose slices
  // are pinned must swap in a fresh buffer, never overwrite in place.
  EXPECT_GT(stats.segment_refreshes, 0u);
}

TEST(ScrEngine, NoCacheBaselineRereadsEveryIteration) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c = tiny_memory();
  c.stream_memory_bytes = 2 * c.segment_bytes;  // no pool: no caching
  RecordingAlgo algo(3);
  ScrEngine engine(store, c);
  const auto stats = engine.run(algo);
  EXPECT_EQ(stats.tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_read,
            3 * store.bytes_of_range(0, store.grid().tile_count()));
}

TEST(ScrEngine, CacheReducesIoVsNoCache) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  EngineConfig base = tiny_memory();
  base.stream_memory_bytes = 64 << 10;
  base.segment_bytes = 4 << 10;

  EngineConfig nocache = base;
  nocache.stream_memory_bytes = 2 * nocache.segment_bytes;

  RecordingAlgo a1(4), a2(4);
  const auto with_cache = ScrEngine(store, base).run(a1);
  const auto without = ScrEngine(store, nocache).run(a2);
  EXPECT_LT(with_cache.bytes_read, without.bytes_read);
  EXPECT_EQ(a1.edges_seen_, a2.edges_seen_);  // identical work either way
}

TEST(ScrEngine, SelectiveFetchSkipsUnneededTiles) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(2);
  algo.needed_rows_ = {0};  // only tiles touching row/col 0
  ScrEngine engine(store, tiny_memory());
  const auto stats = engine.run(algo);
  EXPECT_GT(stats.tiles_skipped, 0u);
  for (const auto& seen : algo.per_iter_)
    for (const auto& [idx, n] : seen) {
      const auto c = store.grid().coord_at(idx);
      EXPECT_TRUE(c.i == 0 || c.j == 0);
      EXPECT_EQ(n, 1);
    }
}

TEST(ScrEngine, SyncAndAsyncProduceSameCoverage) {
  io::TempDir dir;
  auto store = kron_store(dir);
  EngineConfig async_cfg = tiny_memory();
  EngineConfig sync_cfg = tiny_memory();
  sync_cfg.overlap_io = false;
  RecordingAlgo a(2), b(2);
  ScrEngine(store, async_cfg).run(a);
  ScrEngine(store, sync_cfg).run(b);
  ASSERT_EQ(a.per_iter_.size(), b.per_iter_.size());
  for (std::size_t k = 0; k < a.per_iter_.size(); ++k)
    EXPECT_EQ(a.per_iter_[k], b.per_iter_[k]);
}

TEST(ScrEngine, LruPolicyRuns) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c = tiny_memory();
  c.policy = CachePolicyKind::kLru;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, c).run(algo);
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_GT(stats.tiles_from_cache, 0u);
}

TEST(ScrEngine, StatsAreCoherent) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store, tiny_memory()).run(algo);
  EXPECT_GT(stats.io_batches, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GE(stats.elapsed_seconds, 0.0);
  EXPECT_EQ(stats.edges_processed, algo.edges_seen_);
  EXPECT_EQ(stats.tiles_from_disk + stats.tiles_from_cache,
            [&] {
              std::uint64_t total = 0;
              for (const auto& seen : algo.per_iter_) total += seen.size();
              return total;
            }());
}

// The device's counters only grow: each run reports its own share, and the
// device keeps counting across runs on one store.
TEST(ScrEngine, DeviceCountersAccumulateAcrossRuns) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo a1(2), a2(2);
  const auto first = ScrEngine(store, tiny_memory()).run(a1);
  const std::uint64_t before = store.device().stats().bytes_read;
  const auto second = ScrEngine(store, tiny_memory()).run(a2);
  EXPECT_GT(second.bytes_read, 0u);
  EXPECT_EQ(second.bytes_read, first.bytes_read);
  EXPECT_EQ(store.device().stats().bytes_read - before, second.bytes_read);
}

TEST(ScrEngine, HonorsMaxIterationsGuard) {
  io::TempDir dir;
  auto store = kron_store(dir, 7, 4);

  // An algorithm that never converges must trip the guard, not spin forever.
  class NeverDone final : public TileAlgorithm {
   public:
    std::string name() const override { return "never"; }
    void init(const tile::TileStore&) override {}
    void begin_iteration(std::uint32_t, std::uint32_t) override {}
    void process_tile(const tile::TileView&) override {}
    bool end_iteration(std::uint32_t) override { return true; }
  } algo;

  EngineConfig c = tiny_memory();
  c.max_iterations = 5;
  EXPECT_THROW(ScrEngine(store, c).run(algo), Error);
}

TEST(ScrEngine, OversizedTileStreamsWhenSegmentTiny) {
  io::TempDir dir;
  // A star graph puts ~all edges into one tile, far larger than the segment.
  tile::ConvertOptions o;
  o.tile_bits = 5;
  auto store = gstore::testing::make_store(dir, graph::star(32 * 6), o);
  EngineConfig c;
  c.stream_memory_bytes = 2 << 10;
  c.segment_bytes = 128;  // much smaller than the hub tile
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store, c).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(algo.edges_seen_, 2 * store.edge_count());
}

}  // namespace
}  // namespace gstore::store
// Appended: engine edge cases.
namespace gstore::store {
namespace {

TEST(ScrEngine, SingleTileGraph) {
  io::TempDir dir;
  auto store = gstore::testing::make_store(dir, graph::path(50));  // 1 tile
  ASSERT_EQ(store.grid().tile_count(), 1u);
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(algo.edges_seen_, 2 * store.edge_count());
}

TEST(ScrEngine, GraphWithNoEdges) {
  io::TempDir dir;
  graph::EdgeList el({}, 100, graph::GraphKind::kUndirected);
  auto store = gstore::testing::make_store(dir, el);
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(algo.edges_seen_, 0u);
}

TEST(ScrEngine, SegmentLargerThanGraph) {
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 5;
  auto store = gstore::testing::make_store(
      dir, graph::kronecker(8, 4, graph::GraphKind::kUndirected, 2), o);
  EngineConfig cfg;
  cfg.stream_memory_bytes = 256 << 20;  // everything fits one segment
  cfg.segment_bytes = 64 << 20;
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(algo.edges_seen_, 2 * store.edge_count());
}

TEST(ScrEngine, ExactlyMaxIterationsSucceeds) {
  io::TempDir dir;
  auto store = gstore::testing::make_store(dir, graph::path(20));
  EngineConfig cfg;
  cfg.max_iterations = 3;
  RecordingAlgo algo(3);  // wants exactly the cap
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.iterations, 3u);
}

TEST(ScrEngine, FatTupleStoreStreamsCorrectByteCounts) {
  io::TempDir dir;
  auto el = graph::kronecker(8, 4, graph::GraphKind::kUndirected, 3);
  tile::ConvertOptions o;
  o.tile_bits = 5;
  o.snb = false;
  auto store = gstore::testing::make_store(dir, el, o);
  EngineConfig cfg = tiny_memory();
  cfg.stream_memory_bytes = 2 * cfg.segment_bytes;
  RecordingAlgo algo(1);
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.bytes_read, store.edge_count() * 8);
  EXPECT_EQ(stats.edges_processed, store.edge_count());
}

}  // namespace
}  // namespace gstore::store
// Appended: per-iteration statistics.
namespace gstore::store {
namespace {

TEST(ScrEngine, PerIterationStatsSumToTotals) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(4);
  const auto stats = ScrEngine(store, tiny_memory()).run(algo);
  ASSERT_EQ(stats.per_iteration.size(), 4u);
  IterationStats sum;
  for (const auto& it : stats.per_iteration) {
    sum.tiles_from_disk += it.tiles_from_disk;
    sum.tiles_from_cache += it.tiles_from_cache;
    sum.tiles_skipped += it.tiles_skipped;
    sum.edges_processed += it.edges_processed;
    EXPECT_GE(it.seconds, 0.0);
  }
  EXPECT_EQ(sum.tiles_from_disk, stats.tiles_from_disk);
  EXPECT_EQ(sum.tiles_from_cache, stats.tiles_from_cache);
  EXPECT_EQ(sum.tiles_skipped, stats.tiles_skipped);
  EXPECT_EQ(sum.edges_processed, stats.edges_processed);
}

TEST(ScrEngine, CacheWarmupVisibleInPerIterationStats) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c;
  c.stream_memory_bytes = 64 << 20;  // everything cacheable
  c.segment_bytes = 1 << 20;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, c).run(algo);
  ASSERT_EQ(stats.per_iteration.size(), 3u);
  EXPECT_GT(stats.per_iteration[0].tiles_from_disk, 0u);
  EXPECT_EQ(stats.per_iteration[1].tiles_from_disk, 0u);  // fully cached
  EXPECT_EQ(stats.per_iteration[2].tiles_from_disk, 0u);
  EXPECT_GT(stats.per_iteration[1].tiles_from_cache, 0u);
}

// ---- CACHE admission cost and REWIND/SLIDE overlap -------------------------

// Counts caching-oracle calls per iteration. Every tile stays useful, so a
// pool that fills stays full and every later tile is turned away.
class OracleCountingAlgo final : public TileAlgorithm {
 public:
  std::string name() const override { return "oracle-counter"; }
  void init(const tile::TileStore&) override {}
  void begin_iteration(std::uint32_t, std::uint32_t) override { calls_ = 0; }
  void process_tile(const tile::TileView&) override {}
  bool end_iteration(std::uint32_t iter) override {
    per_iter.push_back(calls_.load());
    return iter + 1 < 3;
  }
  bool tile_useful_next(std::uint32_t, std::uint32_t) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::vector<std::uint64_t> per_iter;

 private:
  mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(ScrEngine, ProactiveAdmissionIsLinearInTilesAndPool) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  const std::uint64_t total =
      store.bytes_of_range(0, store.grid().tile_count());
  // One segment holds the whole graph and the pool a quarter of it.
  EngineConfig c;
  c.segment_bytes = total;
  c.stream_memory_bytes = 2 * total + total / 4;
  OracleCountingAlgo algo;
  const auto stats = ScrEngine(store, c).run(algo);
  ASSERT_EQ(algo.per_iter.size(), 3u);
  const std::uint64_t tiles = data_tiles(store).size();
  const std::uint64_t pooled = stats.per_iteration[1].tiles_from_cache;
  ASSERT_GT(pooled, 0u);
  ASSERT_LT(pooled, tiles);  // the pool filled
  // One call per fetched tile plus at most one pool scan per CACHE step and
  // one at the iteration boundary — never a scan per turned-away tile.
  for (const std::uint64_t calls : algo.per_iter)
    EXPECT_LE(calls, 2 * (tiles + pooled));
}

TEST(ScrEngine, SlideReadsOverlapRewind) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  OverlapProbeAlgo algo(store, /*throw_on_probe=*/false);
  const auto stats = ScrEngine(store, half_cached(store)).run(algo);
  ASSERT_EQ(stats.per_iteration.size(), 2u);
  ASSERT_GT(stats.per_iteration[1].tiles_from_cache, 0u);
  ASSERT_GT(stats.per_iteration[1].tiles_from_disk, 0u);
  EXPECT_TRUE(algo.overlapped());
}

TEST(ScrEngine, RewindThrowWithReadsInFlightUnwindsCleanly) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  OverlapProbeAlgo algo(store, /*throw_on_probe=*/true);
  EXPECT_THROW(ScrEngine(store, half_cached(store)).run(algo), std::runtime_error);
  EXPECT_TRUE(algo.overlapped());
  EXPECT_EQ(store.device().in_flight(), 0u);
}

}  // namespace
}  // namespace gstore::store
// Appended: priority scheduling.
namespace gstore::store {
namespace {

// The tile rows that hold at least one tile with base bytes, ascending.
std::vector<std::uint32_t> rows_with_data(const tile::TileStore& store) {
  std::set<std::uint32_t> rows;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    if (store.tile_bytes(k) != 0) rows.insert(store.grid().coord_at(k).i);
  return {rows.begin(), rows.end()};
}

EngineConfig priority_config() {
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  return cfg;
}

TEST(ScrEngine, PriorityRoundsDrainAscendingBuckets) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RowPriorityAlgo algo;
  const auto stats = ScrEngine(store, priority_config()).run(algo);
  // One round per row with data, in ascending order, each holding exactly
  // that row's tiles.
  const std::vector<std::uint32_t> rows = rows_with_data(store);
  ASSERT_EQ(algo.rounds_.size(), rows.size());
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const RowPriorityAlgo::Round& r = algo.rounds_[k];
    EXPECT_EQ(r.bucket, rows[k]);
    EXPECT_EQ(stats.per_iteration[k].bucket, rows[k]);
    for (const std::uint64_t idx : r.tiles)
      EXPECT_EQ(store.grid().coord_at(idx).i, rows[k]);
    seen += r.tiles.size();
  }
  EXPECT_EQ(seen, data_tiles(store).size());  // every tile exactly once
  EXPECT_EQ(stats.iterations, rows.size());
  EXPECT_EQ(stats.max_bucket, rows.back());
}

// Pins one OpenMP thread for a scope, so tiles are processed in the order
// the engine planned them.
class OneThread {
 public:
  OneThread() {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
  }
  ~OneThread() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  OneThread(const OneThread&) = delete;
  OneThread& operator=(const OneThread&) = delete;

 private:
  [[maybe_unused]] int saved_ = 1;
};

TEST(ScrEngine, PriorityRoundRunsItsTilesInLayoutOrder) {
  io::TempDir dir;
  auto store = kron_store(dir);
  // No pool: every tile is fetched, and on one thread the fetch order is
  // the processing order. Four rows per bucket, so a round spans several
  // tile groups and layout order differs from row-major order.
  EngineConfig cfg = priority_config();
  cfg.stream_memory_bytes = 2 * cfg.segment_bytes;
  const OneThread one_thread;
  RowPriorityAlgo algo(/*offset=*/0, /*rows_per_bucket=*/4);
  ScrEngine(store, cfg).run(algo);
  ASSERT_GT(algo.rounds_.size(), 1u);
  std::uint64_t seen = 0;
  for (const RowPriorityAlgo::Round& r : algo.rounds_) {
    EXPECT_FALSE(r.tiles.empty());
    EXPECT_TRUE(std::is_sorted(r.tiles.begin(), r.tiles.end()))
        << "round for bucket " << r.bucket;
    seen += r.tiles.size();
  }
  EXPECT_EQ(seen, data_tiles(store).size());
}

TEST(ScrEngine, PrioritiesPastMaxBucketShareOneRound) {
  io::TempDir dir;
  auto store = kron_store(dir);
  const std::vector<std::uint32_t> rows = rows_with_data(store);
  ASSERT_GE(rows.size(), 4u);
  ASSERT_EQ(rows[1], 1u);
  // Rows 0 and 1 land just under the overflow bucket, every later row at
  // or above it — rows far past it included.
  constexpr std::uint32_t kMax = TileAlgorithm::kMaxBucket;
  RowPriorityAlgo algo(/*offset=*/kMax - 2);
  const auto stats = ScrEngine(store, priority_config()).run(algo);
  ASSERT_EQ(algo.rounds_.size(), 3u);
  EXPECT_EQ(algo.rounds_[0].bucket, kMax - 2);
  EXPECT_EQ(algo.rounds_[1].bucket, kMax - 1);
  EXPECT_EQ(algo.rounds_[2].bucket, kMax);
  std::uint64_t later_rows = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    if (store.tile_bytes(k) != 0 && store.grid().coord_at(k).i >= 2)
      ++later_rows;
  EXPECT_EQ(algo.rounds_[2].tiles.size(), later_rows);
  EXPECT_EQ(stats.max_bucket, kMax);
  EXPECT_EQ(stats.per_iteration.back().bucket, kMax);
}

// Every grid iteration accounts for every tile with base bytes exactly
// once: read from disk, taken from the pool, or skipped. Under LRU the pool
// also holds tiles the iteration does not need; those count as skipped.
TEST(ScrEngine, GridIterationAccountsEveryTile) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  const std::uint64_t tiles = data_tiles(store).size();
  for (const CachePolicyKind policy :
       {CachePolicyKind::kProactive, CachePolicyKind::kLru}) {
    EngineConfig cfg = half_cached(store);
    cfg.policy = policy;
    algo::TileBfs bfs(0);
    const auto stats = ScrEngine(store, cfg).run(bfs);
    ASSERT_GT(stats.per_iteration.size(), 2u);
    for (std::size_t k = 0; k < stats.per_iteration.size(); ++k) {
      const IterationStats& it = stats.per_iteration[k];
      EXPECT_EQ(it.tiles_from_disk + it.tiles_from_cache + it.tiles_skipped,
                tiles)
          << "policy " << static_cast<int>(policy) << ", iteration " << k;
    }
  }
}

TEST(ScrEngine, PriorityModeCoversSameTilesAsGrid) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo grid_algo(3), prio_algo(3);
  ScrEngine(store, tiny_memory()).run(grid_algo);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  const auto stats = ScrEngine(store, cfg).run(prio_algo);
  // Default oracle files every needed tile at priority 0, so one round is
  // one full sweep: coverage is identical to the grid schedule.
  ASSERT_EQ(prio_algo.per_iter_.size(), grid_algo.per_iter_.size());
  for (std::size_t k = 0; k < grid_algo.per_iter_.size(); ++k)
    EXPECT_EQ(prio_algo.per_iter_[k], grid_algo.per_iter_[k]);
  EXPECT_EQ(prio_algo.edges_seen_, grid_algo.edges_seen_);
  EXPECT_EQ(stats.iterations, 3u);
}

TEST(ScrEngine, PriorityStatsAreCoherent) {
  io::TempDir dir;
  auto store = kron_store(dir);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  RecordingAlgo algo(4);
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.iterations, 4u);
  ASSERT_EQ(stats.per_iteration.size(), 4u);
  IterationStats sum;
  std::uint64_t fetched = 0;
  for (const auto& it : stats.per_iteration) {
    EXPECT_NE(it.bucket, IterationStats::kNoBucket);
    EXPECT_LE(it.bucket, stats.max_bucket);
    // Priority mode never "skips" — unfiled tiles were never candidates.
    EXPECT_EQ(it.tiles_skipped, 0u);
    sum.tiles_from_disk += it.tiles_from_disk;
    sum.tiles_from_cache += it.tiles_from_cache;
    sum.edges_processed += it.edges_processed;
    fetched += it.bytes_fetched;
  }
  EXPECT_EQ(sum.tiles_from_disk, stats.tiles_from_disk);
  EXPECT_EQ(sum.tiles_from_cache, stats.tiles_from_cache);
  EXPECT_EQ(sum.edges_processed, stats.edges_processed);
  EXPECT_EQ(sum.edges_processed, algo.edges_seen_);
  // Per-round fetch accounting reconciles with the device's byte counter.
  EXPECT_EQ(fetched, stats.bytes_read);
  EXPECT_EQ(stats.tiles_skipped, 0u);
  // RecordingAlgo always reports progress, so nothing was wasted.
  EXPECT_EQ(stats.wasted_fetch_bytes, 0u);
}

TEST(ScrEngine, PriorityModeHonorsMaxIterations) {
  io::TempDir dir;
  auto store = kron_store(dir, 7, 4);
  class NeverDone final : public TileAlgorithm {
   public:
    std::string name() const override { return "never"; }
    void init(const tile::TileStore&) override {}
    void begin_iteration(std::uint32_t, std::uint32_t) override {}
    void process_tile(const tile::TileView&) override {}
    bool end_iteration(std::uint32_t) override { return true; }
  } algo;
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  cfg.max_iterations = 5;
  EXPECT_THROW(ScrEngine(store, cfg).run(algo), Error);
}

TEST(ScrEngine, PriorityModeCachesAcrossRounds) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig cfg;
  cfg.stream_memory_bytes = 64 << 20;  // whole graph fits the pool
  cfg.segment_bytes = 1 << 20;
  cfg.schedule = ScheduleMode::kPriority;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, cfg).run(algo);
  // Round 0 fetches, rounds 1-2 run entirely out of the pool.
  ASSERT_EQ(stats.per_iteration.size(), 3u);
  EXPECT_GT(stats.per_iteration[0].tiles_from_disk, 0u);
  EXPECT_EQ(stats.per_iteration[1].tiles_from_disk, 0u);
  EXPECT_EQ(stats.per_iteration[2].tiles_from_disk, 0u);
  EXPECT_GT(stats.per_iteration[1].tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_read,
            store.bytes_of_range(0, store.grid().tile_count()));
}

// The round protocol (store/algorithm.h): before every begin hook one scan
// asks tile_priority of every tile carrying data, once each, in layout
// order. A grid sweep runs every tile with work and tells its begin hook
// kMaxBucket, and runs even when its plan is empty, until the end hook
// stops it; a priority round runs the lowest bucket's tiles and tells its
// begin hook that bucket, and the run stops when no tile has work.
TEST(ScrEngine, EveryRoundAsksTilePriorityBeforeItsBeginHook) {
  io::TempDir dir;
  auto store = kron_store(dir);
  const std::vector<std::uint64_t> tiles = data_tiles(store);
  constexpr std::uint32_t kRowsPerBucket = 4;
  auto bucket_of = [&](std::uint64_t idx) {
    return store.grid().coord_at(idx).i / kRowsPerBucket;
  };
  std::set<std::uint32_t> buckets;
  for (const std::uint64_t idx : tiles) buckets.insert(bucket_of(idx));
  ASSERT_GT(buckets.size(), 1u);
  auto sorted = [](std::vector<std::uint64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  {
    SCOPED_TRACE("grid");
    RowPriorityAlgo algo(/*offset=*/0, kRowsPerBucket);
    const auto stats = ScrEngine(store, tiny_memory()).run(algo);
    ASSERT_EQ(algo.rounds_.size(), 2u);
    EXPECT_EQ(stats.iterations, 2u);
    for (const auto& r : algo.rounds_) {
      EXPECT_EQ(r.asked, tiles);
      EXPECT_EQ(r.bucket, TileAlgorithm::kMaxBucket);
    }
    EXPECT_EQ(sorted(algo.rounds_[0].tiles), tiles);
    EXPECT_TRUE(algo.rounds_[1].tiles.empty());
    for (const IterationStats& it : stats.per_iteration)
      EXPECT_EQ(it.bucket, IterationStats::kNoBucket);
  }
  {
    SCOPED_TRACE("priority");
    RowPriorityAlgo algo(/*offset=*/0, kRowsPerBucket);
    const auto stats = ScrEngine(store, priority_config()).run(algo);
    ASSERT_EQ(algo.rounds_.size(), buckets.size());
    EXPECT_EQ(stats.iterations, buckets.size());
    auto b = buckets.begin();
    for (std::size_t k = 0; k < algo.rounds_.size(); ++k, ++b) {
      const RowPriorityAlgo::Round& r = algo.rounds_[k];
      EXPECT_EQ(r.asked, tiles);
      EXPECT_EQ(r.bucket, *b);
      EXPECT_EQ(stats.per_iteration[k].bucket, *b);
      std::vector<std::uint64_t> want;
      for (const std::uint64_t idx : tiles)
        if (bucket_of(idx) == *b) want.push_back(idx);
      EXPECT_EQ(sorted(r.tiles), want);
    }
  }
}

// ---- WCC's exact work ------------------------------------------------------

// Union-find WCC reads the store once, whatever the schedule: one sweep, no
// pooled tile, every tile's bytes and edges exactly once, and ref_wcc's
// labels, with and without an overlay, and with a pool smaller than the
// graph. tests/CMakeLists.txt also runs this at one and at four OpenMP
// threads.
TEST(WccExactWork, GridAndPriorityReadEveryTileOnce) {
  io::TempDir dir;
  const auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 17);
  tile::ConvertOptions o;
  o.tile_bits = 5;
  o.group_side = 3;
  auto store = gstore::testing::make_store(dir, el, o);
  std::uint64_t tile_bytes = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    tile_bytes += store.tile_bytes(k);
  ASSERT_GT(data_tiles(store).size(), 100u);

  const auto extra =
      graph::uniform_random(el.vertex_count(), 200, GraphKind::kUndirected, 5);
  ingest::DeltaBuffer delta(store.grid(), store.meta(), 1 << 20);
  delta.add_batch(extra.edges());
  std::vector<graph::Edge> all = el.edges();
  for (const bool overlaid : {false, true}) {
    if (overlaid) {
      store.attach_overlay(&delta);
      all.insert(all.end(), extra.edges().begin(), extra.edges().end());
    }
    const auto want = algo::ref_wcc(
        graph::EdgeList(all, el.vertex_count(), GraphKind::kUndirected));
    for (const ScheduleMode mode :
         {ScheduleMode::kGrid, ScheduleMode::kPriority}) {
      SCOPED_TRACE(std::string(overlaid ? "overlay, " : "no overlay, ") +
                   (mode == ScheduleMode::kGrid ? "grid" : "priority"));
      EngineConfig cfg = half_cached(store);
      cfg.schedule = mode;
      algo::TileWcc wcc;
      const auto stats = ScrEngine(store, cfg).run(wcc);
      EXPECT_EQ(stats.iterations, 1u);
      EXPECT_EQ(stats.tiles_from_cache, 0u);
      EXPECT_EQ(stats.bytes_read, tile_bytes);
      EXPECT_EQ(stats.edges_processed,
                store.edge_count() + (overlaid ? delta.edge_count() : 0));
      EXPECT_EQ(wcc.labels(), want);
    }
  }
}

// ---- BFS's exact work ------------------------------------------------------

// Which tiles a BFS level needs, and which of them the proactive pool keeps,
// depend only on the frontier, never on thread timing, so BFS's counters are
// exact. On the WCC test's graph from root 0: grid and priority, with a pool
// holding the whole graph and with one holding half of it. A priority round
// skips nothing by definition. One extra fetch fails the test.
// tests/CMakeLists.txt also runs this at one and at four OpenMP threads.
TEST(BfsExactWork, GridAndPriorityWithWholeAndHalfPool) {
  io::TempDir dir;
  const auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 17);
  tile::ConvertOptions o;
  o.tile_bits = 5;
  o.group_side = 3;
  auto store = gstore::testing::make_store(dir, el, o);
  const auto want = algo::ref_bfs(el, 0);
  const auto reached = static_cast<std::uint64_t>(
      std::count_if(want.begin(), want.end(), [](std::int32_t d) {
        return d != algo::TileBfs::kUnvisited;
      }));
  const std::int32_t deepest = *std::max_element(want.begin(), want.end());
  struct Work {
    const char* path;
    ScheduleMode mode;
    bool half_pool;
    std::uint64_t bytes_read;
    std::uint64_t tiles_from_disk;
    std::uint64_t tiles_from_cache;
    std::uint64_t tiles_skipped;
    std::uint32_t iterations;
  };
  // Measured, the same at one and at four threads. A pool holding the whole
  // graph reads its 14760 bytes once.
  const Work cases[] = {
      {"grid, whole pool", ScheduleMode::kGrid, false, 14760, 524, 784, 788, 4},
      {"grid, half pool", ScheduleMode::kGrid, true, 22860, 817, 491, 788, 4},
      {"priority, whole pool", ScheduleMode::kPriority, false, 14760, 524, 784,
       0, 4},
      {"priority, half pool", ScheduleMode::kPriority, true, 22860, 817, 491, 0,
       4},
  };
  for (const Work& w : cases) {
    SCOPED_TRACE(w.path);
    EngineConfig cfg = w.half_pool ? half_cached(store) : EngineConfig{};
    cfg.schedule = w.mode;
    algo::TileBfs bfs(0);
    const auto stats = ScrEngine(store, cfg).run(bfs);
    EXPECT_EQ(bfs.depth(), want);
    // The kernels sum their visits once per block: a dropped or doubled
    // block's count shows here.
    EXPECT_EQ(bfs.visited_count(), reached);
    EXPECT_EQ(bfs.max_depth(), deepest);
    EXPECT_EQ(stats.bytes_read, w.bytes_read);
    EXPECT_EQ(stats.tiles_from_disk, w.tiles_from_disk);
    EXPECT_EQ(stats.tiles_from_cache, w.tiles_from_cache);
    EXPECT_EQ(stats.tiles_skipped, w.tiles_skipped);
    EXPECT_EQ(stats.iterations, w.iterations);
  }
}

// ---- PageRank's exact work -------------------------------------------------

// PageRank needs every tile in every iteration. A pool holding the whole
// graph reads each tile once and serves every later iteration from the pool;
// a pool holding half of it repeats one split of disk and pool tiles in
// every iteration after the first. The counters are exact, so one extra
// fetch per iteration fails the test. tests/CMakeLists.txt also runs this at
// one and at four OpenMP threads.
TEST(PageRankExactWork, WholePoolReadsOnceAndHalfPoolRepeats) {
  io::TempDir dir;
  const auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 17);
  tile::ConvertOptions o;
  o.tile_bits = 5;
  o.group_side = 3;
  auto store = gstore::testing::make_store(dir, el, o);
  std::uint64_t tile_bytes = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    tile_bytes += store.tile_bytes(k);
  const std::uint64_t tiles = data_tiles(store).size();
  constexpr std::uint32_t kIterations = 5;
  const algo::PageRankOptions popt{0.85, kIterations, 0.0};
  for (const ScheduleMode mode :
       {ScheduleMode::kGrid, ScheduleMode::kPriority}) {
    SCOPED_TRACE(mode == ScheduleMode::kGrid ? "grid" : "priority");
    {
      EngineConfig cfg;  // 64 MiB: the pool holds the whole graph
      cfg.schedule = mode;
      algo::TilePageRank pr(popt);
      const auto stats = ScrEngine(store, cfg).run(pr);
      EXPECT_EQ(stats.iterations, kIterations);
      EXPECT_EQ(stats.bytes_read, tile_bytes);
      EXPECT_EQ(stats.tiles_from_disk, tiles);
      EXPECT_EQ(stats.tiles_from_cache, (kIterations - 1) * tiles);
      EXPECT_EQ(stats.edges_processed, kIterations * store.edge_count());
    }
    EngineConfig cfg = half_cached(store);
    cfg.schedule = mode;
    algo::TilePageRank pr(popt);
    const auto stats = ScrEngine(store, cfg).run(pr);
    ASSERT_EQ(stats.per_iteration.size(), kIterations);
    EXPECT_EQ(stats.per_iteration[0].tiles_from_disk, tiles);
    EXPECT_EQ(stats.per_iteration[0].bytes_fetched, tile_bytes);
    // Measured: the pool keeps 250 of the 524 tiles, in both schedules and
    // at any thread count.
    const IterationStats& later = stats.per_iteration[1];
    EXPECT_EQ(later.tiles_from_disk, 274u);
    EXPECT_EQ(later.tiles_from_cache, 250u);
    EXPECT_EQ(later.bytes_fetched, 7380u);
    EXPECT_EQ(later.tiles_from_disk + later.tiles_from_cache, tiles);
    for (std::uint32_t it = 2; it < kIterations; ++it) {
      SCOPED_TRACE("iteration " + std::to_string(it));
      const IterationStats& s = stats.per_iteration[it];
      EXPECT_EQ(s.tiles_from_disk, later.tiles_from_disk);
      EXPECT_EQ(s.tiles_from_cache, later.tiles_from_cache);
      EXPECT_EQ(s.bytes_fetched, later.bytes_fetched);
      EXPECT_EQ(s.edges_processed, later.edges_processed);
    }
    EXPECT_EQ(stats.bytes_read,
              tile_bytes + (kIterations - 1) * later.bytes_fetched);
  }
}

}  // namespace
}  // namespace gstore::store
