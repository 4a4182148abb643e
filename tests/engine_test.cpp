#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>

#include "graph/generator.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "util/status.h"

namespace gstore::store {
namespace {

using graph::GraphKind;
using gstore::testing::half_cached;
using gstore::testing::OverlapProbeAlgo;

// Records which tiles the engine delivers each iteration.
class RecordingAlgo final : public TileAlgorithm {
 public:
  explicit RecordingAlgo(std::uint32_t iterations) : want_iters_(iterations) {}

  std::string name() const override { return "recorder"; }
  void init(const tile::TileStore& store) override {
    grid_ = &store.grid();
    per_iter_.clear();
  }
  void begin_iteration(std::uint32_t) override {
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
  c.policy = CachePolicyKind::kNone;
  c.rewind = false;
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
  nocache.policy = CachePolicyKind::kNone;
  nocache.rewind = false;

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
    void begin_iteration(std::uint32_t) override {}
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
  cfg.policy = CachePolicyKind::kNone;
  cfg.rewind = false;
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

std::uint64_t nonempty_tile_count(const tile::TileStore& store) {
  std::uint64_t n = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    if (store.tile_bytes(k) != 0) ++n;
  return n;
}

// Counts caching-oracle calls per iteration. Every tile stays useful, so a
// pool that fills stays full and every later tile is turned away.
class OracleCountingAlgo final : public TileAlgorithm {
 public:
  std::string name() const override { return "oracle-counter"; }
  void init(const tile::TileStore&) override {}
  void begin_iteration(std::uint32_t) override { calls_ = 0; }
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
  const std::uint64_t tiles = nonempty_tile_count(store);
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
// Appended: priority-driven selective scheduling (ISSUE 10).
#include "store/worklist.h"

namespace gstore::store {
namespace {

TEST(TileWorklist, DrainsBucketsAscendingAndTilesInLayoutOrder) {
  TileWorklist wl;
  wl.reset(16);
  wl.push(3, 5);
  wl.push(7, 2);
  wl.push(1, 2);
  wl.push(11, 9);
  EXPECT_EQ(wl.size(), 4u);
  EXPECT_EQ(wl.priority_of(7), 2u);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), 2u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 7}));
  EXPECT_EQ(wl.drain_min(out), 5u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(wl.drain_min(out), 9u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11}));
  EXPECT_TRUE(wl.empty());
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kIdle);
}

TEST(TileWorklist, LazyRefileDeliversEachTileOnce) {
  TileWorklist wl;
  wl.reset(8);
  wl.push(4, 8);
  wl.push(4, 3);  // improve: the bucket-8 entry goes stale
  EXPECT_EQ(wl.size(), 1u);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), 3u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{4}));
  // The stale bucket-8 entry must not resurface.
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kIdle);
  EXPECT_TRUE(out.empty());
  // Worsening a priority also refiles (engine re-pushes after each round).
  wl.push(4, 2);
  wl.push(4, 6);
  EXPECT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.drain_min(out), 6u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{4}));
}

TEST(TileWorklist, IdlePushAndDeactivateUnfile) {
  TileWorklist wl;
  wl.reset(8);
  wl.push(2, 4);
  wl.push(5, 4);
  wl.push(2, TileWorklist::kIdle);
  wl.deactivate(5);
  wl.deactivate(5);  // idempotent
  EXPECT_TRUE(wl.empty());
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kIdle);
  EXPECT_EQ(wl.priority_of(2), TileWorklist::kIdle);
}

TEST(TileWorklist, PathologicalPrioritiesShareTheOverflowBucket) {
  TileWorklist wl;
  wl.reset(4);
  wl.push(0, TileWorklist::kMaxBucket + 1000);
  wl.push(1, 0xfffffffeu);  // kIdle - 1, the largest non-idle priority
  wl.push(2, 1);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{2}));
  // Both clamped tiles drain together from the single overflow bucket.
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kMaxBucket);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(wl.empty());
}

// Orders tiles by their row index and records which bucket each round
// drained — the engine must deliver rounds in ascending bucket order, each
// containing exactly that row's tiles.
class RowPriorityAlgo final : public TileAlgorithm {
 public:
  std::string name() const override { return "row-priority"; }
  void init(const tile::TileStore& store) override { grid_ = &store.grid(); }
  void begin_round(std::uint32_t, std::uint32_t bucket) override {
    bucket_ = bucket;
    round_buckets_.push_back(bucket);
  }
  void process_tile(const tile::TileView& view) override {
    std::lock_guard<std::mutex> lock(mu_);
    EXPECT_EQ(view.coord.i, bucket_);
    ++tiles_seen_;
  }
  bool end_round(std::uint32_t, std::uint32_t) override { return true; }
  void begin_iteration(std::uint32_t) override {}
  bool end_iteration(std::uint32_t) override { return true; }
  std::uint32_t tile_priority(std::uint32_t i, std::uint32_t) const override {
    return i;
  }
  // Nothing ever changes priority: drained tiles stay drained, so the run
  // ends when the seeded worklist empties.
  bool dirty_rows(std::vector<std::uint32_t>&) const override { return true; }

  std::vector<std::uint32_t> round_buckets_;
  std::uint64_t tiles_seen_ = 0;

 private:
  const tile::Grid* grid_ = nullptr;
  std::uint32_t bucket_ = 0;
  std::mutex mu_;
};

TEST(ScrEngine, PriorityRoundsDrainAscendingBuckets) {
  io::TempDir dir;
  auto store = kron_store(dir);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  RowPriorityAlgo algo;
  const auto stats = ScrEngine(store, cfg).run(algo);
  ASSERT_FALSE(algo.round_buckets_.size() == 0);
  for (std::size_t k = 1; k < algo.round_buckets_.size(); ++k)
    EXPECT_LT(algo.round_buckets_[k - 1], algo.round_buckets_[k]);
  std::uint64_t nonempty = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    if (store.tile_edge_count(k) > 0) ++nonempty;
  EXPECT_EQ(algo.tiles_seen_, nonempty);  // every tile exactly once
  EXPECT_EQ(stats.rounds, algo.round_buckets_.size());
  EXPECT_EQ(stats.max_bucket, algo.round_buckets_.back());
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
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.iterations, 3u);
}

TEST(ScrEngine, PriorityStatsAreCoherent) {
  io::TempDir dir;
  auto store = kron_store(dir);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  RecordingAlgo algo(4);
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.rounds, 4u);
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
    void begin_iteration(std::uint32_t) override {}
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

}  // namespace
}  // namespace gstore::store
