#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>

#include "store/cache_pool.h"
#include "store/caching_policy.h"
#include "store/memory_budget.h"
#include "store/segment.h"
#include "test_util.h"
#include "util/status.h"

namespace gstore::store {
namespace {

using gstore::testing::pin_copy;

std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

// ---- MemoryBudget ---------------------------------------------------------

TEST(MemoryBudget, SplitsPoolFromSegments) {
  const auto b = MemoryBudget::compute(100, 20);
  EXPECT_EQ(b.segment_bytes, 20u);
  EXPECT_EQ(b.pool_bytes, 60u);
}

TEST(MemoryBudget, ShrinksSegmentsWhenTight) {
  const auto b = MemoryBudget::compute(30, 20);
  EXPECT_EQ(b.segment_bytes, 15u);
  EXPECT_EQ(b.pool_bytes, 0u);
}

TEST(MemoryBudget, RejectsZero) {
  EXPECT_THROW(MemoryBudget::compute(0, 1), Error);
  EXPECT_THROW(MemoryBudget::compute(1, 0), Error);
}

// ---- Segment ----------------------------------------------------------------

TEST(Segment, PacksTilesUntilFull) {
  Segment s(100);
  EXPECT_TRUE(s.try_add(0, 40));
  EXPECT_TRUE(s.try_add(1, 40));
  EXPECT_FALSE(s.try_add(2, 40));  // would exceed capacity
  EXPECT_TRUE(s.try_add(2, 20));
  EXPECT_EQ(s.used(), 100u);
  ASSERT_EQ(s.slots().size(), 3u);
  EXPECT_EQ(s.slots()[1].offset, 40u);
  EXPECT_EQ(s.slots()[2].layout_idx, 2u);
}

TEST(Segment, ClearResets) {
  Segment s(64);
  s.try_add(0, 32);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.used(), 0u);
  EXPECT_TRUE(s.try_add(5, 64));
}

TEST(Segment, EnsureCapacityGrowsForOversizedTile) {
  Segment s(16);
  s.ensure_capacity(1024);
  EXPECT_GE(s.capacity(), 1024u);
  EXPECT_TRUE(s.try_add(0, 1024));
  // Data is writable across the grown buffer.
  std::memset(s.slot_data(s.slots()[0]), 0x5a, 1024);
}

// ---- CachePool ---------------------------------------------------------

TEST(CachePool, InsertWithinBudget) {
  CachePool pool(100);
  const auto d = bytes(40, 1);
  EXPECT_TRUE(pool.insert_pinned(7, pin_copy(d), d.size()));
  EXPECT_TRUE(pool.contains(7));
  EXPECT_EQ(pool.used(), 40u);
  EXPECT_EQ(pool.free_bytes(), 60u);
}

TEST(CachePool, RejectsWhenFull) {
  CachePool pool(50);
  const auto d = bytes(40, 1);
  EXPECT_TRUE(pool.insert_pinned(1, pin_copy(d), d.size()));
  EXPECT_FALSE(pool.insert_pinned(2, pin_copy(d), d.size()));
  EXPECT_FALSE(pool.contains(2));
}

TEST(CachePool, ReplaceSameTile) {
  CachePool pool(100);
  const auto a = bytes(40, 1);
  const auto b = bytes(60, 2);
  EXPECT_TRUE(pool.insert_pinned(3, pin_copy(a), a.size()));
  EXPECT_TRUE(pool.insert_pinned(3, pin_copy(b), b.size()));
  EXPECT_EQ(pool.used(), 60u);
  EXPECT_EQ(pool.tile_count(), 1u);
  pool.for_each_entry([](const CachePool::Entry& e) {
    EXPECT_EQ(e.bytes, 60u);
    EXPECT_EQ(e.data[0], 2);
  });
}

TEST(CachePool, EraseFreesBudget) {
  CachePool pool(100);
  const auto d = bytes(70, 1);
  pool.insert_pinned(1, pin_copy(d), d.size());
  EXPECT_EQ(pool.erase(1), 70u);
  EXPECT_EQ(pool.erase(1), 0u);
  EXPECT_EQ(pool.used(), 0u);
}

TEST(CachePool, EntriesInLayoutOrder) {
  CachePool pool(1000);
  const auto d = bytes(10, 0);
  pool.insert_pinned(9, pin_copy(d), d.size());
  pool.insert_pinned(2, pin_copy(d), d.size());
  pool.insert_pinned(5, pin_copy(d), d.size());
  std::vector<CachePool::Entry> entries;
  pool.for_each_entry([&](const CachePool::Entry& e) { entries.push_back(e); });
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].layout_idx, 2u);
  EXPECT_EQ(entries[1].layout_idx, 5u);
  EXPECT_EQ(entries[2].layout_idx, 9u);
}

TEST(CachePool, LruEvictionEvictsColdest) {
  CachePool pool(100);
  const auto d = bytes(30, 0);
  pool.insert_pinned(1, pin_copy(d), d.size());
  pool.insert_pinned(2, pin_copy(d), d.size());
  pool.insert_pinned(3, pin_copy(d), d.size());
  pool.touch(1);  // 2 is now coldest
  pool.evict_lru(30);
  EXPECT_TRUE(pool.contains(1));
  EXPECT_FALSE(pool.contains(2));
  EXPECT_TRUE(pool.contains(3));
}

TEST(CachePool, DataIsCopied) {
  CachePool pool(100);
  auto d = bytes(8, 0xaa);
  pool.insert_pinned(0, pin_copy(d), d.size());
  d[0] = 0x00;  // mutate the source after insertion
  ASSERT_EQ(pool.tile_count(), 1u);
  pool.for_each_entry(
      [](const CachePool::Entry& e) { EXPECT_EQ(e.data[0], 0xaa); });
}

TEST(CachePool, ZeroBudgetAcceptsNothing) {
  CachePool pool(0);
  const auto d = bytes(1, 0);
  EXPECT_FALSE(pool.insert_pinned(0, pin_copy(d), d.size()));
}

// ---- zero-copy pinning ------------------------------------------------------

TEST(Segment, BeginFillReusesBufferWhenUnpinned) {
  Segment s(64);
  s.try_add(0, 16);
  const std::uint8_t* before = s.data();
  s.begin_fill();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.data(), before);
  EXPECT_EQ(s.buffer_refreshes(), 0u);
}

TEST(Segment, BeginFillRefreshesBufferWhilePinned) {
  Segment s(64);
  ASSERT_TRUE(s.try_add(0, 16));
  std::memset(s.slot_data(s.slots()[0]), 0xab, 16);
  const BufferPin pin = s.pin_slot(s.slots()[0]);
  const std::uint8_t* old_buf = s.data();
  s.begin_fill();
  EXPECT_NE(s.data(), old_buf);
  EXPECT_EQ(s.buffer_refreshes(), 1u);
  // Scribbling over the fresh buffer must not disturb the pinned slice.
  ASSERT_TRUE(s.try_add(1, 16));
  std::memset(s.slot_data(s.slots()[0]), 0x11, 16);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(pin.get()[i], 0xab);
}

// ASan regression: the pinned slice must keep the backing buffer alive even
// after the segment itself is gone (a use-after-free here is exactly the bug
// the refcounted design exists to prevent).
TEST(Segment, PinOutlivesSegment) {
  BufferPin pin;
  {
    Segment s(32);
    ASSERT_TRUE(s.try_add(0, 8));
    std::memset(s.slot_data(s.slots()[0]), 0xcd, 8);
    pin = s.pin_slot(s.slots()[0]);
  }
  for (int i = 0; i < 8; ++i) ASSERT_EQ(pin.get()[i], 0xcd);
}

TEST(Segment, PinSurvivesEnsureCapacityReplacement) {
  Segment s(16);
  ASSERT_TRUE(s.try_add(0, 8));
  std::memset(s.slot_data(s.slots()[0]), 0x42, 8);
  const BufferPin pin = s.pin_slot(s.slots()[0]);
  s.clear();
  s.ensure_capacity(4096);  // replaces the buffer; the pin holds the old one
  ASSERT_TRUE(s.try_add(1, 4096));
  std::memset(s.slot_data(s.slots()[0]), 0x00, 4096);
  for (int i = 0; i < 8; ++i) ASSERT_EQ(pin.get()[i], 0x42);
}

TEST(CachePool, InsertPinnedIsZeroCopy) {
  Segment s(64);
  ASSERT_TRUE(s.try_add(0, 16));
  std::memset(s.slot_data(s.slots()[0]), 0x7e, 16);
  CachePool pool(100);
  EXPECT_TRUE(pool.insert_pinned(4, s.pin_slot(s.slots()[0]), 16));
  EXPECT_EQ(pool.used(), 16u);
  ASSERT_EQ(pool.tile_count(), 1u);
  // Zero-copy means the pool serves the segment's own bytes.
  pool.for_each_entry(
      [&](const CachePool::Entry& e) { EXPECT_EQ(e.data, s.data()); });
}

TEST(CachePool, ErasedPinReleasesBuffer) {
  Segment s(64);
  ASSERT_TRUE(s.try_add(0, 16));
  CachePool pool(100);
  ASSERT_TRUE(pool.insert_pinned(0, s.pin_slot(s.slots()[0]), 16));
  pool.erase(0);
  // With the pin dropped, begin_fill can reuse the buffer in place.
  s.begin_fill();
  EXPECT_EQ(s.buffer_refreshes(), 0u);
}

// for_each_entry reports exactly the inserted entries, in layout order, each
// pointing at the bytes its pin holds.
TEST(CachePool, ForEachEntryMatchesEntries) {
  CachePool pool(1000);
  const auto d = bytes(10, 3);
  const BufferPin nine = pin_copy(d);
  const BufferPin two = pin_copy(d);
  pool.insert_pinned(9, nine, d.size());
  pool.insert_pinned(2, two, d.size());
  std::vector<CachePool::Entry> seen;
  pool.for_each_entry([&](const CachePool::Entry& e) { seen.push_back(e); });
  const CachePool::Entry want[] = {{2, two.get(), 10}, {9, nine.get(), 10}};
  ASSERT_EQ(seen.size(), 2u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].layout_idx, want[i].layout_idx);
    EXPECT_EQ(seen[i].data, want[i].data);
    EXPECT_EQ(seen[i].bytes, want[i].bytes);
  }
}

// ---- policies ------------------------------------------------------------

// Minimal algorithm stub exposing a controllable, counting oracle.
class StubAlgo final : public TileAlgorithm {
 public:
  std::string name() const override { return "stub"; }
  void init(const tile::TileStore&) override {}
  void begin_iteration(std::uint32_t, std::uint32_t) override {}
  void process_tile(const tile::TileView&) override {}
  bool end_iteration(std::uint32_t) override { return false; }
  bool tile_useful_next(std::uint32_t i, std::uint32_t) const override {
    ++oracle_calls;
    return useful_rows.empty() || useful_rows.count(i) > 0;
  }
  std::set<std::uint32_t> useful_rows;  // empty = everything useful
  mutable std::uint64_t oracle_calls = 0;
};

// A processed segment holding one `bytes`-sized tile per layout index.
Segment segment_of(std::initializer_list<std::uint64_t> tiles,
                   std::uint64_t bytes) {
  Segment seg(tiles.size() * bytes);
  for (const std::uint64_t idx : tiles) EXPECT_TRUE(seg.try_add(idx, bytes));
  return seg;
}

TEST(CachingPolicy, LruAlwaysCachesAndEvicts) {
  auto p = CachingPolicy::make(CachePolicyKind::kLru);
  StubAlgo algo;
  algo.useful_rows = {99};  // LRU ignores the oracle
  CachePool pool(50);
  const auto d = bytes(40, 0);
  pool.insert_pinned(1, pin_copy(d), d.size());
  tile::Grid grid(256, false, 4, 1);
  p->admit(pool, segment_of({2}, 40), grid, algo);
  EXPECT_EQ(pool.tile_count(), 1u);
  EXPECT_TRUE(pool.contains(2));
}

TEST(CachingPolicy, ProactiveConsultsOracle) {
  auto p = CachingPolicy::make(CachePolicyKind::kProactive);
  StubAlgo algo;
  algo.useful_rows = {2};
  tile::Grid grid(16 * 4, false, 4, 1);
  CachePool pool(100);
  p->admit(pool,
           segment_of({grid.layout_index(2, 3), grid.layout_index(1, 3)}, 10),
           grid, algo);
  EXPECT_EQ(pool.tile_count(), 1u);
  EXPECT_TRUE(pool.contains(grid.layout_index(2, 3)));
}

TEST(CachingPolicy, ProactiveAnalyzeEvictsRuledOutTiles) {
  auto p = CachingPolicy::make(CachePolicyKind::kProactive);
  StubAlgo algo;
  tile::Grid grid(16 * 8, false, 4, 1);  // p = 8, rows 0..7
  CachePool pool(1000);
  const auto d = bytes(10, 0);
  // Insert tiles from rows 0..7 (layout index of (i,0) in a p=8 full grid).
  for (std::uint32_t i = 0; i < 8; ++i)
    pool.insert_pinned(grid.layout_index(i, 0), pin_copy(d), d.size());
  algo.useful_rows = {1, 4};
  p->analyze(pool, grid, algo);
  EXPECT_EQ(pool.tile_count(), 2u);
  EXPECT_TRUE(pool.contains(grid.layout_index(1, 0)));
  EXPECT_TRUE(pool.contains(grid.layout_index(4, 0)));
}

TEST(CachingPolicy, ProactiveAdmitOnlyDropsUseless) {
  auto p = CachingPolicy::make(CachePolicyKind::kProactive);
  StubAlgo algo;
  tile::Grid grid(16 * 4, false, 4, 1);
  CachePool pool(30);
  const auto d = bytes(10, 0);
  pool.insert_pinned(grid.layout_index(0, 0), pin_copy(d), d.size());
  pool.insert_pinned(grid.layout_index(1, 0), pin_copy(d), d.size());
  pool.insert_pinned(grid.layout_index(2, 0), pin_copy(d), d.size());
  const std::uint64_t incoming = grid.layout_index(3, 0);
  algo.useful_rows = {0, 1, 2, 3};  // everything still useful
  p->admit(pool, segment_of({incoming}, 10), grid, algo);
  EXPECT_EQ(pool.tile_count(), 3u);  // nothing sacrificed, newcomer loses
  EXPECT_FALSE(pool.contains(incoming));
  algo.useful_rows = {0, 3};  // rows 1 and 2 ruled out since
  p->admit(pool, segment_of({incoming}, 10), grid, algo);
  EXPECT_EQ(pool.tile_count(), 2u);
  EXPECT_TRUE(pool.contains(grid.layout_index(0, 0)));
  EXPECT_TRUE(pool.contains(incoming));
}

// The oracle is frozen for a CACHE step, so a full pool of useful tiles is
// scanned once per step, not once per tile that does not fit.
TEST(CachingPolicy, ProactiveAdmitScansPoolOncePerStep) {
  auto p = CachingPolicy::make(CachePolicyKind::kProactive);
  StubAlgo algo;
  tile::Grid grid(16 * 8, false, 4, 1);
  CachePool pool(40);
  const auto d = bytes(10, 0);
  for (std::uint32_t i = 0; i < 4; ++i)
    pool.insert_pinned(grid.layout_index(i, 0), pin_copy(d), d.size());
  const auto seg = segment_of(
      {grid.layout_index(4, 0), grid.layout_index(5, 0),
       grid.layout_index(6, 0), grid.layout_index(7, 0)},
      10);
  p->admit(pool, seg, grid, algo);
  EXPECT_EQ(pool.tile_count(), 4u);
  EXPECT_EQ(algo.oracle_calls, 4u + 4u);  // one per slot + one pool scan
}

}  // namespace
}  // namespace gstore::store
