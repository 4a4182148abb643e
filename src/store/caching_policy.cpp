#include "store/caching_policy.h"

#include <cstdint>
#include <vector>

namespace gstore::store {

namespace {

class LruPolicy final : public CachingPolicy {
 public:
  // Caches everything; recency decides evictions, one tile at a time.
  void admit(CachePool& pool, const Segment& seg, const tile::Grid&,
             const TileAlgorithm&) override {
    for (const TileSlot& slot : seg.slots()) {
      if (slot.bytes > pool.free_bytes()) pool.evict_lru(slot.bytes);
      pool.insert_pinned(slot.layout_idx, seg.pin_slot(slot), slot.bytes);
    }
  }
  void analyze(CachePool&, const tile::Grid&, const TileAlgorithm&) override {}
};

class ProactivePolicy final : public CachingPolicy {
 public:
  void admit(CachePool& pool, const Segment& seg, const tile::Grid& grid,
             const TileAlgorithm& algo) override {
    // Only tiles the oracle calls useful next iteration are cached. When one
    // does not fit, first drop pool entries the oracle has since ruled out;
    // if that is not enough the new tile loses (we never evict useful data
    // for equally-useful data — disk order means the incumbent would be
    // needed sooner next iteration anyway, thanks to rewind). The oracle is
    // frozen for the whole step, so after one scan every entry, incumbent or
    // admitted here, is useful and a second scan could drop nothing: the
    // pool is scanned lazily, at most once per step.
    bool scanned = false;
    for (const TileSlot& slot : seg.slots()) {
      const tile::TileCoord c = grid.coord_at(slot.layout_idx);
      if (!algo.tile_useful_next(c.i, c.j)) continue;
      if (slot.bytes > pool.free_bytes() && !scanned) {
        analyze(pool, grid, algo);
        scanned = true;
      }
      pool.insert_pinned(slot.layout_idx, seg.pin_slot(slot), slot.bytes);
    }
  }

  void analyze(CachePool& pool, const tile::Grid& grid,
               const TileAlgorithm& algo) override {
    // Two passes because for_each_entry holds the pool lock: collect the
    // ruled-out tiles first, then drop them.
    std::vector<std::uint64_t> victims;
    pool.for_each_entry([&](const CachePool::Entry& e) {
      const tile::TileCoord c = grid.coord_at(e.layout_idx);
      if (!algo.tile_useful_next(c.i, c.j)) victims.push_back(e.layout_idx);
    });
    for (const std::uint64_t idx : victims) pool.erase(idx);
  }
};

}  // namespace

std::unique_ptr<CachingPolicy> CachingPolicy::make(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kProactive: return std::make_unique<ProactivePolicy>();
    case CachePolicyKind::kLru: return std::make_unique<LruPolicy>();
  }
  return std::make_unique<ProactivePolicy>();
}

}  // namespace gstore::store
