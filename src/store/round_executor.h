// One slide–cache–rewind pass (paper §VI, Figure 8), the round loop behind
// every scheduler in the system: ScrEngine's grid iterations and priority
// rounds, and the serve gang's rounds (a gang is a round with N
// subscribers).
//
// A caller plans a round by scanning data_tiles() and hands run_round() the
// round's tiles in ascending layout order; three hooks (RoundHooks) carry
// everything caller-specific. The pass:
//   plan   — split the tiles against a snapshot of the cache pool into
//            cached, fetched and overlay-only ones. With caching off (a
//            zero pool) the pool is empty, so every tile with base bytes is
//            fetched.
//   REWIND — submit both segments' first SLIDE reads, then process the
//            cached tiles from their pinned pool bytes while the device
//            streams.
//   SLIDE  — alternate the two segments: wait for one, process it, run the
//            CACHE hook on it, refill it while the other's reads land.
//   delta  — tiles that live only in the overlay get a no-I/O pass last.
// With overlap_io off, each segment's batch is waited for as soon as it is
// submitted, so nothing overlaps, but the reads take the same path.
//
// Unwinding: no exception may escape while the async workers can still
// write into the segment buffers. Reads failing past the retry budget
// become one aggregated IoError; a hook's exception is captured on its
// OpenMP worker and rethrown once the region joins. Either way the pass
// quiesces (quiesce_all) before rethrowing, and a segment's CACHE hook runs
// only after its scan error, if any, was rethrown — a possibly-corrupt tile
// is never pinned.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/cache_pool.h"
#include "store/chunking.h"
#include "store/memory_budget.h"
#include "store/scr_engine.h"
#include "store/segment.h"
#include "tile/overlay.h"
#include "tile/tile_file.h"

namespace gstore::store {

struct RoundHooks {
  // Scan cost of one tile: the weight cost_chunks balances workers by.
  std::function<std::uint64_t(std::uint64_t layout_idx)> cost;
  // Processes one tile. `views` holds its base view and, when the overlay
  // carries edges for it, the spliced overlay view after it. Runs
  // concurrently on OpenMP workers and may throw.
  std::function<void(std::uint64_t layout_idx,
                     std::span<const tile::TileView> views)>
      process;
  // CACHE step for one processed segment: pin the slots worth keeping
  // into the pool. Runs on the calling thread; skipped for a zero pool.
  std::function<void(CachePool& pool, const Segment& seg)> cache;
};

class RoundExecutor {
 public:
  // Uses config's memory split, overlap_io and read_retry_budget. Throws if
  // the memory split is invalid (MemoryBudget::compute).
  RoundExecutor(tile::TileStore& store, const EngineConfig& config,
                RoundHooks hooks);

  // Runs one round over `tiles` (ascending layout indices from
  // data_tiles()) and reaps every read it submitted before returning.
  // Returns how many tiles with base bytes the round neither took from the
  // pool nor fetched.
  std::uint64_t run_round(const std::vector<std::uint64_t>& tiles);

  // The tiles carrying data (base bytes or overlay edges), ascending: what
  // every planner scans.
  const std::vector<std::uint64_t>& data_tiles() const noexcept {
    return data_tiles_;
  }
  // A tile's edges: stored plus overlay ones.
  std::uint64_t tile_edges(std::uint64_t layout_idx) const {
    return store_.tile_edge_count(layout_idx) + overlay_edges(layout_idx);
  }
  // The overlay's edges for a tile.
  std::uint64_t overlay_edges(std::uint64_t layout_idx) const;

  // Copies the device counters' growth since construction and the segment
  // counters into stats, stamps `elapsed_seconds` and returns the result.
  EngineStats finish(double elapsed_seconds);

  CachePool& pool() noexcept { return pool_; }
  // The executor fills the tile, edge, I/O and time counters; callers own
  // the rest (iterations, skips, per-round entries).
  EngineStats& stats() noexcept { return stats_; }
  // Base-tile bytes fetched so far.
  std::uint64_t bytes_fetched() const noexcept { return bytes_fetched_; }

 private:
  void process_one(std::uint64_t layout_idx, const std::uint8_t* data);
  void process_one_captured(std::uint64_t layout_idx,
                            const std::uint8_t* data) noexcept;
  void rethrow_scan_error();
  template <typename IdxFn, typename DataFn>
  void scan(std::size_t n, IdxFn idx, DataFn data);
  void fill_and_submit(int s, std::size_t& pos);
  void wait_segment(int s);
  void handle_completion(const io::Completion& c);
  [[noreturn]] void fail_round();
  void quiesce_all() noexcept;

  tile::TileStore& store_;
  const EngineConfig config_;
  const MemoryBudget budget_;
  RoundHooks hooks_;
  CachePool pool_;
  // The overlay is frozen for the executor's lifetime (reader/writer
  // contract in tile/overlay.h), so which tiles carry data never changes.
  const tile::TileOverlay* overlay_ = nullptr;
  std::vector<std::uint64_t> data_tiles_;
  // The device's counters when the executor was built; finish() reports the
  // growth since.
  const io::DeviceStats device_start_;
  std::uint64_t nonempty_tiles_ = 0;  // tiles with base bytes
  Segment segments_[2];
  std::size_t pending_[2] = {0, 0};
  std::uint64_t next_serial_ = 0;
  std::uint64_t bytes_fetched_ = 0;
  // Every submitted request, kept until its completion is accepted, so a
  // failed or truncated read can be resubmitted whole (tiles are never
  // processed from partial data).
  struct InFlightRead {
    io::ReadRequest req;
    int attempts = 0;
  };
  std::unordered_map<std::uint64_t, InFlightRead> inflight_;
  std::vector<std::string> read_failures_;
  std::vector<io::Completion> completions_scratch_;
  std::exception_ptr scan_error_;
  // One round's plan (cached, fetched, overlay-only) and scan scratch,
  // reused across rounds.
  std::vector<CachePool::Entry> cached_;
  std::vector<std::uint64_t> fetch_;
  std::vector<std::uint64_t> delta_only_;
  std::vector<std::uint64_t> slot_costs_;
  std::vector<Chunk> chunks_;
  EngineStats stats_;
};

}  // namespace gstore::store
