#include "store/scr_engine.h"

#include <algorithm>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/cache_pool.h"
#include "store/chunking.h"
#include "store/segment.h"
#include "store/worklist.h"
#include "tile/overlay.h"
#include "util/dcheck.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gstore::store {

namespace {
// Tags encode which segment a read belongs to so completions can be
// attributed while both segments have I/O in flight.
constexpr std::uint64_t make_tag(int segment, std::uint64_t serial) {
  GSTORE_DCHECK(segment == 0 || segment == 1);
  GSTORE_DCHECK_LT(serial, 1ull << 56);
  return (static_cast<std::uint64_t>(segment) << 56) | serial;
}
constexpr int tag_segment(std::uint64_t tag) {
  return static_cast<int>(tag >> 56);
}
}  // namespace

struct ScrEngine::Runner {
  Runner(tile::TileStore& store, const EngineConfig& config,
         const MemoryBudget& budget, TileAlgorithm& algo)
      : store(store),
        grid(store.grid()),
        config(config),
        algo(algo),
        pool(budget.pool_bytes),
        policy(CachingPolicy::make(config.policy)),
        overlay(store.overlay()) {
    const std::uint64_t cap =
        std::max<std::uint64_t>(budget.segment_bytes, store.max_tile_bytes());
    segments[0] = Segment(cap);
    segments[1] = Segment(cap);
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx)
      if (store.tile_bytes(idx) != 0) ++nonempty_tiles;
  }

  // ---- helpers -----------------------------------------------------------

  bool needed_now(std::uint64_t layout_idx) const {
    if (!config.selective_fetch) return true;
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

  void process_one(std::uint64_t layout_idx, const std::uint8_t* data) {
    const tile::TileView v = store.view(layout_idx, data);
    algo.process_tile(v);
    if (overlay == nullptr) return;
    // Splice the overlay's un-compacted tuples into the scan as a second
    // view of the same tile: same coordinates, same SNB bases, extra edges.
    const std::span<const tile::SnbEdge> extra = overlay->tile_edges(layout_idx);
    if (extra.empty()) return;
    // splice_view resets the representation to raw in-memory SNB tuples —
    // overlays exist only for SNB stores, whatever codec the base tile used.
    algo.process_tile(tile::splice_view(v, extra));
  }

  // An exception cannot unwind through an OpenMP region (the runtime would
  // terminate the process), and since v3 the decode inside process_one can
  // throw FormatError on a corrupt payload — as can the algorithm itself.
  // Workers capture the first exception here; the orchestrating thread
  // rethrows after the region joins (the delta pass has no I/O in flight;
  // REWIND and SLIDE sit inside the quiesce-before-throw frame in
  // run_pass).
  std::exception_ptr scan_error;

  void process_one_captured(std::uint64_t layout_idx,
                            const std::uint8_t* data) noexcept {
    try {
      process_one(layout_idx, data);
    } catch (...) {
#ifdef _OPENMP
#pragma omp critical(gstore_scr_scan_error)
#endif
      if (scan_error == nullptr) scan_error = std::current_exception();
    }
  }

  void rethrow_scan_error() {
    if (scan_error == nullptr) return;
    std::exception_ptr e = std::exchange(scan_error, nullptr);
    std::rethrow_exception(e);
  }

  // Greedily packs tiles from fetch[pos..] into `seg` and submits the reads
  // as one batched call (coalescing contiguous tiles into single requests).
  // Returns the number of read requests in flight for this segment.
  std::size_t fill_and_submit(int s, const std::vector<std::uint64_t>& fetch,
                              std::size_t& pos) {
    Segment& seg = segments[s];
    if (pos >= fetch.size()) {
      seg.clear();  // nothing will be written — pinned bytes stay untouched
      return 0;
    }
    // begin_fill, not clear: if the pool still pins slices of this buffer a
    // fresh one is allocated, so the cached bytes stay immutable (zero-copy
    // contract; the old buffer is freed when its last pin drops).
    seg.begin_fill();

    // An oversized first tile grows the segment (tiles are never split:
    // "we do not fetch, process or cache partial data from any tile").
    seg.ensure_capacity(store.tile_bytes(fetch[pos]));
    while (pos < fetch.size() &&
           seg.try_add(fetch[pos], store.tile_bytes(fetch[pos])))
      ++pos;

    // Coalesce runs of layout-consecutive tiles: their bytes are contiguous
    // in the file and in the segment buffer by construction.
    std::vector<io::ReadRequest> batch;
    const auto& slots = seg.slots();
    std::size_t run_begin = 0;
    auto flush_run = [&](std::size_t run_end) {
      const TileSlot& first = slots[run_begin];
      const TileSlot& last = slots[run_end - 1];
      io::ReadRequest req;
      req.offset = store.tile_offset(first.layout_idx);
      req.length = static_cast<std::size_t>(last.offset + last.bytes - first.offset);
      req.buffer = seg.slot_data(first);
      req.tag = make_tag(s, next_serial++);
      batch.push_back(req);
      run_begin = run_end;
    };
    for (std::size_t k = 1; k < slots.size(); ++k) {
      // Segment packing invariant: slot bytes are laid out back-to-back, so
      // a layout-consecutive run is contiguous in buffer and file alike.
      GSTORE_DCHECK_EQ(slots[k].offset, slots[k - 1].offset + slots[k - 1].bytes);
      if (slots[k].layout_idx != slots[k - 1].layout_idx + 1) flush_run(k);
    }
    if (!slots.empty()) flush_run(slots.size());

    stats.tiles_from_disk += slots.size();
    for (const auto& slot : slots) bytes_fetched_total += slot.bytes;
    for (auto& req : batch) req.priority = fetch_priority;
    if (batch.empty()) return 0;
    ++stats.io_batches;
    if (config.overlap_io) {
      const std::size_t n_requests = batch.size();
      // Remember every request so a failed or truncated completion can be
      // resubmitted (or reported with its offset) from wait_segment.
      for (const auto& req : batch)
        inflight.emplace(req.tag, InFlightRead{req, 0});
      store.device().submit(std::move(batch));
      return n_requests;
    }
    // Synchronous mode: read inline.
    Timer t;
    for (const auto& req : batch)
      store.device().read(req.buffer, req.length, req.offset);
    stats.io_wait_seconds += t.seconds();
    return 0;
  }

  // Waits until all in-flight requests for segment s have completed.
  //
  // Failure handling (the recovery layer above the async engine's own
  // per-read retries): a failed completion — or a short one, which means
  // the async engine already pursued the tail to EOF and the tile file is
  // genuinely truncated — is never processed as a full tile. The whole
  // request is resubmitted up to config.read_retry_budget times; past the
  // budget it is recorded and the iteration fails via fail_iteration(),
  // which drains *both* segments' in-flight reads before the exception
  // escapes (the I/O workers write into buffers this Runner owns, so
  // unwinding under them would be a use-after-free).
  void wait_segment(int s) {
    Timer t;
    while (pending[s] > 0) {
      completions_scratch.clear();
      store.device().poll(1, 64, completions_scratch);
      for (const io::Completion& c : completions_scratch)
        handle_completion(c);
    }
    stats.io_wait_seconds += t.seconds();
    if (!read_failures.empty()) fail_iteration();
  }

  void handle_completion(const io::Completion& c) {
    const int seg = tag_segment(c.tag);
    GSTORE_DCHECK(seg == 0 || seg == 1);
    GSTORE_DCHECK_GT(pending[seg], 0);
    --pending[seg];
    const auto it = inflight.find(c.tag);
    GSTORE_DCHECK(it != inflight.end());
    if (it == inflight.end()) return;  // untracked (sync-mode leftovers)
    InFlightRead& r = it->second;
    if (c.ok && c.bytes == r.req.length) {
      inflight.erase(it);
      return;
    }
    if (r.attempts < config.read_retry_budget) {
      ++r.attempts;
      ++stats.tile_resubmits;
      std::vector<io::ReadRequest> one{r.req};
      store.device().submit(std::move(one));
      ++pending[seg];
      return;
    }
    const std::string why =
        !c.ok ? (c.message.empty() ? "read failed" : c.message)
              : ("truncated read: " + std::to_string(c.bytes) + "/" +
                 std::to_string(r.req.length) + " bytes");
    read_failures.push_back("tile read at offset " +
                            std::to_string(r.req.offset) + " (tag " +
                            std::to_string(c.tag) + "): " + why);
    inflight.erase(it);
  }

  // Aborts the iteration with one IoError naming every tile read that
  // exhausted its budget. Quiesces first: no exception may escape while
  // the async workers can still write into the segment buffers.
  [[noreturn]] void fail_iteration() {
    quiesce_all();
    std::string msg = "iteration aborted: " +
                      std::to_string(read_failures.size()) +
                      " tile read(s) failed past the retry budget";
    for (const auto& f : read_failures) msg += "; " + f;
    read_failures.clear();
    throw IoError(msg, EIO);
  }

  // Unwind-path barrier: waits out every in-flight read for both segments
  // without throwing, then resets the double-buffer bookkeeping.
  void quiesce_all() noexcept {
    store.device().quiesce();
    pending[0] = pending[1] = 0;
    inflight.clear();
  }

  // Processes n tiles in parallel over cost-balanced chunks: tile k is
  // layout index idx(k) with base bytes data(k) (nullptr for overlay-only
  // tiles). Rethrows the first worker exception once the region has joined.
  template <typename IdxFn, typename DataFn>
  void scan(std::size_t n, IdxFn idx, DataFn data) {
    if (n == 0) return;
    Timer t;
    slot_costs.clear();
    slot_costs.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
      slot_costs.push_back(store.tile_edge_count(idx(k)) +
                           overlay_count(idx(k)));
    cost_chunks(slot_costs, chunks);
    std::uint64_t edges = 0;
    std::uint64_t oedges = 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) reduction(+ : edges, oedges)
#endif
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      for (std::size_t k = chunks[c].begin; k < chunks[c].end; ++k) {
        process_one_captured(idx(k), data(k));
        edges += slot_costs[k];
        oedges += overlay_count(idx(k));
      }
    }
    rethrow_scan_error();
    stats.edges_processed += edges;
    stats.overlay_edges += oedges;
    stats.compute_seconds += t.seconds();
  }

  // Processes every tile resident in segment s, then runs the CACHE step of
  // slide-cache-rewind: the policy pins the tiles worth keeping into the
  // pool (refcounted slices of the segment buffer, no copy). A scan error
  // has been rethrown by then, so possibly-corrupt tiles are never pinned.
  void process_segment(int s) {
    const Segment& seg = segments[s];
    const auto& slots = seg.slots();
    scan(
        slots.size(), [&](std::size_t k) { return slots[k].layout_idx; },
        [&](std::size_t k) { return seg.slot_data(slots[k]); });
    if (pool.budget() > 0) policy->admit(pool, seg, grid, algo);
  }

  // ---- one round: REWIND, SLIDE + CACHE, delta pass ------------------------

  bool has_data(std::uint64_t layout_idx) const {
    return store.tile_bytes(layout_idx) != 0 || overlay_count(layout_idx) != 0;
  }

  // Snapshots the pool into rewind_entries (layout order) and returns how
  // many tiles it holds. The base policy (rewind off) keeps nothing across
  // rounds.
  std::size_t snapshot_pool() {
    rewind_entries.clear();
    if (!config.rewind) {
      pool.clear();
      return 0;
    }
    pool.for_each_entry(
        [&](const CachePool::Entry& e) { rewind_entries.push_back(e); });
    return rewind_entries.size();
  }

  // Splits `tiles` (ascending layout indices) against the pool snapshot:
  // cached tiles stay in rewind_entries, tiles with base bytes go to
  // round_fetch, overlay-only tiles to round_delta_only. The snapshot is
  // ascending too (the pool iterates its sorted map), so one merge pass
  // does it.
  void split_round(const std::vector<std::uint64_t>& tiles) {
    round_fetch.clear();
    round_delta_only.clear();
    std::size_t ci = 0;
    std::size_t kept = 0;
    for (const std::uint64_t idx : tiles) {
      while (ci < rewind_entries.size() && rewind_entries[ci].layout_idx < idx)
        ++ci;
      if (ci < rewind_entries.size() && rewind_entries[ci].layout_idx == idx)
        rewind_entries[kept++] = rewind_entries[ci];
      else if (store.tile_bytes(idx) != 0)
        round_fetch.push_back(idx);
      else if (overlay_count(idx) != 0)
        round_delta_only.push_back(idx);
    }
    rewind_entries.resize(kept);
  }

  // Runs one round's tiles. Both segments' reads are submitted first, so the
  // device streams while REWIND processes the cached tiles from their pinned
  // pool bytes (paper §VI-D). SLIDE then alternates the segments: wait for
  // one, process and CACHE it, refill it while the other one's reads land.
  // Overlay tiles with no base bytes are invisible to SLIDE (and never enter
  // the cache), so they get a no-I/O pass last. Any exception — an I/O
  // failure past the retry budget, or one thrown by the algorithm — must not
  // unwind past this frame while reads are in flight into the segment
  // buffers, so REWIND and SLIDE quiesce before propagating.
  void run_pass(const std::vector<CachePool::Entry>& cached,
                const std::vector<std::uint64_t>& fetch,
                const std::vector<std::uint64_t>& delta_only) {
    std::size_t pos = 0;
    pending[0] = pending[1] = 0;
    try {
      pending[0] = fill_and_submit(0, fetch, pos);
      pending[1] = fill_and_submit(1, fetch, pos);
      scan(
          cached.size(), [&](std::size_t k) { return cached[k].layout_idx; },
          [&](std::size_t k) { return cached[k].data; });
      for (const auto& e : cached) pool.touch(e.layout_idx);
      stats.tiles_from_cache += cached.size();
      for (int cur = 0; !segments[cur].empty(); cur ^= 1) {
        wait_segment(cur);
        process_segment(cur);
        // Double-buffer state machine: the segment about to refill is
        // quiescent (its I/O reaped, its tiles processed and cached).
        GSTORE_DCHECK_EQ(pending[cur], 0);
        pending[cur] = fill_and_submit(cur, fetch, pos);
      }
    } catch (...) {
      quiesce_all();
      throw;
    }
    // SLIDE consumed the whole fetch list and reaped every read.
    GSTORE_DCHECK_EQ(pos, fetch.size());
    GSTORE_DCHECK_EQ(pending[0], 0);
    GSTORE_DCHECK_EQ(pending[1], 0);
    scan(
        delta_only.size(), [&](std::size_t k) { return delta_only[k]; },
        [](std::size_t) -> const std::uint8_t* { return nullptr; });
  }

  IterationStats counters() const {
    return IterationStats{stats.tiles_from_disk, stats.tiles_from_cache,
                          stats.tiles_skipped, stats.edges_processed,
                          bytes_fetched_total};
  }

  // Books a finished round: its fetched bytes count as wasted when it made
  // no updates (last_round_updates() holds the round's count until the next
  // begin hook resets it), and it gets its per_iteration entry.
  void record_round(const IterationStats& before, std::uint32_t bucket,
                    double seconds) {
    const std::uint64_t fetched = bytes_fetched_total - before.bytes_fetched;
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
    // first tile is processed. Every pool entry carries base bytes, so the
    // tiles with bytes that are neither cached nor fetched were skipped.
    const std::size_t pooled = snapshot_pool();
    needed_tiles(round_tiles);
    split_round(round_tiles);
    stats.tiles_skipped += nonempty_tiles - pooled - round_fetch.size();
    run_pass(rewind_entries, round_fetch, round_delta_only);
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

  // Registers every tile carrying data (base bytes or overlay edges) under
  // both of its tile rows, so a dirty row maps back to the tiles whose
  // priority it can change. Both rows, not just the algorithm's source row:
  // tile_priority(i,j) may consult either range (symmetric stores do), and
  // over-approximating costs one oracle call per refresh, never correctness.
  void build_row_tiles() {
    row_tiles.assign(grid.p(), {});
    row_mark.assign(grid.p(), 0);
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      if (!has_data(idx)) continue;
      const tile::TileCoord c = grid.coord_at(idx);
      row_tiles[c.i].push_back(idx);
      if (c.j != c.i) row_tiles[c.j].push_back(idx);
    }
  }

  // Re-files one tile under its current oracle priority (kPriorityIdle
  // unfiles it).
  void refresh_tile(std::uint64_t layout_idx) {
    worklist.push(layout_idx, priority_of(layout_idx));
  }

  void seed_worklist_full() {
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      if (!has_data(idx)) continue;
      refresh_tile(idx);
    }
  }

  // Re-evaluates only the tiles touching `rows` (deduplicated via row_mark).
  void refresh_rows(const std::vector<std::uint32_t>& rows) {
    for (const std::uint32_t r : rows) {
      GSTORE_DCHECK_LT(r, row_tiles.size());
      if (r >= row_tiles.size() || row_mark[r]) continue;
      row_mark[r] = 1;
      for (const std::uint64_t idx : row_tiles[r]) refresh_tile(idx);
    }
    for (const std::uint32_t r : rows)
      if (r < row_mark.size()) row_mark[r] = 0;
  }

  // One worklist round: drain the minimum bucket, then one pass over its
  // tiles — cached ones processed in place (the REWIND idea applied per
  // round), the rest streamed at the bucket's fetch priority. Returns
  // end_round()'s verdict.
  bool run_round(std::uint32_t round) {
    const Timer round_timer;
    const IterationStats before = counters();
    const std::uint32_t bucket = worklist.drain_min(round_tiles);
    GSTORE_DCHECK(bucket != TileWorklist::kIdle);
    algo.begin_round(round, bucket);
    stats.max_bucket = std::max(stats.max_bucket, bucket);
    fetch_priority = bucket;

    snapshot_pool();
    split_round(round_tiles);  // drain_min sorts
    run_pass(rewind_entries, round_fetch, round_delta_only);

    // Round-boundary cache analysis, before end_round for the same reason
    // the grid path runs it before end_iteration (tile_useful_next refers
    // to upcoming work; end_round promotes next-state metadata).
    if (pool.budget() > 0) policy->analyze(pool, grid, algo);

    const bool more = algo.end_round(round, bucket);
    // Priority mode has no grid scan, hence nothing is ever "skipped".
    record_round(before, bucket, round_timer.seconds());
    ++stats.rounds;

    // Re-file tiles whose priority inputs the round changed. An algorithm
    // that cannot name its dirty rows gets a full oracle sweep (the same
    // per-iteration cost the grid scan pays).
    dirty_rows_scratch.clear();
    if (algo.dirty_rows(dirty_rows_scratch))
      refresh_rows(dirty_rows_scratch);
    else
      seed_worklist_full();
    return more;
  }

  // Drives worklist rounds to completion. `cold` runs algo.init first; a
  // non-empty `seed_tiles` (incremental resume) seeds the worklist from the
  // rows those tiles touch instead of a full grid sweep.
  EngineStats run_priority(bool cold,
                           std::span<const std::uint64_t> seed_tiles) {
    Timer total;
    if (cold) algo.init(store);
    store.device().reset_stats();
    build_row_tiles();
    worklist.reset(grid.tile_count());
    if (seed_tiles.empty()) {
      seed_worklist_full();
    } else {
      std::vector<std::uint32_t> rows;
      rows.reserve(seed_tiles.size() * 2);
      for (const std::uint64_t idx : seed_tiles) {
        const tile::TileCoord c = grid.coord_at(idx);
        rows.push_back(c.i);
        if (c.j != c.i) rows.push_back(c.j);
      }
      refresh_rows(rows);
    }
    bool more = true;
    std::uint32_t round = 0;
    while (more && !worklist.empty() && round < config.max_iterations) {
      more = run_round(round);
      ++round;
    }
    GS_CHECK_MSG(!more || worklist.empty(),
                 "algorithm did not converge within max_iterations");
    stats.iterations = round;
    return finish(total);
  }

  EngineStats run() {
    if (config.schedule == ScheduleMode::kPriority)
      return run_priority(/*cold=*/true, {});
    Timer total;
    algo.init(store);
    store.device().reset_stats();
    bool more = true;
    std::uint32_t iter = 0;
    while (more && iter < config.max_iterations) {
      more = run_iteration(iter);
      ++iter;
    }
    GS_CHECK_MSG(!more, "algorithm did not converge within max_iterations");
    stats.iterations = iter;
    return finish(total);
  }

  EngineStats finish(Timer& total) {
    const io::DeviceStats dev = store.device().stats();
    stats.bytes_read = dev.bytes_read;
    stats.retries = dev.retries;
    stats.short_reads = dev.short_reads;
    stats.failed_reads = dev.failed_reads;
    stats.backoff_seconds = dev.backoff_seconds;
    stats.bytes_copied_to_pool = pool.bytes_copied();
    stats.segment_refreshes =
        segments[0].buffer_refreshes() + segments[1].buffer_refreshes();
    stats.elapsed_seconds = total.seconds();
    return stats;
  }

  tile::TileStore& store;
  const tile::Grid& grid;
  const EngineConfig& config;
  TileAlgorithm& algo;
  CachePool pool;
  std::unique_ptr<CachingPolicy> policy;
  // The overlay is frozen for the duration of a run (reader/writer contract
  // in tile/overlay.h), so which tiles carry data never changes mid-run.
  const tile::TileOverlay* overlay = nullptr;
  std::uint64_t nonempty_tiles = 0;  // tiles with base bytes
  Segment segments[2];
  std::size_t pending[2] = {0, 0};
  std::uint64_t next_serial = 0;
  // Every submitted request, kept until its completion is accepted, so a
  // failed or truncated read can be resubmitted whole (tiles are never
  // processed from partial data).
  struct InFlightRead {
    io::ReadRequest req;
    int attempts = 0;
  };
  std::unordered_map<std::uint64_t, InFlightRead> inflight;
  std::vector<std::string> read_failures;
  std::vector<io::Completion> completions_scratch;
  // Reused per-phase scratch (cleared before each use; never allocated on
  // the per-iteration hot path after warm-up).
  std::vector<std::uint64_t> slot_costs;
  std::vector<Chunk> chunks;
  // One round's plan: its tiles, split into cached, fetched and
  // overlay-only ones.
  std::vector<std::uint64_t> round_tiles;
  std::vector<CachePool::Entry> rewind_entries;
  std::vector<std::uint64_t> round_fetch;
  std::vector<std::uint64_t> round_delta_only;
  // Priority-mode state: the bucketed worklist, the row→tiles adjacency it
  // is refreshed through, and per-round scratch.
  TileWorklist worklist;
  std::vector<std::vector<std::uint64_t>> row_tiles;
  std::vector<std::uint8_t> row_mark;
  std::vector<std::uint32_t> dirty_rows_scratch;
  // Priority stamped onto this round's ReadRequests (the async engine
  // serves lower values first when requests from several rounds or engines
  // share a queue). Grid mode leaves it 0.
  std::uint32_t fetch_priority = 0;
  std::uint64_t bytes_fetched_total = 0;
  EngineStats stats;
};

ScrEngine::ScrEngine(tile::TileStore& store, EngineConfig config)
    : store_(store),
      config_(config),
      budget_(MemoryBudget::compute(config.stream_memory_bytes,
                                    config.segment_bytes)) {}

EngineStats ScrEngine::run(TileAlgorithm& algo) {
  Runner runner(store_, config_, budget_, algo);
  EngineStats s = runner.run();
  GS_LOG(Info) << algo.name() << ": " << s.iterations << " iterations, "
               << s.edges_processed << " edges processed, "
               << s.bytes_read / (1 << 20) << " MiB read, "
               << s.tiles_from_cache << " tiles from cache";
  return s;
}

EngineStats ScrEngine::resume(TileAlgorithm& algo,
                              std::span<const std::uint64_t> delta_tiles) {
  Runner runner(store_, config_, budget_, algo);
  if (delta_tiles.empty() || !algo.reactivate(store_, delta_tiles)) {
    // No prior state to resume from (or nothing to resume onto): the cold
    // run is the correct — and only — answer.
    GS_LOG(Info) << algo.name()
                 << ": reactivate declined, falling back to a cold run";
    return runner.run();
  }
  EngineStats s = runner.run_priority(/*cold=*/false, delta_tiles);
  GS_LOG(Info) << algo.name() << ": incremental resume over "
               << delta_tiles.size() << " delta tiles, " << s.rounds
               << " rounds, " << s.bytes_read / (1 << 20) << " MiB read";
  return s;
}

}  // namespace gstore::store
