#include "store/round_executor.h"

#include <algorithm>
#include <utility>

#include "util/dcheck.h"
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

RoundExecutor::RoundExecutor(tile::TileStore& store, const EngineConfig& config,
                             RoundHooks hooks)
    : store_(store),
      config_(config),
      budget_(MemoryBudget::compute(config.stream_memory_bytes,
                                    config.segment_bytes)),
      hooks_(std::move(hooks)),
      pool_(budget_.pool_bytes),
      overlay_(store.overlay()),
      device_start_(store.device().stats()) {
  const std::uint64_t cap =
      std::max<std::uint64_t>(budget_.segment_bytes, store.max_tile_bytes());
  segments_[0] = Segment(cap);
  segments_[1] = Segment(cap);
  for (std::uint64_t idx = 0; idx < store.grid().tile_count(); ++idx) {
    if (store.tile_bytes(idx) != 0) ++nonempty_tiles_;
    if (store.tile_bytes(idx) != 0 || overlay_edges(idx) != 0)
      data_tiles_.push_back(idx);
  }
}

std::uint64_t RoundExecutor::overlay_edges(std::uint64_t layout_idx) const {
  return overlay_ == nullptr ? 0 : overlay_->tile_edges(layout_idx).size();
}

void RoundExecutor::process_one(std::uint64_t layout_idx,
                                const std::uint8_t* data) {
  tile::TileView views[2] = {store_.view(layout_idx, data), {}};
  std::size_t n = 1;
  // Splice the overlay's un-compacted tuples into the scan as a second view
  // of the same tile: same coordinates, same SNB bases, extra edges.
  // splice_view resets the representation to raw in-memory SNB tuples —
  // overlays exist only for SNB stores, whatever codec the base tile used.
  if (overlay_ != nullptr) {
    const std::span<const tile::SnbEdge> extra =
        overlay_->tile_edges(layout_idx);
    if (!extra.empty()) views[n++] = tile::splice_view(views[0], extra);
  }
  hooks_.process(layout_idx, std::span<const tile::TileView>(views, n));
}

// An exception cannot unwind through an OpenMP region (the runtime would
// terminate the process), and since v3 the decode inside process_one can
// throw FormatError on a corrupt payload — as can the process hook itself.
// Workers capture the first exception; the calling thread rethrows it once
// the region has joined.
void RoundExecutor::process_one_captured(std::uint64_t layout_idx,
                                         const std::uint8_t* data) noexcept {
  try {
    process_one(layout_idx, data);
  } catch (...) {
#ifdef _OPENMP
#pragma omp critical(gstore_scan_error)
#endif
    if (scan_error_ == nullptr) scan_error_ = std::current_exception();
  }
}

void RoundExecutor::rethrow_scan_error() {
  if (scan_error_ == nullptr) return;
  std::exception_ptr e = std::exchange(scan_error_, nullptr);
  std::rethrow_exception(e);
}

// Processes n tiles in parallel over cost-balanced chunks: tile k is layout
// index idx(k) with base bytes data(k) (nullptr for overlay-only tiles).
// Rethrows the first worker exception once the region has joined.
template <typename IdxFn, typename DataFn>
void RoundExecutor::scan(std::size_t n, IdxFn idx, DataFn data) {
  if (n == 0) return;
  Timer t;
  slot_costs_.clear();
  slot_costs_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) slot_costs_.push_back(hooks_.cost(idx(k)));
  cost_chunks(slot_costs_, chunks_);
  std::uint64_t edges = 0;
  std::uint64_t oedges = 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) reduction(+ : edges, oedges)
#endif
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    for (std::size_t k = chunks_[c].begin; k < chunks_[c].end; ++k) {
      process_one_captured(idx(k), data(k));
      edges += tile_edges(idx(k));
      oedges += overlay_edges(idx(k));
    }
  }
  rethrow_scan_error();
  stats_.edges_processed += edges;
  stats_.overlay_edges += oedges;
  stats_.compute_seconds += t.seconds();
}

// Greedily packs tiles from fetch_[pos..] into segment s and submits the
// reads as one batched call (coalescing contiguous tiles into single
// requests), counting them in pending_[s]. Without overlap_io the segment
// is waited for before anything else runs; either way its reads go through
// the same in-flight table, whole-tile retry budget and fail_round().
void RoundExecutor::fill_and_submit(int s, std::size_t& pos) {
  Segment& seg = segments_[s];
  if (pos >= fetch_.size()) {
    seg.clear();  // nothing will be written — pinned bytes stay untouched
    return;
  }
  // begin_fill, not clear: if the pool still pins slices of this buffer a
  // fresh one is allocated, so the cached bytes stay immutable (zero-copy
  // contract; the old buffer is freed when its last pin drops).
  seg.begin_fill();

  // An oversized first tile grows the segment (tiles are never split:
  // "we do not fetch, process or cache partial data from any tile").
  seg.ensure_capacity(store_.tile_bytes(fetch_[pos]));
  while (pos < fetch_.size() &&
         seg.try_add(fetch_[pos], store_.tile_bytes(fetch_[pos])))
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
    req.offset = store_.tile_offset(first.layout_idx);
    req.length = static_cast<std::size_t>(last.offset + last.bytes - first.offset);
    req.buffer = seg.slot_data(first);
    req.tag = make_tag(s, next_serial_++);
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

  stats_.tiles_from_disk += slots.size();
  for (const auto& slot : slots) bytes_fetched_ += slot.bytes;
  if (batch.empty()) return;
  ++stats_.io_batches;
  pending_[s] = batch.size();
  // Remember every request so a failed or truncated completion can be
  // resubmitted (or reported with its offset) from wait_segment.
  for (const auto& req : batch) inflight_.emplace(req.tag, InFlightRead{req, 0});
  // Without overlap_io the submit is I/O wait too (the kSync backend reads
  // inside it); with it, submit time stays with the caller.
  Timer t;
  store_.device().submit(std::move(batch));
  if (!config_.overlap_io) {
    stats_.io_wait_seconds += t.seconds();
    wait_segment(s);
  }
}

// Waits until all in-flight requests for segment s have completed.
//
// Failure handling (the recovery layer above the async engine's own
// per-read retries): a failed completion — or a short one, which means the
// async engine already pursued the tail to EOF and the tile file is
// genuinely truncated — is never processed as a full tile. The whole
// request is resubmitted up to config.read_retry_budget times; past the
// budget it is recorded and the round fails via fail_round().
void RoundExecutor::wait_segment(int s) {
  Timer t;
  while (pending_[s] > 0) {
    completions_scratch_.clear();
    store_.device().poll(1, 64, completions_scratch_);
    for (const io::Completion& c : completions_scratch_) handle_completion(c);
  }
  stats_.io_wait_seconds += t.seconds();
  if (!read_failures_.empty()) fail_round();
}

void RoundExecutor::handle_completion(const io::Completion& c) {
  const int seg = tag_segment(c.tag);
  GSTORE_DCHECK(seg == 0 || seg == 1);
  GSTORE_DCHECK_GT(pending_[seg], 0);
  --pending_[seg];
  const auto it = inflight_.find(c.tag);
  GSTORE_DCHECK(it != inflight_.end());
  if (it == inflight_.end()) return;
  InFlightRead& r = it->second;
  if (c.ok && c.bytes == r.req.length) {
    inflight_.erase(it);
    return;
  }
  if (r.attempts < config_.read_retry_budget) {
    ++r.attempts;
    ++stats_.tile_resubmits;
    std::vector<io::ReadRequest> one{r.req};
    store_.device().submit(std::move(one));
    ++pending_[seg];
    return;
  }
  const std::string why =
      !c.ok ? (c.message.empty() ? "read failed" : c.message)
            : ("truncated read: " + std::to_string(c.bytes) + "/" +
               std::to_string(r.req.length) + " bytes");
  read_failures_.push_back("tile read at offset " +
                           std::to_string(r.req.offset) + " (tag " +
                           std::to_string(c.tag) + "): " + why);
  inflight_.erase(it);
}

// Aborts the round with one IoError naming every tile read that exhausted
// its budget. Quiesces first: the I/O workers write into buffers this
// executor owns, so unwinding under them would be a use-after-free.
void RoundExecutor::fail_round() {
  quiesce_all();
  std::string msg = "round aborted: " + std::to_string(read_failures_.size()) +
                    " tile read(s) failed past the retry budget";
  for (const auto& f : read_failures_) msg += "; " + f;
  read_failures_.clear();
  throw IoError(msg, EIO);
}

void RoundExecutor::quiesce_all() noexcept {
  store_.device().quiesce();
  pending_[0] = pending_[1] = 0;
  inflight_.clear();
}

std::uint64_t RoundExecutor::run_round(
    const std::vector<std::uint64_t>& tiles) {
  // Plan: snapshot the pool, then split `tiles` against it — cached tiles
  // stay in cached_, tiles with base bytes go to fetch_, overlay-only tiles
  // to delta_only_. The snapshot is ascending too (the pool iterates its
  // sorted map), so one merge pass does it.
  cached_.clear();
  pool_.for_each_entry(
      [&](const CachePool::Entry& e) { cached_.push_back(e); });
  const std::size_t pooled = cached_.size();
  fetch_.clear();
  delta_only_.clear();
  std::size_t ci = 0;
  std::size_t kept = 0;
  for (const std::uint64_t idx : tiles) {
    while (ci < pooled && cached_[ci].layout_idx < idx) ++ci;
    if (ci < pooled && cached_[ci].layout_idx == idx)
      cached_[kept++] = cached_[ci];
    else if (store_.tile_bytes(idx) != 0)
      fetch_.push_back(idx);
    else if (overlay_edges(idx) != 0)
      delta_only_.push_back(idx);
  }
  cached_.resize(kept);

  std::size_t pos = 0;
  pending_[0] = pending_[1] = 0;
  try {
    fill_and_submit(0, pos);
    fill_and_submit(1, pos);
    scan(
        cached_.size(), [&](std::size_t k) { return cached_[k].layout_idx; },
        [&](std::size_t k) { return cached_[k].data; });
    for (const auto& e : cached_) pool_.touch(e.layout_idx);
    stats_.tiles_from_cache += cached_.size();
    for (int cur = 0; !segments_[cur].empty(); cur ^= 1) {
      wait_segment(cur);
      const Segment& seg = segments_[cur];
      const auto& slots = seg.slots();
      scan(
          slots.size(), [&](std::size_t k) { return slots[k].layout_idx; },
          [&](std::size_t k) { return seg.slot_data(slots[k]); });
      if (pool_.budget() > 0) hooks_.cache(pool_, seg);
      // Double-buffer state machine: the segment about to refill is
      // quiescent (its I/O reaped, its tiles processed and cached).
      GSTORE_DCHECK_EQ(pending_[cur], 0);
      fill_and_submit(cur, pos);
    }
  } catch (...) {
    quiesce_all();
    throw;
  }
  // SLIDE consumed the whole fetch list and reaped every read.
  GSTORE_DCHECK_EQ(pos, fetch_.size());
  GSTORE_DCHECK_EQ(pending_[0], 0);
  GSTORE_DCHECK_EQ(pending_[1], 0);
  scan(
      delta_only_.size(), [&](std::size_t k) { return delta_only_[k]; },
      [](std::size_t) -> const std::uint8_t* { return nullptr; });
  // Every pool entry carries base bytes, so the tiles with bytes that the
  // round neither took from the pool nor fetched were skipped.
  return nonempty_tiles_ - cached_.size() - fetch_.size();
}

EngineStats RoundExecutor::finish(double elapsed_seconds) {
  const io::DeviceStats dev = store_.device().stats() - device_start_;
  stats_.bytes_read = dev.bytes_read;
  stats_.retries = dev.retries;
  stats_.short_reads = dev.short_reads;
  stats_.failed_reads = dev.failed_reads;
  stats_.backoff_seconds = dev.backoff_seconds;
  stats_.segment_refreshes =
      segments_[0].buffer_refreshes() + segments_[1].buffer_refreshes();
  stats_.elapsed_seconds = elapsed_seconds;
  return stats_;
}

}  // namespace gstore::store
