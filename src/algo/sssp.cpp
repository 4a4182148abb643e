#include "algo/sssp.h"

#include <algorithm>

#include "algo/atomics.h"
#include "util/status.h"

namespace gstore::algo {

void TileSssp::init(const tile::TileStore& store) {
  const auto& meta = store.meta();
  symmetric_ = meta.symmetric();
  in_edges_ = meta.in_edges();
  tile_bits_ = meta.tile_bits;
  GS_CHECK_MSG(root_ < store.vertex_count(), "SSSP root out of range");

  dist_.assign(store.vertex_count(), kInf);
  active_row_cur_.assign(store.grid().p(), 0);
  active_row_next_.assign(store.grid().p(), 0);
  row_pending_.assign(store.grid().p(), kInf);
  dist_[root_] = 0.0f;
  active_row_cur_[root_ >> tile_bits_] = 1;
  row_pending_[root_ >> tile_bits_] = 0.0f;
  relaxed_ = 0;
}

void TileSssp::begin_iteration(std::uint32_t) { relaxed_ = 0; }

void TileSssp::relax(graph::vid_t to, float cand) {
  if (atomic_min(&dist_[to], cand)) {
    atomic_set_flag(&active_row_next_[to >> tile_bits_]);
    atomic_min(&row_pending_[to >> tile_bits_], cand);
    std::atomic_ref<std::uint64_t>(relaxed_).fetch_add(
        1, std::memory_order_relaxed);
  }
}

void TileSssp::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TileSssp::process_block(const tile::EdgeBlock& block) {
  const graph::vid_t* from = in_edges_ ? block.dst : block.src;
  const graph::vid_t* to = in_edges_ ? block.src : block.dst;
  block.prefetch_src(dist_.data());
  block.prefetch_dst(dist_.data());
  for (std::uint32_t k = 0; k < block.size; ++k) {
    const float w = edge_weight(block.src[k], block.dst[k]);
    const float df = atomic_load(&dist_[from[k]]);
    if (df != kInf) relax(to[k], df + w);
    if (symmetric_) {
      const float dt = atomic_load(&dist_[to[k]]);
      if (dt != kInf) relax(from[k], dt + w);
    }
  }
}

bool TileSssp::end_iteration(std::uint32_t) {
  active_row_cur_.swap(active_row_next_);
  std::fill(active_row_next_.begin(), active_row_next_.end(), 0);
  return relaxed_ > 0;
}

bool TileSssp::tile_needed(std::uint32_t i, std::uint32_t j) const {
  if (active_row_cur_[in_edges_ ? j : i]) return true;
  return symmetric_ && active_row_cur_[j];
}

bool TileSssp::tile_useful_next(std::uint32_t i, std::uint32_t j) const {
  if (active_row_next_[in_edges_ ? j : i]) return true;
  return symmetric_ && active_row_next_[j];
}

// ---- delta-stepping (priority mode) ---------------------------------------

std::uint32_t TileSssp::bucket_of(float d) const {
  if (d == kInf) return kPriorityIdle;
  // The worklist clamps anything at or above its overflow bucket, so the
  // only care here is not overflowing the uint32 conversion itself.
  const float b = d / delta_;
  if (b >= 1e9f) return kPriorityIdle - 1;
  return static_cast<std::uint32_t>(b);
}

std::uint32_t TileSssp::tile_priority(std::uint32_t i, std::uint32_t j) const {
  // Same rows the tile_needed oracle consults: a tile can relax only from a
  // row holding pending (un-drained) candidate distances.
  std::uint32_t p = bucket_of(row_pending_[in_edges_ ? j : i]);
  if (symmetric_) p = std::min(p, bucket_of(row_pending_[j]));
  return p;
}

void TileSssp::begin_round(std::uint32_t, std::uint32_t bucket) {
  relaxed_ = 0;
  drained_rows_.clear();
  // Drain every row whose pending bucket this round covers. Clearing the
  // pending mark *before* processing lets in-round relaxations re-arm the
  // row for a later round (the delta-stepping re-entry rule).
  for (std::uint32_t r = 0; r < row_pending_.size(); ++r) {
    if (row_pending_[r] == kInf) continue;
    if (bucket_of(row_pending_[r]) > bucket) continue;
    row_pending_[r] = kInf;
    drained_rows_.push_back(r);
  }
}

bool TileSssp::end_round(std::uint32_t, std::uint32_t) {
  // Rows drained this round and rows that took a relaxation both change
  // tile priorities; everything else is untouched.
  dirty_rows_ = drained_rows_;
  bool any_pending = false;
  for (std::uint32_t r = 0; r < row_pending_.size(); ++r) {
    if (active_row_next_[r]) dirty_rows_.push_back(r);
    // Keep the grid-mode oracles coherent for the caching policy: a row is
    // "active" exactly while it holds pending work.
    active_row_cur_[r] = row_pending_[r] != kInf ? 1 : 0;
    any_pending |= active_row_cur_[r] != 0;
  }
  std::fill(active_row_next_.begin(), active_row_next_.end(), 0);
  return relaxed_ > 0 || any_pending;
}

bool TileSssp::dirty_rows(std::vector<std::uint32_t>& out) const {
  out.insert(out.end(), dirty_rows_.begin(), dirty_rows_.end());
  return true;
}

bool TileSssp::reactivate(const tile::TileStore& store,
                          std::span<const std::uint64_t> delta_tiles) {
  // Requires the converged state of a prior run over this store; relaxation
  // is monotone under edge insertion, so resuming from old distances and
  // re-arming only the delta-touched rows reaches the same fixpoint a cold
  // rerun would.
  if (dist_.size() != store.vertex_count()) return false;
  const tile::Grid& grid = store.grid();
  relaxed_ = 0;
  drained_rows_.clear();
  dirty_rows_.clear();
  std::fill(active_row_next_.begin(), active_row_next_.end(), 0);
  std::vector<std::uint8_t> armed(grid.p(), 0);
  auto arm_row = [&](std::uint32_t r) {
    if (armed[r]) return;
    armed[r] = 1;
    // The row's pending value is the minimum distance it could propagate
    // from: processing its tiles relaxes across every edge (old and new
    // overlay ones alike), so any finite source distance re-enters the
    // wave at its own bucket. An all-infinite row cannot relax anything —
    // the delta connects only unreached vertices there — and stays idle.
    const graph::vid_t lo = static_cast<graph::vid_t>(r) << tile_bits_;
    const graph::vid_t hi = static_cast<graph::vid_t>(
        std::min<std::uint64_t>(dist_.size(),
                                (static_cast<std::uint64_t>(r) + 1)
                                    << tile_bits_));
    float best = kInf;
    for (graph::vid_t v = lo; v < hi; ++v) best = std::min(best, dist_[v]);
    row_pending_[r] = best;
    if (best != kInf) active_row_cur_[r] = 1;
  };
  for (const std::uint64_t idx : delta_tiles) {
    const tile::TileCoord c = grid.coord_at(idx);
    arm_row(c.i);
    arm_row(c.j);
  }
  return true;
}

}  // namespace gstore::algo
