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
  GS_CHECK_MSG(root_ < store.vertex_count(), name() + " root out of range");

  dist_.assign(store.vertex_count(), kInf);
  active_row_cur_.assign(store.grid().p(), 0);
  active_row_next_.assign(store.grid().p(), 0);
  row_pending_.assign(store.grid().p(), kInf);
  dist_[root_] = 0.0f;
  active_row_cur_[root_ >> tile_bits_] = 1;
  row_pending_[root_ >> tile_bits_] = 0.0f;
  relaxed_ = 0;
}

void TileSssp::process_tile(const tile::TileView& view) {
  if (unit_weight_)
    tile::for_each_block(
        view, [this](const tile::EdgeBlock& b) { process_block<true>(b); });
  else
    tile::for_each_block(
        view, [this](const tile::EdgeBlock& b) { process_block<false>(b); });
}

template <bool kUnitWeight>
void TileSssp::process_block(const tile::EdgeBlock& block) {
  const graph::vid_t* from = in_edges_ ? block.dst : block.src;
  const graph::vid_t* to = in_edges_ ? block.src : block.dst;
  const tile::TileCoord rows = block_rows(block, tile_bits_);
  const std::uint32_t from_row = in_edges_ ? rows.j : rows.i;
  const std::uint32_t to_row = in_edges_ ? rows.i : rows.j;
  float* dist = dist_.data();
  block.prefetch_src(dist);
  block.prefetch_dst(dist);
  const bool both_ways = symmetric_;
  // Relaxations, and each side's smallest successful candidate (kInf: none),
  // published once when the block ends.
  std::uint32_t relaxed = 0;
  float to_best = kInf;
  float from_best = kInf;
  for (std::uint32_t k = 0; k < block.size; ++k) {
    const float w =
        kUnitWeight ? 1.0f : edge_weight(block.src[k], block.dst[k]);
    const float df = atomic_load(&dist[from[k]]);
    if (df != kInf && atomic_min(&dist[to[k]], df + w)) {
      ++relaxed;
      to_best = std::min(to_best, df + w);
    }
    if (both_ways) {
      const float dt = atomic_load(&dist[to[k]]);
      if (dt != kInf && atomic_min(&dist[from[k]], dt + w)) {
        ++relaxed;
        from_best = std::min(from_best, dt + w);
      }
    }
  }
  if (relaxed == 0) return;
  atomic_fetch_add(&relaxed_, std::uint64_t{relaxed});
  publish(to_row, to_best);
  publish(from_row, from_best);
}

void TileSssp::publish(std::uint32_t row, float best) {
  if (best == kInf) return;
  mark_row(&active_row_next_[row]);
  atomic_min(&row_pending_[row], best);
}

bool TileSssp::tile_needed(std::uint32_t i, std::uint32_t j) const {
  if (active_row_cur_[in_edges_ ? j : i]) return true;
  return symmetric_ && active_row_cur_[j];
}

bool TileSssp::tile_useful_next(std::uint32_t i, std::uint32_t j) const {
  if (active_row_next_[in_edges_ ? j : i]) return true;
  return symmetric_ && active_row_next_[j];
}

// ---- the round's buckets ----------------------------------------------------

std::uint32_t TileSssp::bucket_of(float d) const {
  if (d == kInf) return kPriorityIdle;
  // Buckets at or above kMaxBucket share the overflow bucket, so the only
  // care here is not overflowing the uint32 conversion itself.
  const float b = d / delta_;
  if (b >= static_cast<float>(kMaxBucket)) return kMaxBucket;
  return static_cast<std::uint32_t>(b);
}

std::uint32_t TileSssp::tile_priority(std::uint32_t i, std::uint32_t j) const {
  // Same rows the tile_needed oracle consults: a tile can relax only from a
  // row holding pending (un-drained) candidate distances.
  std::uint32_t p = bucket_of(row_pending_[in_edges_ ? j : i]);
  if (symmetric_) p = std::min(p, bucket_of(row_pending_[j]));
  return p;
}

void TileSssp::begin_iteration(std::uint32_t, std::uint32_t bucket) {
  relaxed_ = 0;
  // Drain every row whose pending bucket this round covers — in a grid
  // sweep (kMaxBucket) every pending row. Clearing the pending mark
  // *before* processing lets in-round relaxations re-arm the row for a
  // later round (the delta-stepping re-entry rule).
  for (float& pending : row_pending_)
    if (pending != kInf && bucket_of(pending) <= bucket) pending = kInf;
}

bool TileSssp::end_iteration(std::uint32_t) {
  bool any_pending = false;
  for (std::uint32_t r = 0; r < row_pending_.size(); ++r) {
    // tile_needed names the rows holding pending work, as tile_priority
    // does.
    active_row_cur_[r] = row_pending_[r] != kInf ? 1 : 0;
    any_pending |= active_row_cur_[r] != 0;
  }
  std::fill(active_row_next_.begin(), active_row_next_.end(), 0);
  return relaxed_ > 0 || any_pending;
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
  std::fill(active_row_next_.begin(), active_row_next_.end(), 0);
  // Only the armed rows may hold pending work: the engine asks every
  // tile's priority, and a priority run can end with work pending in rows
  // whose tiles carry no data.
  std::fill(row_pending_.begin(), row_pending_.end(), kInf);
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
