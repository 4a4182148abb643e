#include "algo/pagerank_delta.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "algo/atomics.h"
#include "util/status.h"

namespace gstore::algo {

namespace {
constexpr double fx_scale() {
  return static_cast<double>(1ull << TilePageRankDelta::kFxBits);
}
}  // namespace

void TilePageRankDelta::init(const tile::TileStore& store) {
  const auto& meta = store.meta();
  symmetric_ = meta.symmetric();
  in_edges_ = meta.in_edges();
  tile_bits_ = meta.tile_bits;
  n_ = store.vertex_count();
  degrees_ = store.load_degrees();
  GS_CHECK_MSG(degrees_.size() == n_, "degree array size mismatch");

  // Seed: the classic push formulation starts every vertex with residual
  // (1-d)/n and rank 0; rank converges to the PageRank fixpoint as the
  // residual pool drains.
  const auto seed_fx = static_cast<std::uint64_t>(
      (1.0 - options_.damping) / static_cast<double>(n_) * fx_scale());
  rank_fx_.assign(n_, 0);
  res_fx_.assign(n_, seed_fx);
  push_fx_.assign(n_, 0);
  row_res_fx_.assign(store.grid().p(), 0);
  row_armed_.assign(store.grid().p(), 0);
  for (graph::vid_t v = 0; v < n_; ++v)
    row_res_fx_[v >> tile_bits_] += res_fx_[v];
  drained_rows_.clear();
  dirty_rows_.clear();
  rounds_ = 0;
  drained_ = 0;
}

std::uint32_t TilePageRankDelta::bucket_of_row(std::uint32_t r) const {
  const std::uint64_t m = row_res_fx_[r];
  if (m == 0) return kPriorityIdle;
  // Exponent bucketing: more pending mass = smaller bucket = drained
  // earlier. Mass >= 1.0 lands in bucket 0; mass ~2^-k in bucket k. The
  // smallest representable residual bounds the bucket range at kFxBits.
  const unsigned width = std::bit_width(m);
  return width > kFxBits ? 0 : kFxBits + 1 - width;
}

// Moves the residual of every vertex in rows at or under `bucket` into its
// rank and arms the per-edge push amounts. Runs single-threaded between
// rounds; the amounts are read-only while tiles process.
void TilePageRankDelta::drain_rows_upto(std::uint32_t bucket) {
  drained_rows_.clear();
  drained_ = 0;
  const double d = options_.damping;
  for (std::uint32_t r = 0; r < row_res_fx_.size(); ++r) {
    if (row_res_fx_[r] == 0 || bucket_of_row(r) > bucket) continue;
    const graph::vid_t lo = static_cast<graph::vid_t>(r) << tile_bits_;
    const auto hi = static_cast<graph::vid_t>(std::min<std::uint64_t>(
        n_, (static_cast<std::uint64_t>(r) + 1) << tile_bits_));
    for (graph::vid_t v = lo; v < hi; ++v) {
      const std::uint64_t res = res_fx_[v];
      if (res == 0) continue;
      rank_fx_[v] += res;
      res_fx_[v] = 0;
      ++drained_;
      const graph::degree_t deg = degrees_[v];
      // Per-edge push amount. deg == 0 (dangling) propagates nothing, like
      // TilePageRank's zero contrib. Computed from exact integers in double,
      // so the value is schedule-independent for a given drain time.
      push_fx_[v] =
          deg == 0 ? 0
                   : static_cast<std::uint64_t>(
                         d * static_cast<double>(res) / static_cast<double>(deg));
    }
    // In-flight pushes during the round re-add to the row; the drained mass
    // itself is gone.
    row_res_fx_[r] = 0;
    row_armed_[r] = 1;
    drained_rows_.push_back(r);
  }
}

void TilePageRankDelta::begin_round(std::uint32_t, std::uint32_t bucket) {
  drain_rows_upto(bucket);
}

void TilePageRankDelta::begin_iteration(std::uint32_t) {
  // Grid mode: no bucket discrimination — drain every pending row, so one
  // iteration is one full residual sweep.
  drain_rows_upto(kPriorityIdle - 1);
}

void TilePageRankDelta::deposit(graph::vid_t v, std::uint64_t amount_fx) {
  if (!concurrent_execution()) {
    res_fx_[v] += amount_fx;
    row_res_fx_[v >> tile_bits_] += amount_fx;
    return;
  }
  std::atomic_ref<std::uint64_t>(res_fx_[v])
      .fetch_add(amount_fx, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(row_res_fx_[v >> tile_bits_])
      .fetch_add(amount_fx, std::memory_order_relaxed);
}

void TilePageRankDelta::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TilePageRankDelta::process_block(const tile::EdgeBlock& block) {
  const graph::vid_t* a = block.src;
  const graph::vid_t* b = block.dst;
  const std::uint32_t n = block.size;
  block.prefetch_src(push_fx_.data());
  block.prefetch_dst(push_fx_.data());
  if (symmetric_) {
    // One stored tuple carries both directions of the undirected edge.
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint64_t pa = push_fx_[a[k]];
      if (pa != 0) deposit(b[k], pa);
      const std::uint64_t pb = push_fx_[b[k]];
      if (pb != 0) deposit(a[k], pb);
    }
  } else if (in_edges_) {
    // Tuple is (dst, src): a receives from b.
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint64_t pb = push_fx_[b[k]];
      if (pb != 0) deposit(a[k], pb);
    }
  } else {
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint64_t pa = push_fx_[a[k]];
      if (pa != 0) deposit(b[k], pa);
    }
  }
}

bool TilePageRankDelta::end_round(std::uint32_t, std::uint32_t) {
  // Disarm the drained vertices' pushes — their mass is spent; tiles
  // processed in later rounds must not re-push it.
  for (const std::uint32_t r : drained_rows_) {
    const graph::vid_t lo = static_cast<graph::vid_t>(r) << tile_bits_;
    const auto hi = static_cast<graph::vid_t>(std::min<std::uint64_t>(
        n_, (static_cast<std::uint64_t>(r) + 1) << tile_bits_));
    std::fill(push_fx_.begin() + lo, push_fx_.begin() + hi, 0);
    row_armed_[r] = 0;
  }
  // Priorities changed for drained rows and for any row now holding mass
  // (receivers of this round's pushes included).
  dirty_rows_ = drained_rows_;
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < row_res_fx_.size(); ++r) {
    if (row_res_fx_[r] != 0) dirty_rows_.push_back(r);
    total += row_res_fx_[r];
  }
  ++rounds_;
  const auto tol_fx =
      static_cast<std::uint64_t>(options_.tolerance * fx_scale());
  return total > tol_fx;
}

bool TilePageRankDelta::end_iteration(std::uint32_t iter) {
  return end_round(iter, 0);
}

bool TilePageRankDelta::tile_needed(std::uint32_t i, std::uint32_t j) const {
  // A tile has work in the current round only if its from-side rows hold
  // armed pushes (same row selection as SSSP/BFS: the stored tuple's
  // propagation direction).
  if (row_armed_[in_edges_ ? j : i] != 0) return true;
  return symmetric_ && row_armed_[j] != 0;
}

bool TilePageRankDelta::tile_useful_next(std::uint32_t i,
                                         std::uint32_t j) const {
  // Useful next = its from-rows will hold mass to drain: pending residual.
  if (row_res_fx_[in_edges_ ? j : i] != 0) return true;
  return symmetric_ && row_res_fx_[j] != 0;
}

std::uint32_t TilePageRankDelta::tile_priority(std::uint32_t i,
                                               std::uint32_t j) const {
  std::uint32_t p = bucket_of_row(in_edges_ ? j : i);
  if (symmetric_) p = std::min(p, bucket_of_row(j));
  return p;
}

bool TilePageRankDelta::dirty_rows(std::vector<std::uint32_t>& out) const {
  out.insert(out.end(), dirty_rows_.begin(), dirty_rows_.end());
  return true;
}

std::vector<float> TilePageRankDelta::ranks() const {
  std::vector<float> out(n_);
  for (graph::vid_t v = 0; v < n_; ++v)
    out[v] = static_cast<float>(
        static_cast<double>(rank_fx_[v] + res_fx_[v]) / fx_scale());
  return out;
}

double TilePageRankDelta::residual_mass() const {
  std::uint64_t total = 0;
  for (const std::uint64_t m : row_res_fx_) total += m;
  return static_cast<double>(total) / fx_scale();
}

}  // namespace gstore::algo
