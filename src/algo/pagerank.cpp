#include "algo/pagerank.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "algo/atomics.h"
#include "util/dcheck.h"
#include "util/status.h"

namespace gstore::algo {

namespace {

// damping · x, for a fixed-point x < 2^63 and damping_fx = damping · 2^63.
std::uint64_t damped(std::uint64_t x, std::uint64_t damping_fx) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * damping_fx) >> 63);
}

// A vertex's per-edge share of its fixed-point rank. A dangling vertex
// (degree 0) forwards nothing.
std::uint64_t contribution(double rank_fx, graph::degree_t deg) {
  return deg == 0 ? 0 : static_cast<std::uint64_t>(rank_fx / deg);
}

// Adds contrib[b] into incoming[a] for every tuple (a, b) of the block and,
// when kBothWays (symmetric stores), contrib[a] into incoming[b]. Tuples
// sharing `a` come in runs — a tile stores its rows in order, though an
// overlay view need not — so each run's sum is kept in a register and added
// to incoming[a] once, when the run ends.
template <bool kBothWays>
void add_by_rows(const tile::EdgeBlock& block, const std::uint64_t* contrib,
                 std::uint64_t* incoming) {
  const graph::vid_t* a = block.src;
  const graph::vid_t* b = block.dst;
  const std::uint32_t n = block.size;
  GSTORE_DCHECK(n > 0);
  block.prefetch_dst(contrib);
  if (kBothWays) block.prefetch_dst(incoming);
  graph::vid_t row = a[0];
  std::uint64_t row_contrib = contrib[row];
  std::uint64_t sum = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    if (a[k] != row) {
      atomic_fetch_add(&incoming[row], sum);
      row = a[k];
      row_contrib = contrib[row];
      sum = 0;
    }
    sum += contrib[b[k]];
    if (kBothWays) atomic_fetch_add(&incoming[b[k]], row_contrib);
  }
  atomic_fetch_add(&incoming[row], sum);
}

}  // namespace

void TilePageRank::init(const tile::TileStore& store) {
  GS_CHECK_MSG(options_.damping >= 0.0 && options_.damping <= 1.0,
               "PageRank damping must be in [0, 1]");
  const auto& meta = store.meta();
  symmetric_ = meta.symmetric();
  in_edges_ = meta.in_edges();
  n_ = store.vertex_count();
  degrees_ = store.load_degrees();
  GS_CHECK_MSG(degrees_.size() == n_, "degree array size mismatch");

  // 2^F with F = 63 − bit_width(n): the fixed-point value of rank 1/n.
  const double mean_fx = std::ldexp(1.0, 63 - std::bit_width(n_));
  scale_ = mean_fx * n_;
  base_fx_ = static_cast<std::uint64_t>((1.0 - options_.damping) * mean_fx);
  damping_fx_ = static_cast<std::uint64_t>(std::ldexp(options_.damping, 63));

  rank_.assign(n_, 1.0f / static_cast<float>(n_));
  contrib_.resize(n_);
  for (graph::vid_t v = 0; v < n_; ++v)
    contrib_[v] = contribution(mean_fx, degrees_[v]);
  incoming_.assign(n_, 0);
  iterations_ = 0;
}

void TilePageRank::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TilePageRank::process_block(const tile::EdgeBlock& block) {
  if (symmetric_) {
    // One stored tuple represents both directions of an undirected edge.
    add_by_rows<true>(block, contrib_.data(), incoming_.data());
  } else if (in_edges_) {
    // Tuple is (dst, src): a receives from b.
    add_by_rows<false>(block, contrib_.data(), incoming_.data());
  } else {
    const graph::vid_t* a = block.src;
    const graph::vid_t* b = block.dst;
    block.prefetch_src(contrib_.data());
    block.prefetch_dst(incoming_.data());
    for (std::uint32_t k = 0; k < block.size; ++k)
      atomic_fetch_add(&incoming_[b[k]], contrib_[a[k]]);
  }
}

bool TilePageRank::end_iteration(std::uint32_t) {
  double max_delta = 0.0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(max : max_delta)
#endif
  for (graph::vid_t v = 0; v < n_; ++v) {
    const auto next_fx =
        static_cast<double>(base_fx_ + damped(incoming_[v], damping_fx_));
    const auto next = static_cast<float>(next_fx / scale_);
    max_delta = std::max(max_delta,
                         static_cast<double>(std::fabs(next - rank_[v])));
    rank_[v] = next;
    contrib_[v] = contribution(next_fx, degrees_[v]);
    incoming_[v] = 0;
  }
  last_delta_ = max_delta;
  ++iterations_;
  if (iterations_ >= options_.max_iterations) return false;
  if (options_.tolerance > 0.0 && max_delta < options_.tolerance) return false;
  return true;
}

}  // namespace gstore::algo
