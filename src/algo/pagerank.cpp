#include "algo/pagerank.h"

#include <algorithm>
#include <cmath>

#include "algo/atomics.h"
#include "util/status.h"

namespace gstore::algo {

void TilePageRank::init(const tile::TileStore& store) {
  const auto& meta = store.meta();
  symmetric_ = meta.symmetric();
  in_edges_ = meta.in_edges();
  n_ = store.vertex_count();
  degrees_ = store.load_degrees();
  GS_CHECK_MSG(degrees_.size() == n_, "degree array size mismatch");

  const float init_rank = 1.0f / static_cast<float>(n_);
  rank_.assign(n_, init_rank);
  contrib_.assign(n_, 0.0f);
  incoming_.assign(n_, 0.0f);
  iterations_ = 0;
}

void TilePageRank::begin_iteration(std::uint32_t) {
  // Precomputing rank/degree once per vertex (instead of per edge) keeps the
  // inner loop to one load + one atomic add per endpoint.
  for (graph::vid_t v = 0; v < n_; ++v) {
    const graph::degree_t d = degrees_[v];
    contrib_[v] = d == 0 ? 0.0f : rank_[v] / static_cast<float>(d);
  }
  std::fill(incoming_.begin(), incoming_.end(), 0.0f);
}

void TilePageRank::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TilePageRank::process_block(const tile::EdgeBlock& block) {
  const graph::vid_t* a = block.src;
  const graph::vid_t* b = block.dst;
  const std::uint32_t n = block.size;
  if (symmetric_) {
    // One stored tuple represents both directions of an undirected edge.
    block.prefetch_src(contrib_.data());
    block.prefetch_dst(contrib_.data());
    block.prefetch_src(incoming_.data());
    block.prefetch_dst(incoming_.data());
    for (std::uint32_t k = 0; k < n; ++k) {
      atomic_add(&incoming_[b[k]], contrib_[a[k]]);
      atomic_add(&incoming_[a[k]], contrib_[b[k]]);
    }
  } else if (in_edges_) {
    // Tuple is (dst, src): a receives from b.
    block.prefetch_dst(contrib_.data());
    block.prefetch_src(incoming_.data());
    for (std::uint32_t k = 0; k < n; ++k)
      atomic_add(&incoming_[a[k]], contrib_[b[k]]);
  } else {
    block.prefetch_src(contrib_.data());
    block.prefetch_dst(incoming_.data());
    for (std::uint32_t k = 0; k < n; ++k)
      atomic_add(&incoming_[b[k]], contrib_[a[k]]);
  }
}

bool TilePageRank::end_iteration(std::uint32_t) {
  const float base =
      static_cast<float>((1.0 - options_.damping) / static_cast<double>(n_));
  double max_delta = 0.0;
  for (graph::vid_t v = 0; v < n_; ++v) {
    const float next =
        base + static_cast<float>(options_.damping) * incoming_[v];
    max_delta = std::max(max_delta,
                         static_cast<double>(std::fabs(next - rank_[v])));
    rank_[v] = next;
  }
  last_delta_ = max_delta;
  ++iterations_;
  if (iterations_ >= options_.max_iterations) return false;
  if (options_.tolerance > 0.0 && max_delta < options_.tolerance) return false;
  return true;
}

}  // namespace gstore::algo
