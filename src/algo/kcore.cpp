#include "algo/kcore.h"

#include <algorithm>

#include "algo/atomics.h"
#include "graph/csr.h"
#include "graph/edge_list.h"
#include "util/status.h"

namespace gstore::algo {

void TileKCore::init(const tile::TileStore& store) {
  GS_CHECK_MSG(store.meta().symmetric(),
               "k-core requires an undirected (symmetric) tile store");
  tile_bits_ = store.meta().tile_bits;
  alive_.assign(store.vertex_count(), 1);
  live_degree_.assign(store.vertex_count(), 0);
  row_alive_.assign(store.grid().p(), 1);
  killed_this_iter_ = 0;
}

void TileKCore::begin_iteration(std::uint32_t) {
  std::fill(live_degree_.begin(), live_degree_.end(), 0);
  killed_this_iter_ = 0;
}

void TileKCore::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TileKCore::process_block(const tile::EdgeBlock& block) {
  block.prefetch_src(alive_.data());
  block.prefetch_dst(alive_.data());
  for (std::uint32_t k = 0; k < block.size; ++k) {
    const graph::vid_t a = block.src[k];
    const graph::vid_t b = block.dst[k];
    if (!alive_[a] || !alive_[b]) continue;
    // Each stored tuple is one undirected edge: counts toward both ends.
    std::atomic_ref<graph::degree_t>(live_degree_[a])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<graph::degree_t>(live_degree_[b])
        .fetch_add(1, std::memory_order_relaxed);
  }
}

bool TileKCore::end_iteration(std::uint32_t) {
  // Peel every vertex whose live degree fell below k, then refresh the
  // per-row liveness used for selective fetch.
  const std::uint32_t p = static_cast<std::uint32_t>(row_alive_.size());
  std::vector<std::uint8_t> next_row_alive(p, 0);
  for (graph::vid_t v = 0; v < alive_.size(); ++v) {
    if (!alive_[v]) continue;
    if (live_degree_[v] < k_) {
      alive_[v] = 0;
      ++killed_this_iter_;
    } else {
      next_row_alive[v >> tile_bits_] = 1;
    }
  }
  row_alive_.swap(next_row_alive);
  return killed_this_iter_ > 0;
}

bool TileKCore::tile_needed(std::uint32_t i, std::uint32_t j) const {
  // A tile can only contribute degree if both its ranges still hold alive
  // vertices... no: an edge needs both endpoints alive, and they live in
  // ranges i and j respectively, so both rows must be alive.
  return row_alive_[i] && row_alive_[j];
}

bool TileKCore::tile_useful_next(std::uint32_t i, std::uint32_t j) const {
  return row_alive_[i] && row_alive_[j];
}

std::uint64_t TileKCore::core_size() const {
  std::uint64_t n = 0;
  for (std::uint8_t a : alive_) n += a;
  return n;
}

std::vector<std::uint8_t> ref_kcore(const graph::EdgeList& el,
                                    graph::degree_t k) {
  GS_CHECK_MSG(el.kind() == graph::GraphKind::kUndirected,
               "k-core reference requires an undirected graph");
  const graph::Csr csr = graph::Csr::build(el);
  const graph::vid_t n = el.vertex_count();
  std::vector<std::uint8_t> alive(n, 1);
  std::vector<graph::degree_t> deg(n);
  for (graph::vid_t v = 0; v < n; ++v) {
    deg[v] = 0;
    for (graph::vid_t w : csr.neighbors(v))
      if (w != v) ++deg[v];  // self loops are dropped by the converter
  }
  // Classic peeling with a worklist.
  std::vector<graph::vid_t> stack;
  for (graph::vid_t v = 0; v < n; ++v)
    if (deg[v] < k) {
      alive[v] = 0;
      stack.push_back(v);
    }
  while (!stack.empty()) {
    const graph::vid_t v = stack.back();
    stack.pop_back();
    for (graph::vid_t w : csr.neighbors(v)) {
      if (!alive[w] || w == v) continue;
      if (--deg[w] < k) {
        alive[w] = 0;
        stack.push_back(w);
      }
    }
  }
  return alive;
}

}  // namespace gstore::algo
