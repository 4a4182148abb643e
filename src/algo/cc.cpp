#include "algo/cc.h"

#include <numeric>
#include <utility>

#include "algo/atomics.h"

namespace gstore::algo {

void TileWcc::init(const tile::TileStore& store) {
  label_.resize(store.vertex_count());
  std::iota(label_.begin(), label_.end(), graph::vid_t{0});
  marked_.clear();
}

void TileWcc::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TileWcc::process_block(const tile::EdgeBlock& block) {
  block.prefetch_src(label_.data());
  block.prefetch_dst(label_.data());
  for (std::uint32_t k = 0; k < block.size; ++k) {
    const graph::vid_t a = block.src[k];
    const graph::vid_t b = block.dst[k];
    if (atomic_load(&label_[a]) != atomic_load(&label_[b])) unite(a, b);
  }
}

graph::vid_t TileWcc::find(graph::vid_t v) {
  graph::vid_t parent = atomic_load(&label_[v]);
  while (parent != v) {
    const graph::vid_t grand = atomic_load(&label_[parent]);
    if (grand == parent) return parent;
    atomic_store(&label_[v], grand);  // halve: skip one level
    v = grand;
    parent = atomic_load(&label_[v]);
  }
  return v;
}

void TileWcc::unite(graph::vid_t a, graph::vid_t b) {
  for (;;) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a < b) std::swap(a, b);
    // Fails only if another worker hooked `a` first; then find again.
    if (atomic_cas(&label_[a], a, b)) return;
  }
}

bool TileWcc::end_iteration(std::uint32_t) {
  for (std::size_t v = 0; v < label_.size(); ++v) label_[v] = label_[label_[v]];
  marked_.clear();
  return false;
}

bool TileWcc::tile_needed(std::uint32_t i, std::uint32_t j) const {
  return marked_.empty() || marked_[std::size_t{i} * p_ + j] != 0;
}

bool TileWcc::reactivate(const tile::TileStore& store,
                         std::span<const std::uint64_t> delta_tiles) {
  // Requires the converged labels of a prior run over this store.
  if (label_.size() != store.vertex_count()) return false;
  const tile::Grid& grid = store.grid();
  p_ = grid.p();
  marked_.assign(std::size_t{p_} * p_, 0);
  for (const std::uint64_t idx : delta_tiles) {
    const tile::TileCoord c = grid.coord_at(idx);
    marked_[std::size_t{c.i} * p_ + c.j] = 1;
  }
  return true;
}

std::uint64_t TileWcc::component_count() const {
  std::uint64_t roots = 0;
  for (std::size_t v = 0; v < label_.size(); ++v)
    if (label_[v] == v) ++roots;
  return roots;
}

}  // namespace gstore::algo
