#include "algo/cc.h"

#include <numeric>
#include <unordered_set>

#include "algo/atomics.h"

namespace gstore::algo {

void TileWcc::init(const tile::TileStore& store) {
  tile_bits_ = store.meta().tile_bits;
  label_.resize(store.vertex_count());
  std::iota(label_.begin(), label_.end(), graph::vid_t{0});
  changed_ = 0;
  iteration_ = 0;
}

void TileWcc::begin_iteration(std::uint32_t) { changed_ = 0; }

void TileWcc::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TileWcc::process_block(const tile::EdgeBlock& block) {
  block.prefetch_src(label_.data());
  block.prefetch_dst(label_.data());
  std::uint64_t local_changed = 0;
  for (std::uint32_t k = 0; k < block.size; ++k) {
    const graph::vid_t a = block.src[k];
    const graph::vid_t b = block.dst[k];
    // Snapshot both labels, then CAS-min the larger side down.
    const graph::vid_t la = atomic_load(&label_[a]);
    const graph::vid_t lb = atomic_load(&label_[b]);
    if (la < lb) {
      if (atomic_min(&label_[b], la)) ++local_changed;
    } else if (lb < la) {
      if (atomic_min(&label_[a], lb)) ++local_changed;
    }
  }
  if (local_changed > 0)
    std::atomic_ref<std::uint64_t>(changed_).fetch_add(
        local_changed, std::memory_order_relaxed);
}

bool TileWcc::end_iteration(std::uint32_t) {
  ++iteration_;
  return changed_ > 0;
}

bool TileWcc::tile_needed(std::uint32_t, std::uint32_t) const {
  // First iteration touches everything; afterwards we keep scanning the
  // whole graph while labels move (sequential-bandwidth-friendly, per the
  // paper). Convergence is detected globally via `changed_`.
  return true;
}

std::uint64_t TileWcc::component_count() const {
  std::unordered_set<graph::vid_t> roots;
  for (std::size_t v = 0; v < label_.size(); ++v)
    if (label_[v] == v) roots.insert(static_cast<graph::vid_t>(v));
  return roots.size();
}

}  // namespace gstore::algo
