// Lock-free update helpers for algorithm metadata. process_tile() runs
// concurrently across tiles (OpenMP), so metadata writes go through these.
// When the process runs single-threaded (this is detected once at startup),
// the helpers take plain non-atomic paths — a CAS loop per edge would
// otherwise dominate single-core runs and distort engine comparisons.
//
// The rule for block kernels: the per-edge loop writes only per-vertex
// entries (a depth, a distance, a residual). A location that every worker
// reads or writes — an update counter, a per-tile-row flag, minimum or sum —
// is written once per block and side: the kernel keeps its count and its
// per-side results in registers and publishes them when the block ends
// (block_rows, mark_row below). One shared write per update moves a cache
// line between cores on every success (docs/HOTPATH.md, "Frontier kernels").
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "tile/edge_block.h"
#include "util/dcheck.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gstore::algo {

inline bool concurrent_execution() noexcept {
#ifdef _OPENMP
  static const bool multi = omp_get_max_threads() > 1;
  return multi;
#else
  return false;  // engine parallelism comes from OpenMP only
#endif
}

// Relaxed read of a location that concurrent workers may be writing through
// the helpers below. When tiles are processed in parallel, a plain load from
// e.g. depth_[v] races with another worker's CAS on the same element — that
// is UB (and a TSan report) even though the algorithms tolerate stale values.
// The relaxed atomic load has identical codegen on x86 and keeps the
// tolerate-staleness semantics data-race-free.
template <typename T>
inline T atomic_load(const T* p) noexcept {
  if (!concurrent_execution()) return *p;
  // atomic_ref<const T> is C++26; the const_cast is safe because we only load.
  return std::atomic_ref<T>(*const_cast<T*>(p)).load(std::memory_order_relaxed);
}

// Atomically sets *p to min(*p, val); returns true if it lowered the value.
template <typename T>
inline bool atomic_min(T* p, T val) noexcept {
  if (!concurrent_execution()) {
    if (val < *p) {
      *p = val;
      return true;
    }
    return false;
  }
  std::atomic_ref<T> ref(*p);
  T cur = ref.load(std::memory_order_relaxed);
  while (val < cur) {
    if (ref.compare_exchange_weak(cur, val, std::memory_order_relaxed))
      return true;
  }
  return false;
}

// Atomically: if (*p == expected) *p = desired. Returns true on success.
template <typename T>
inline bool atomic_cas(T* p, T expected, T desired) noexcept {
  if (!concurrent_execution()) {
    if (*p == expected) {
      *p = desired;
      return true;
    }
    return false;
  }
  std::atomic_ref<T> ref(*p);
  return ref.compare_exchange_strong(expected, desired,
                                     std::memory_order_relaxed);
}

// Relaxed write of a location other workers may be reading or CASing. For
// values where any concurrently written value is acceptable (a frontier
// flag; union-find's path halving, where every ancestor is a valid parent),
// this replaces a CAS.
template <typename T>
inline void atomic_store(T* p, T val) noexcept {
  if (!concurrent_execution()) {
    *p = val;
    return;
  }
  std::atomic_ref<T>(*p).store(val, std::memory_order_relaxed);
}

// Relaxed atomic add of an integral value. Integer addition is
// associative, so concurrent adds leave the same sum in any order (the
// fixed-point PageRanks rely on this for thread-count-independent results).
template <typename T>
inline void atomic_fetch_add(T* p, T val) noexcept {
  static_assert(std::is_integral_v<T>, "fixed-point sums only");
  if (!concurrent_execution()) {
    *p += val;
    return;
  }
  std::atomic_ref<T>(*p).fetch_add(val, std::memory_order_relaxed);
}

// Sets a per-row flag that other workers share. The load keeps a flag that
// is already set from dirtying its line again.
inline void mark_row(std::uint8_t* flag) noexcept {
  if (atomic_load(flag) == 0) atomic_store(flag, std::uint8_t{1});
}

// The tile rows of a block's two tuple fields: `i` holds every block.src[k]
// and `j` every block.dst[k]. Every tuple of tile (i, j) has its first field
// in row i and its second in row j (Grid::tile_of; an overlay view keeps its
// tile's coordinates), so a kernel publishes a block's per-row results once
// per side.
inline tile::TileCoord block_rows(const tile::EdgeBlock& block,
                                  unsigned tile_bits) noexcept {
  const tile::TileCoord rows = block.view->coord;
  for (std::uint32_t k = 0; k < block.size; ++k) {
    GSTORE_DCHECK_EQ(block.src[k] >> tile_bits, rows.i);
    GSTORE_DCHECK_EQ(block.dst[k] >> tile_bits, rows.j);
  }
  return rows;
}

}  // namespace gstore::algo
