// Zero-copy tile cache pool (paper §VI-A/§VI-C).
//
// Processed segments donate their useful tiles here by *pinning* refcounted
// slices of the segment buffer (insert_pinned, the only way in) — the pool
// never copies tile bytes; eviction just drops the pin and the backing
// buffer is freed when its last pin goes away. for_each_entry is the only
// way out. The pool is bounded by a byte budget counted over pinned slice
// bytes. Iteration order is layout order so the rewind phase processes
// cached tiles in the same disk order the streaming phase would have.
// Tracks recency for the LRU baseline policy. Lifetime rules:
// docs/HOTPATH.md.
//
// Synchronization: all bookkeeping (insert/erase/touch/evict/counters) is
// internally serialized by `mutex_`, so concurrent metadata operations are
// safe. The tile *bytes* behind an Entry pointer are a separate contract:
// for_each_entry() hands out pointers into pinned buffers, and the caller
// must not run erase()/evict_lru() for those tiles while another
// thread still dereferences them (the SCR engine satisfies this by
// structuring each iteration into rewind → slide → cache phases).
#pragma once

#include <cstdint>
#include <map>

#include "store/segment.h"
#include "util/sync.h"

namespace gstore::store {

class CachePool {
 public:
  explicit CachePool(std::uint64_t budget_bytes = 0) : budget_(budget_bytes) {}

  std::uint64_t budget() const noexcept { return budget_; }
  std::uint64_t used() const GSTORE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return used_;
  }
  std::uint64_t free_bytes() const GSTORE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return free_bytes_locked();
  }
  std::size_t tile_count() const GSTORE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return tiles_.size();
  }
  bool contains(std::uint64_t layout_idx) const GSTORE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return tiles_.count(layout_idx) != 0;
  }

  // Zero-copy insert: pins `bytes` starting at pin.get(). Returns false
  // (and stores nothing) if it does not fit. Replaces an existing entry for
  // the same tile. The pinned bytes must stay immutable while cached — the
  // segment guarantees this by refreshing its buffer instead of reusing it.
  bool insert_pinned(std::uint64_t layout_idx, BufferPin pin,
                     std::uint64_t bytes) GSTORE_EXCLUDES(mutex_);

  // Removes one tile; returns freed bytes (0 if absent).
  std::uint64_t erase(std::uint64_t layout_idx) GSTORE_EXCLUDES(mutex_);

  // Marks a tile as used this iteration (for LRU recency).
  void touch(std::uint64_t layout_idx) GSTORE_EXCLUDES(mutex_);

  // Evicts least-recently-touched tiles until at least `needed` bytes are
  // free. Returns bytes freed.
  std::uint64_t evict_lru(std::uint64_t needed) GSTORE_EXCLUDES(mutex_);

  struct Entry {
    std::uint64_t layout_idx;
    const std::uint8_t* data;
    std::uint64_t bytes;
  };

  // Allocation-free iteration in layout order: invokes fn(const Entry&) for
  // every cached tile with the pool lock held. `fn` must not call back into
  // the pool (the mutex is not recursive) and must not retain the data
  // pointer past the phase contract in the class comment.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const GSTORE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (const auto& [idx, stored] : tiles_)
      fn(Entry{idx, stored.pin.get(), stored.bytes});
  }

 private:
  struct Stored {
    BufferPin pin;             // in the engine, a slice of a segment buffer
    std::uint64_t bytes = 0;
    std::uint64_t stamp = 0;   // recency
  };

  std::uint64_t free_bytes_locked() const GSTORE_REQUIRES(mutex_) {
    return budget_ > used_ ? budget_ - used_ : 0;
  }
  bool insert_locked(std::uint64_t layout_idx, BufferPin pin,
                     std::uint64_t bytes) GSTORE_REQUIRES(mutex_);
  std::uint64_t erase_locked(std::uint64_t layout_idx) GSTORE_REQUIRES(mutex_);

  mutable Mutex mutex_{"CachePool::mutex_"};
  std::map<std::uint64_t, Stored> tiles_ GSTORE_GUARDED_BY(mutex_);  // keyed by layout index (sorted)
  const std::uint64_t budget_;
  std::uint64_t used_ GSTORE_GUARDED_BY(mutex_) = 0;
  std::uint64_t clock_ GSTORE_GUARDED_BY(mutex_) = 0;
};

}  // namespace gstore::store
