#include "store/cache_pool.h"

#include <utility>

#include "util/dcheck.h"

namespace gstore::store {

bool CachePool::insert_locked(std::uint64_t layout_idx, BufferPin pin,
                              std::uint64_t bytes) {
  erase_locked(layout_idx);
  if (bytes > free_bytes_locked()) return false;
  Stored s;
  s.pin = std::move(pin);
  s.bytes = bytes;
  s.stamp = ++clock_;
  used_ += bytes;
  GSTORE_DCHECK_LE(used_, budget_);
  tiles_.emplace(layout_idx, std::move(s));
  return true;
}

bool CachePool::insert_pinned(std::uint64_t layout_idx, BufferPin pin,
                              std::uint64_t bytes) {
  GSTORE_DCHECK(pin != nullptr || bytes == 0);
  MutexLock lock(mutex_);
  return insert_locked(layout_idx, std::move(pin), bytes);
}

std::uint64_t CachePool::erase(std::uint64_t layout_idx) {
  MutexLock lock(mutex_);
  return erase_locked(layout_idx);
}

std::uint64_t CachePool::erase_locked(std::uint64_t layout_idx) {
  auto it = tiles_.find(layout_idx);
  if (it == tiles_.end()) return 0;
  const std::uint64_t freed = it->second.bytes;
  GSTORE_DCHECK_GE(used_, freed);
  used_ -= freed;
  tiles_.erase(it);
  return freed;
}

void CachePool::clear() {
  MutexLock lock(mutex_);
  tiles_.clear();
  used_ = 0;
}

void CachePool::touch(std::uint64_t layout_idx) {
  MutexLock lock(mutex_);
  auto it = tiles_.find(layout_idx);
  if (it != tiles_.end()) it->second.stamp = ++clock_;
}

std::uint64_t CachePool::evict_lru(std::uint64_t needed) {
  MutexLock lock(mutex_);
  std::uint64_t freed = 0;
  while (free_bytes_locked() + freed < needed && !tiles_.empty()) {
    auto victim = tiles_.begin();
    for (auto it = tiles_.begin(); it != tiles_.end(); ++it)
      if (it->second.stamp < victim->second.stamp) victim = it;
    freed += victim->second.bytes;
    GSTORE_DCHECK_GE(used_, victim->second.bytes);
    used_ -= victim->second.bytes;
    tiles_.erase(victim);
  }
  // Accounting invariant: an empty pool must report zero bytes in use.
  GSTORE_DCHECK(!tiles_.empty() || used_ == 0);
  return freed;
}

}  // namespace gstore::store
