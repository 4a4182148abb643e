// Pluggable caching policies for the SCR engine.
//
// kProactive is the paper's contribution (§VI-C): cache exactly the tiles the
// algorithm's metadata says might be needed next iteration, evicting entries
// the oracle has since ruled out. kLru is the FlashGraph-style baseline the
// paper argues against. Pure streaming (X-Stream-style, and the "base
// policy" of Fig 13) is not a policy but a zero pool: stream memory of two
// segments leaves the pool no bytes, so REWIND has nothing to process and
// every needed tile is read.
//
// Policies keep no state between calls: everything they decide is a
// function of the pool, the segment and the algorithm's oracle.
#pragma once

#include <cstdint>
#include <memory>

#include "store/algorithm.h"
#include "store/cache_pool.h"
#include "store/segment.h"
#include "tile/grid.h"

namespace gstore::store {

enum class CachePolicyKind { kProactive, kLru };

class CachingPolicy {
 public:
  virtual ~CachingPolicy() = default;

  // CACHE step: offers every tile of one just-processed segment to the pool,
  // in slot order, pinning the admitted ones (zero-copy) and evicting as the
  // policy allows. Runs after the segment's scan has joined, so the
  // algorithm's oracle is frozen for the whole call.
  virtual void admit(CachePool& pool, const Segment& seg,
                     const tile::Grid& grid, const TileAlgorithm& algo) = 0;

  // Iteration-boundary analysis: drop entries the oracle now rules out
  // (proactive) or do nothing (LRU).
  virtual void analyze(CachePool& pool, const tile::Grid& grid,
                       const TileAlgorithm& algo) = 0;

  static std::unique_ptr<CachingPolicy> make(CachePolicyKind kind);
};

}  // namespace gstore::store
