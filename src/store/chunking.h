// Cost-balanced chunking of slot lists for OpenMP dynamic scheduling.
//
// Half-open index ranges over a slot list, cut so each chunk carries roughly
// equal edge cost. Dynamic scheduling over these chunks replaces
// schedule(dynamic, 1) over raw slots: on a power-law tile grid the latter
// is either dispatch overhead (swarms of near-empty tiles) or load imbalance
// (one hub tile per work item with nothing to pair it against). Its one
// caller is RoundExecutor's scan, which every scheduler's rounds run
// through; the costs it balances come from the caller's cost hook.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gstore::store {

struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

inline void cost_chunks(const std::vector<std::uint64_t>& costs,
                        std::vector<Chunk>& out) {
  out.clear();
  if (costs.empty()) return;
  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::uint64_t total = 0;
  for (const std::uint64_t c : costs) total += c;
  // ~8 chunks per thread bounds the dynamic-scheduling tail; the floor keeps
  // tiny tiles batched instead of dispatched one by one.
  const std::uint64_t target = std::max<std::uint64_t>(
      total / (8ull * static_cast<unsigned>(threads)) + 1, 4096);
  Chunk cur;
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < costs.size(); ++k) {
    acc += costs[k];
    if (acc >= target) {
      cur.end = k + 1;
      out.push_back(cur);
      cur.begin = k + 1;
      acc = 0;
    }
  }
  if (cur.begin < costs.size()) {
    cur.end = costs.size();
    out.push_back(cur);
  }
}

}  // namespace gstore::store
