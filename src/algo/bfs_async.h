// Asynchronous BFS (paper §II-B cites Pearce et al. [26]: asynchronous
// traversal "reduces the total number of iterations needed").
//
// Instead of synchronous level-by-level expansion, every pass relaxes
// depth[to] = min(depth[to], depth[from]+1) using the freshest values —
// depth improvements propagate *within* a pass, through as many tiles as the
// processing order allows. Converges to exact BFS depths in at most as many
// passes as the synchronous level count, usually far fewer.
//
// That is Bellman-Ford SSSP with every edge weight 1, so TileBfsAsync is
// TileSssp's unit-weight kernel: the same row flags, oracles and, under
// ScheduleMode::kPriority, delta-stepping by hop count. Depths are float
// hop counts underneath, exact up to 2^24.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/sssp.h"

namespace gstore::algo {

class TileBfsAsync final : public TileSssp {
 public:
  explicit TileBfsAsync(graph::vid_t root) : TileSssp(root, true) {}

  std::string name() const override { return "bfs-async"; }
  // Buckets keep SSSP's default width, 8 hops: nothing to set.
  void set_delta(float) = delete;

  // Depths in BFS convention: -1 for unreachable (after convergence).
  std::vector<std::int32_t> depths() const {
    std::vector<std::int32_t> out;
    out.reserve(distances().size());
    for (const float d : distances())
      out.push_back(d == kInf ? -1 : static_cast<std::int32_t>(d));
    return out;
  }
};

}  // namespace gstore::algo
