// Multi-tenant SCR scheduler: one tile-fetch stream, many jobs.
//
// ScrEngine runs one algorithm per iteration loop; this scheduler runs a
// *gang* of up to 64 jobs co-scheduled over one StoreSnapshot through the
// same slide–cache–rewind pass (store::RoundExecutor). A gang round — one
// iteration of every active job — is a round with N subscribers: its tiles
// are the UNION of the active jobs' needed tiles, each carrying the set of
// jobs that want it.
//
//   REWIND — both segments' first SLIDE reads are submitted, then every
//            tile in the shared cache pool that some job wants this round
//            is dispatched to its subscribers while the device streams.
//   SLIDE  — each remaining tile's bytes are read once through the async
//            engine (double-buffered, coalesced, with ScrEngine's whole-tile
//            retry budget) and the decoded payload is dispatched to every
//            subscribed job's kernel before the segment is reused. This is
//            the shared-I/O dedup: 32 BFS jobs over the same graph cost ~1×
//            the bytes, not 32×.
//   CACHE  — processed tiles are offered to the SHARED cache pool under a
//            fairness policy: the pool budget is split into per-job quotas
//            (budget / active jobs) and a tile is admitted only while some
//            subscriber is under quota, each subscriber charged
//            bytes / #subscribers. One full-graph PageRank therefore cannot
//            evict-starve small BFS jobs, and tiles wanted by many jobs are
//            proportionally cheaper to keep. Tiles whose next-round
//            subscriber set is empty are evicted at the round boundary.
//
// Jobs join at round boundaries (the admit callback), finish independently
// (their end_iteration() returns false), and are cancelled at round
// boundaries. Per-job statistics are job-scoped (JobStats); the gang-level
// I/O counters are the store::EngineStats the pass fills, where a pooled
// tile counts once per round however many jobs it served. Zero-copy is
// preserved: cached tiles pin segment slices.
//
// Threading: run() is called from ONE control thread (the JobManager's
// scheduler thread); kernels fan out over OpenMP inside a round exactly
// like ScrEngine. The snapshot (store + frozen overlay) is immutable for
// the gang's lifetime.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/job.h"
#include "serve/snapshot.h"
#include "store/algorithm.h"
#include "store/scr_engine.h"

namespace gstore::serve {

// The memory split and the Fig 13 rewind switch. Everything else a gang
// runs with (overlapped I/O, the whole-tile retry budget, the iteration
// cap) is store::EngineConfig's default. Selective fetch is not a setting:
// a round fetches only the tiles some job's tile_needed() asks for.
struct SchedulerConfig {
  std::uint64_t stream_memory_bytes = 64ull << 20;
  std::uint64_t segment_bytes = 8ull << 20;
  bool rewind = true;
};

// One job as the scheduler sees it. The algorithm is owned by the caller
// and must outlive the gang; `cancelled` (optional) is polled at round
// boundaries; `id` is opaque and only echoed through the done callback.
struct GangJob {
  std::uint64_t id = 0;
  store::TileAlgorithm* algo = nullptr;
  std::function<bool()> cancelled;
};

class SharedScheduler {
 public:
  // At most this many co-scheduled jobs (subscriber sets are 64-bit masks).
  static constexpr std::size_t kMaxGang = 64;

  // Offers free gang capacity to the caller at each round boundary; the
  // returned jobs (at most `free_slots`) join the gang against the SAME
  // snapshot. May be null.
  using AdmitFn = std::function<std::vector<GangJob>(std::size_t free_slots)>;
  // Reports a job leaving the gang: state is kDone, kFailed (error holds
  // why) or kCancelled. Called from the control thread.
  using DoneFn = std::function<void(const GangJob& job, JobState state,
                                    const JobStats& stats,
                                    const std::string& error)>;

  SharedScheduler(StoreSnapshot& snapshot, SchedulerConfig config);
  ~SharedScheduler();

  SharedScheduler(const SharedScheduler&) = delete;
  SharedScheduler& operator=(const SharedScheduler&) = delete;

  // Runs every job (initial + admitted) to completion or cancellation and
  // returns the gang-level counters (`rounds`, tiles, bytes, times). A
  // gang-level failure — I/O past the retry budget, or a job's kernel
  // throwing — fails every job still active (reported through `done`) and
  // returns: the daemon outlives its jobs' faults.
  store::EngineStats run(std::vector<GangJob> initial, const AdmitFn& admit,
                         const DoneFn& done);

 private:
  struct Runner;
  StoreSnapshot& snapshot_;
  SchedulerConfig config_;
};

}  // namespace gstore::serve
