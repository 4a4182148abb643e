// The SCR (slide–cache–rewind) engine (paper §VI, Figure 8).
//
// Every round is planned before its begin hook (algorithm.h): one scan over
// the tiles carrying data asks the algorithm's tile_priority. A grid
// iteration takes every tile with work; ScheduleMode::kPriority replaces it
// with bucketed rounds (docs/SCHEDULING.md) that take the lowest bucket's
// tiles. Either way the round's tiles, in layout order, run through one
// slide–cache–rewind pass (store::RoundExecutor, round_executor.h, the pass
// the serve gang runs too):
//   REWIND — process the tiles already sitting in the cache pool (saved from
//            the previous round). Both segments' first SLIDE reads are
//            submitted before it starts, so the device streams meanwhile.
//   SLIDE  — stream the remaining tiles from disk in physical-group layout
//            order, double-buffered: one segment is loading via the async
//            engine while the other is being processed.
//   CACHE  — each processed segment offers its tiles to the cache pool under
//            the configured policy, one CachingPolicy::admit call per
//            segment; proactive analysis evicts tiles the algorithm's
//            metadata rules out for the next round.
// An exception from the algorithm or the decoder, or a read failing past
// the retry budget, leaves the pass only after every in-flight read has
// been drained; run() rethrows it to the caller.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "store/algorithm.h"
#include "store/caching_policy.h"
#include "tile/tile_file.h"

namespace gstore::store {

// How the engine orders tile work within a run.
//   kGrid     — the paper's scheme: every iteration runs every tile with
//               work, in physical layout order. The run ends when the
//               algorithm's end hook says so.
//   kPriority — delta-stepping rounds: tiles carry algorithm-assigned
//               priorities and each round runs the minimum bucket's tiles.
//               An idle tile is in no bucket, so it is never fetched. The
//               run also ends when no tile has work.
enum class ScheduleMode { kGrid, kPriority };

struct EngineConfig {
  // Two segments and the cache pool. Twice segment_bytes leaves the pool no
  // bytes, which turns caching off.
  std::uint64_t stream_memory_bytes = 64ull << 20;
  std::uint64_t segment_bytes = 8ull << 20;
  CachePolicyKind policy = CachePolicyKind::kProactive;
  ScheduleMode schedule = ScheduleMode::kGrid;
  bool overlap_io = true;  // double-buffer I/O with compute
  std::uint32_t max_iterations = 100000;
  // Whole-tile retry budget applied by the round executor to failed or
  // truncated tile reads, layered above the async engine's own per-read
  // retries (io::RetryPolicy). Past the budget the round fails with a clean
  // quiesce: every in-flight read is drained before the exception escapes.
  int read_retry_budget = 2;
};

// Per-iteration breakdown: how the working set and I/O evolve as frontiers
// grow/shrink and the cache warms (what the paper's Figure 8 timeline shows).
// In priority mode one entry covers one *round* (one bucket), not one grid
// sweep: `bucket` records which bucket it ran, and tiles_skipped stays 0 —
// a round's candidates are its bucket's tiles, so tiles in other buckets or
// in none were not "skipped" by it.
struct IterationStats {
  static constexpr std::uint32_t kNoBucket = 0xffffffffu;  // grid-mode entry
  std::uint64_t tiles_from_disk = 0;
  std::uint64_t tiles_from_cache = 0;
  std::uint64_t tiles_skipped = 0;
  std::uint64_t edges_processed = 0;
  std::uint64_t bytes_fetched = 0;   // base-tile bytes read this round/iter
  std::uint32_t bucket = kNoBucket;  // the round's bucket (priority mode)
  double seconds = 0;
};

struct EngineStats {
  // Grid mode: grid sweeps. Priority mode: rounds (a round runs one
  // bucket). Serve gangs: rounds (one iteration of every active job).
  std::uint32_t iterations = 0;
  // Highest bucket any priority round ran (0 in grid mode and gangs).
  std::uint32_t max_bucket = 0;
  // Base-tile bytes fetched in rounds/iterations whose processing produced
  // zero label updates (last_round_updates() == 0) — I/O that bought no
  // progress. Convergence-tail waste the priority mode exists to remove.
  std::uint64_t wasted_fetch_bytes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t tiles_from_disk = 0;
  // Pooled tiles a round processed, once per round however many jobs a
  // serve gang dispatched each one to.
  std::uint64_t tiles_from_cache = 0;
  std::uint64_t tiles_skipped = 0;   // selective fetch: not needed this iter
  std::uint64_t edges_processed = 0;
  // Un-compacted edges spliced into tile scans from an attached overlay
  // (counted once per iteration they were processed, like base edges; also
  // included in edges_processed).
  std::uint64_t overlay_edges = 0;
  std::uint64_t io_batches = 0;      // submit() calls (paper: batching saves syscalls)
  // Always 0: the cache pool only pins segment slices and has no copy
  // path, so nothing writes this. It stays declared because
  // perfbench/bench_gstore.cpp still reads it.
  std::uint64_t bytes_copied_to_pool = 0;
  // Segment buffers replaced because the pool still pinned slices of them
  // (the allocate-fresh-on-demand half of the zero-copy contract).
  std::uint64_t segment_refreshes = 0;
  // Recovery counters from the I/O layer (io::DeviceStats): reads retried
  // by the async workers, short reads resubmitted for their tail, reads
  // that exhausted the worker budget, and total backoff slept.
  std::uint64_t retries = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t failed_reads = 0;
  // Whole-tile resubmissions performed by the round executor above the
  // async layer (a tile whose read came back failed or truncated is
  // reissued up to EngineConfig::read_retry_budget times).
  std::uint64_t tile_resubmits = 0;
  double backoff_seconds = 0;
  double io_wait_seconds = 0;
  double compute_seconds = 0;
  double elapsed_seconds = 0;
  std::vector<IterationStats> per_iteration;
};

class ScrEngine {
 public:
  ScrEngine(tile::TileStore& store, EngineConfig config = {});

  // Runs the algorithm to completion and returns run statistics.
  EngineStats run(TileAlgorithm& algo);

  // Incremental recompute: re-activates only the tiles a WAL delta touched
  // (`delta_tiles`, layout indices from TileOverlay::nonempty_tiles) and
  // drives priority rounds until the re-armed work drains, instead of
  // rerunning from scratch. `algo` must hold the converged state of a prior
  // run over the same store, and the overlay carrying the new edges must be
  // attached to the store before the call. Falls back to a cold run() when
  // the algorithm's reactivate() declines. Always uses priority scheduling:
  // after reactivate, tile_priority names exactly the affected tiles.
  EngineStats resume(TileAlgorithm& algo,
                     std::span<const std::uint64_t> delta_tiles);

 private:
  struct Runner;
  tile::TileStore& store_;
  EngineConfig config_;
};

}  // namespace gstore::store
