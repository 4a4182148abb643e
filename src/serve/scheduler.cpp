#include "serve/scheduler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "store/round_executor.h"
#include "util/dcheck.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::serve {

namespace {

using store::CachePool;
using store::Segment;

// Subscriber set: bit k = gang slot k wants this tile. Bounded by
// SharedScheduler::kMaxGang == 64.
using Mask = std::uint64_t;

template <typename Fn>
void for_bits(Mask m, Fn&& fn) {
  while (m != 0) {
    fn(static_cast<std::size_t>(std::countr_zero(m)));
    m &= m - 1;
  }
}

std::uint64_t subscribers(Mask m) {
  return static_cast<std::uint64_t>(std::popcount(m));
}

// A gang runs the scheduler's three knobs over ScrEngine's defaults for
// everything else: overlapped I/O, the whole-tile retry budget and the
// iteration cap.
store::EngineConfig engine_config(const SchedulerConfig& sc) {
  store::EngineConfig c;
  c.stream_memory_bytes = sc.stream_memory_bytes;
  c.segment_bytes = sc.segment_bytes;
  c.rewind = sc.rewind;
  return c;
}

}  // namespace

struct SharedScheduler::Runner {
  Runner(StoreSnapshot& snapshot, const SchedulerConfig& sc,
         const AdmitFn& admit, const DoneFn& done)
      : store(snapshot.store()),
        grid(store.grid()),
        config(engine_config(sc)),
        admit(admit),
        done(done),
        overlay(store.overlay()),
        exec(store, config, hooks()),
        pool(exec.pool()),
        stats(exec.stats()),
        masks(grid.tile_count(), 0) {
    slots.resize(kMaxGang);
  }

  // The pass's hooks for a gang: a tile costs its edges once per
  // subscriber, is processed by every subscribed job, and CACHE admits
  // under per-job quotas.
  store::RoundHooks hooks() {
    return store::RoundHooks{
        [this](std::uint64_t idx) {
          return (store.tile_edge_count(idx) + overlay_count(idx)) *
                 subscribers(masks[idx]);
        },
        [this](std::uint64_t idx, std::span<const tile::TileView> views) {
          for_bits(masks[idx], [&](std::size_t k) {
            for (const tile::TileView& v : views)
              slots[k].job.algo->process_tile(v);
          });
        },
        [this](CachePool& p, const Segment& seg) { admit_segment(p, seg); }};
  }

  // ---- gang membership ---------------------------------------------------

  struct Slot {
    GangJob job;
    JobStats stats;
    Timer timer;
    std::uint32_t iter = 0;
  };

  std::size_t active_count() const noexcept {
    return static_cast<std::size_t>(std::popcount(occupied));
  }

  void add_job(GangJob job) {
    GSTORE_DCHECK_LT(active_count(), kMaxGang);
    const auto free_bit = static_cast<std::size_t>(std::countr_one(occupied));
    Slot& s = slots[free_bit];
    s = Slot{};
    s.job = std::move(job);
    s.job.algo->init(store);
    occupied |= Mask{1} << free_bit;
  }

  void finish_slot(std::size_t k, JobState state, const std::string& error) {
    Slot& s = slots[k];
    s.stats.seconds = s.timer.seconds();
    occupied &= ~(Mask{1} << k);
    if (done) done(s.job, state, s.stats, error);
  }

  // ---- per-tile oracles over the gang ------------------------------------

  Mask needed_mask(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    Mask m = 0;
    for_bits(occupied, [&](std::size_t k) {
      if (slots[k].job.algo->tile_needed(c.i, c.j)) m |= Mask{1} << k;
    });
    return m;
  }

  Mask useful_next_mask(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    Mask m = 0;
    for_bits(occupied, [&](std::size_t k) {
      if (slots[k].job.algo->tile_useful_next(c.i, c.j)) m |= Mask{1} << k;
    });
    return m;
  }

  std::uint64_t overlay_count(std::uint64_t layout_idx) const {
    return overlay == nullptr ? 0 : overlay->tile_edges(layout_idx).size();
  }

  // ---- shared-cache admission --------------------------------------------

  // CACHE: shared-pool admission under per-job quotas. Each admitted tile
  // pins a zero-copy slice of the segment buffer; its cost is split evenly
  // across next-round subscribers, and it enters only while some subscriber
  // is still under budget/active_jobs — the fairness rule that keeps one
  // full-graph job from squeezing everyone else out.
  void admit_segment(CachePool& p, const Segment& seg) {
    const std::uint64_t quota =
        p.budget() / std::max<std::uint64_t>(active_count(), 1);
    for (const auto& slot : seg.slots()) {
      const Mask nm = useful_next_mask(slot.layout_idx);
      if (nm == 0) continue;
      if (slot.bytes > p.free_bytes()) continue;  // no forced eviction
      const std::uint64_t charge = slot.bytes / subscribers(nm);
      // Admit while any subscriber still has quota headroom *before* the
      // charge lands. Requiring the full charge to fit under the quota
      // (charged[j] + charge <= quota) starved hot tiles whose split charge
      // exceeds every job's remaining allowance — they were re-fetched
      // every round even with free pool headroom (the free_bytes check
      // above already guards capacity; the quota is a fairness knob, so a
      // job's last admission may overshoot it by one tile).
      bool under_quota = false;
      for_bits(nm, [&](std::size_t j) {
        if (charged[j] < quota) under_quota = true;
      });
      if (!under_quota) continue;
      if (!p.insert_pinned(slot.layout_idx, seg.pin_slot(slot), slot.bytes))
        continue;
      for_bits(nm, [&](std::size_t j) { charged[j] += charge; });
    }
  }

  // Round-boundary cache analysis: recompute every cached tile's
  // subscriber set for the upcoming round, evict the orphans, and rebuild
  // the per-job charge table (jobs that finished stop being charged; tiles
  // that gained subscribers get cheaper for everyone). With rewind off the
  // executor empties the pool before the next round, so nothing stays
  // charged.
  void analyze_cache() {
    charged.fill(0);
    if (pool.budget() == 0 || !config.rewind) return;
    victims.clear();
    pool.for_each_entry([&](const CachePool::Entry& e) {
      const Mask nm = useful_next_mask(e.layout_idx);
      if (nm == 0) {
        victims.push_back(e.layout_idx);
        return;
      }
      const std::uint64_t charge = e.bytes / subscribers(nm);
      for_bits(nm, [&](std::size_t j) { charged[j] += charge; });
    });
    for (const std::uint64_t idx : victims) pool.erase(idx);
  }

  // ---- one gang round ----------------------------------------------------

  // Plans the round: the union of the active jobs' needed tiles, in layout
  // order, each with its subscriber mask for the hooks.
  void plan_round() {
    round_tiles.clear();
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      const bool has_data =
          store.tile_bytes(idx) != 0 || overlay_count(idx) != 0;
      masks[idx] = has_data ? needed_mask(idx) : 0;
      if (masks[idx] != 0) round_tiles.push_back(idx);
    }
  }

  // Books the round's kernel deliveries into each subscriber's JobStats.
  void account_round() {
    for (const std::uint64_t idx : round_tiles) {
      const std::uint64_t extra = overlay_count(idx);
      const std::uint64_t edges = store.tile_edge_count(idx) + extra;
      for_bits(masks[idx], [&](std::size_t k) {
        JobStats& s = slots[k].stats;
        s.edges_processed += edges;
        s.overlay_edges += extra;
        ++s.tiles_dispatched;
      });
    }
  }

  void run_round() {
    for_bits(occupied, [&](std::size_t k) {
      slots[k].job.algo->begin_iteration(slots[k].iter);
    });
    plan_round();
    stats.tiles_skipped += exec.run_round(round_tiles);
    account_round();

    // End the round: every active job decides whether it wants another
    // iteration; finished jobs leave the gang before the cache analysis so
    // their subscriptions stop counting.
    for_bits(occupied, [&](std::size_t k) {
      Slot& s = slots[k];
      const bool more = s.job.algo->end_iteration(s.iter);
      ++s.iter;
      s.stats.iterations = s.iter;
      if (!more) {
        finish_slot(k, JobState::kDone, {});
      } else if (s.iter >= config.max_iterations) {
        finish_slot(k, JobState::kFailed,
                    "did not converge within max_iterations");
      }
    });
    analyze_cache();
    ++stats.rounds;
  }

  // Round boundary: reap cancellations, then offer free capacity to the
  // admit callback. Returns false when the gang is empty (run() ends).
  bool boundary() {
    for_bits(occupied, [&](std::size_t k) {
      if (slots[k].job.cancelled && slots[k].job.cancelled())
        finish_slot(k, JobState::kCancelled, {});
    });
    if (admit && active_count() < kMaxGang) {
      std::vector<GangJob> joined = admit(kMaxGang - active_count());
      GS_CHECK_MSG(joined.size() <= kMaxGang - active_count(),
                   "admit callback returned more jobs than offered slots");
      for (GangJob& j : joined) add_job(std::move(j));
    }
    return occupied != 0;
  }

  store::EngineStats run(std::vector<GangJob> initial) {
    Timer total;
    store.device().reset_stats();
    GS_CHECK_MSG(initial.size() <= kMaxGang, "gang larger than kMaxGang");
    for (GangJob& j : initial) add_job(std::move(j));
    try {
      while (boundary()) run_round();
    } catch (const std::exception& e) {
      // A gang-level failure (I/O past the retry budget, a job's kernel
      // throwing) downs every job still on board; the daemon itself
      // survives. The executor quiesced the device before the exception
      // left its pass.
      const std::string why = e.what();
      GS_LOG(Warn) << "gang failed: " << why;
      for_bits(occupied,
               [&](std::size_t k) { finish_slot(k, JobState::kFailed, why); });
    }
    stats.iterations = static_cast<std::uint32_t>(stats.rounds);
    return exec.finish(total.seconds());
  }

  // ---- state -------------------------------------------------------------

  tile::TileStore& store;
  const tile::Grid& grid;
  const store::EngineConfig config;
  const AdmitFn& admit;
  const DoneFn& done;
  const tile::TileOverlay* overlay = nullptr;

  std::vector<Slot> slots;
  Mask occupied = 0;

  store::RoundExecutor exec;
  CachePool& pool;
  store::EngineStats& stats;
  // The round being run and every tile's subscriber mask (0 outside it).
  std::vector<std::uint64_t> round_tiles;
  std::vector<Mask> masks;

  // Shared-cache fairness bookkeeping (control thread only).
  std::array<std::uint64_t, kMaxGang> charged{};
  std::vector<std::uint64_t> victims;
};

SharedScheduler::SharedScheduler(StoreSnapshot& snapshot,
                                 SchedulerConfig config)
    : snapshot_(snapshot), config_(config) {}

SharedScheduler::~SharedScheduler() = default;

store::EngineStats SharedScheduler::run(std::vector<GangJob> initial,
                                        const AdmitFn& admit,
                                        const DoneFn& done) {
  Runner runner(snapshot_, config_, admit, done);
  return runner.run(std::move(initial));
}

}  // namespace gstore::serve
