// Concurrency smoke test, written to be run under TSan/ASan (the sanitizer
// presets) but cheap enough for tier-1. Each test drives one of the shared
// structures the SCR/AIO core races on — async-engine submit/reap, the
// cache pool's insert/evict churn, throttle reconfiguration, thread-pool
// load — from N real threads, so the sanitizer watches actual cross-thread
// handoffs rather than single-threaded logic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "algo/bfs.h"
#include "algo/reference.h"
#include "graph/generator.h"
#include "io/async_engine.h"
#include "io/device.h"
#include "io/file.h"
#include "io/throttle.h"
#include "store/cache_pool.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gstore {
namespace {

constexpr int kThreads = 4;

// ---- async engine: concurrent submit + reap --------------------------------

TEST(SanitizerSmoke, AsyncEngineConcurrentSubmitAndPoll) {
  io::TempDir dir;
  const std::string path = dir.file("data.bin");
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kChunks = 64;
  {
    io::File f(path, io::OpenMode::kWrite);
    std::vector<std::uint8_t> block(kChunk);
    for (std::size_t c = 0; c < kChunks; ++c) {
      std::memset(block.data(), static_cast<int>(c & 0xff), kChunk);
      f.append(block.data(), kChunk);
    }
  }
  io::File file(path, io::OpenMode::kRead);

  // Small depth forces submitters to block on space_cv while workers and
  // the reaper drain — the interesting handoff path.
  io::AsyncEngine engine(io::Backend::kThreadPool, /*depth=*/8, /*workers=*/3);

  std::vector<std::vector<std::uint8_t>> buffers(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    buffers[t].resize(kChunk * kChunks);
    submitters.emplace_back([&, t] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(t));
      std::vector<io::ReadRequest> batch;
      for (std::size_t c = 0; c < kChunks; ++c) {
        io::ReadRequest req;
        req.file = &file;
        req.offset = rng.next_below(kChunks) * kChunk;
        req.length = kChunk;
        req.buffer = buffers[t].data() + c * kChunk;
        req.tag = static_cast<std::uint64_t>(t) * kChunks + c;
        batch.push_back(req);
        if (batch.size() == 8) {
          engine.submit(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) engine.submit(batch);
    });
  }

  // Concurrent reaper: polls while submitters are still pushing, and owns
  // every completion (drain() would swallow them), so it can account for
  // the exact request count.
  std::thread reaper([&] {
    const std::size_t total = static_cast<std::size_t>(kThreads) * kChunks;
    std::vector<io::Completion> done;
    std::size_t reaped = 0;
    while (reaped < total) {
      done.clear();
      engine.poll(0, 16, done);
      for (const auto& c : done) {
        EXPECT_TRUE(c.ok);
        EXPECT_EQ(c.bytes, kChunk);
      }
      reaped += done.size();
      if (done.empty()) std::this_thread::yield();
    }
  });

  for (auto& s : submitters) s.join();
  reaper.join();
  EXPECT_EQ(engine.in_flight(), 0u);
}

// ---- cache pool: concurrent insert/evict churn -----------------------------
//
// CachePool is thread-compatible, not thread-safe: the engine serializes
// access. This test reproduces that discipline (one mutex) while hammering
// insert_pinned/erase/evict_lru/for_each_entry from N threads — ASan checks
// the pin churn (each owning buffer freed as its last pin drops) for buffer
// errors, TSan checks that the locking really covers every access including
// reads through for_each_entry.

TEST(SanitizerSmoke, CachePoolConcurrentChurn) {
  store::CachePool pool(/*budget=*/64 << 10);
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(7 + static_cast<std::uint64_t>(t));
      std::vector<std::uint8_t> payload(2048);
      for (int op = 0; op < 800; ++op) {
        const std::uint64_t idx = rng.next_below(32);
        const std::uint64_t bytes = 1 + rng.next_below(payload.size());
        std::memset(payload.data(), static_cast<int>(idx), bytes);
        std::lock_guard<std::mutex> lock(mu);
        switch (rng.next_below(4)) {
          case 0:
            pool.insert_pinned(idx, gstore::testing::pin_copy(payload), bytes);
            break;
          case 1:
            pool.erase(idx);
            break;
          case 2:
            pool.evict_lru(bytes);
            break;
          default:
            pool.for_each_entry([&](const store::CachePool::Entry& e) {
              ASSERT_LE(e.bytes, payload.size());
              if (e.bytes > 0) {  // every cached byte must match its tile id
                ASSERT_EQ(e.data[e.bytes - 1],
                          static_cast<std::uint8_t>(e.layout_idx));
              }
            });
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(pool.used(), pool.budget());
}

// ---- throttle: reconfiguration racing acquisition --------------------------

TEST(SanitizerSmoke, ThrottleSetRateRacesAcquire) {
  io::Throttle throttle(/*bytes_per_second=*/0);  // start disabled
  std::atomic<bool> stop{false};
  std::vector<std::thread> acquirers;
  for (int t = 0; t < kThreads; ++t) {
    acquirers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire))
        throttle.acquire(4096);  // usually free; briefly paced mid-test
    });
  }
  for (int i = 0; i < 50; ++i) {
    // Flip between disabled and a rate high enough to never block long.
    throttle.set_rate(i % 2 == 0 ? 0 : (8ull << 30));
    std::this_thread::yield();
  }
  throttle.set_rate(0);
  stop.store(true, std::memory_order_release);
  for (auto& t : acquirers) t.join();
  EXPECT_FALSE(throttle.enabled());
}

// ---- thread pool: concurrent parallel_for callers --------------------------

TEST(SanitizerSmoke, ThreadPoolConcurrentParallelFor) {
  ThreadPool pool(kThreads);
  std::vector<std::atomic<int>> hits(4096);
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      pool.parallel_for(
          hits.size(),
          [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
          /*grain=*/17);
    });
  }
  for (auto& t : callers) t.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 3);
}

// ---- full engine pass: SCR segment handoff under the async backend ---------
//
// End-to-end: the async-engine workers fill segment buffers while the main
// thread processes the other segment; the sanitizer watches the
// double-buffered handoff (submit → poll → process → cache).

TEST(SanitizerSmoke, ScrEngineOverlappedRunMatchesReference) {
  auto el = graph::kronecker(8, 6, graph::GraphKind::kUndirected, 42);
  el.normalize();
  io::TempDir dir;
  tile::ConvertOptions copt;
  copt.tile_bits = 5;
  copt.group_side = 4;
  auto store = gstore::testing::make_store(dir, el, copt);

  store::EngineConfig cfg;
  cfg.stream_memory_bytes = 96 << 10;
  cfg.segment_bytes = 8 << 10;
  cfg.overlap_io = true;
  store::ScrEngine engine(store, cfg);

  algo::TileBfs bfs(0);
  engine.run(bfs);
  EXPECT_EQ(bfs.depth(), algo::ref_bfs(el, 0));
}

}  // namespace
}  // namespace gstore
