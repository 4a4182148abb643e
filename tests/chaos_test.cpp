// Chaos tests: whole-engine runs under injected I/O faults.
//
// The contract being proven: transient faults (EINTR/EAGAIN storms, EIO
// blips, short reads) are fully absorbed by the recovery stack — results are
// bit-identical to a fault-free run — while faults that exhaust every retry
// budget surface as ONE clean IoError after a full quiesce, never as partial
// tile data or a worker scribbling into freed segment buffers (the latter is
// what ASan/TSan watch for here).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "algo/bfs.h"
#include "algo/cc.h"
#include "algo/pagerank.h"
#include "graph/generator.h"
#include "io/file.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "tile/tile_file.h"
#include "util/status.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gstore::store {
namespace {

using graph::GraphKind;

tile::ConvertOptions small_tiles() {
  tile::ConvertOptions o;
  o.tile_bits = 5;   // 32-vertex tiles → many tiles at small scale
  o.group_side = 3;  // non-dividing group side
  return o;
}

EngineConfig tiny_memory() {
  EngineConfig c;
  c.stream_memory_bytes = 16 << 10;  // forces many slide phases
  c.segment_bytes = 2 << 10;
  return c;
}

io::DeviceConfig fast_backoff(const std::string& fault_spec) {
  io::DeviceConfig dev;
  dev.fault_spec = fault_spec;
  dev.retry.backoff_initial_ms = 0.1;  // keep injected-failure tests fast
  dev.retry.backoff_max_ms = 1.0;
  return dev;
}

TEST(Chaos, TransientFaultsPreserveResultsBitForBit) {
#ifdef _OPENMP
  // PageRank accumulates floats; one thread pins the summation order so the
  // faulty run can be compared bit-for-bit against the clean one.
  omp_set_num_threads(1);
#endif
  io::TempDir dir;
  const auto el = graph::kronecker(9, 6, GraphKind::kUndirected, 17);
  auto clean = gstore::testing::make_store(dir, el, small_tiles());
  // Same converted files, reopened behind a fault injector throwing a mix
  // of everything the retry stack claims to absorb.
  auto faulty = tile::TileStore::open(
      dir.file("g"),
      fast_backoff("seed=42,eio=0.05,eintr=0.15,eagain=0.05,short=0.15"));

  std::uint64_t retries = 0, short_reads = 0, failed = 0;
  const auto track = [&](const EngineStats& s) {
    retries += s.retries;
    short_reads += s.short_reads;
    failed += s.failed_reads;
  };

  {
    algo::TileBfs a(1), b(1);
    ScrEngine(clean, tiny_memory()).run(a);
    track(ScrEngine(faulty, tiny_memory()).run(b));
    EXPECT_EQ(a.depth(), b.depth());
    EXPECT_EQ(a.visited_count(), b.visited_count());
  }
  {
    algo::PageRankOptions popt;
    popt.max_iterations = 5;
    popt.tolerance = 0;
    algo::TilePageRank a(popt), b(popt);
    ScrEngine(clean, tiny_memory()).run(a);
    track(ScrEngine(faulty, tiny_memory()).run(b));
    ASSERT_EQ(a.ranks().size(), b.ranks().size());
    EXPECT_EQ(std::memcmp(a.ranks().data(), b.ranks().data(),
                          a.ranks().size() * sizeof(float)),
              0)
        << "pagerank diverged under injected faults";
  }
  {
    algo::TileWcc a, b;
    ScrEngine(clean, tiny_memory()).run(a);
    track(ScrEngine(faulty, tiny_memory()).run(b));
    EXPECT_EQ(a.labels(), b.labels());
    EXPECT_EQ(a.component_count(), b.component_count());
  }

  // The runs must actually have exercised the recovery machinery — a quiet
  // pass would mean the injector was wired out, not that the engine is
  // robust.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(short_reads, 0u);
  EXPECT_EQ(failed, 0u);  // nothing exhausted its budget
}

TEST(Chaos, FaultPastEveryBudgetIsOneCleanError) {
  const auto el = graph::kronecker(8, 4, GraphKind::kUndirected, 23);
  // Both I/O modes read through the same per-request routine and the same
  // whole-tile budget, so both fail the same clean way.
  for (const bool overlap : {true, false}) {
    SCOPED_TRACE(overlap ? "overlap_io" : "no overlap_io");
    io::TempDir dir;
    // Read 1 serves TileStore::open's header; read 2 (an engine tile read —
    // the codec-compressed store fits a single batch) then fails with zero
    // retry budget anywhere, making a single blip behave like a dead sector.
    io::DeviceConfig dev = fast_backoff("seed=1,eio-nth=2");
    dev.retry.max_retries = 0;
    auto store = gstore::testing::make_store(dir, el, small_tiles(), dev);
    EngineConfig cfg = tiny_memory();
    cfg.read_retry_budget = 0;
    cfg.overlap_io = overlap;

    algo::TileWcc wcc;
    try {
      ScrEngine(store, cfg).run(wcc);
      FAIL() << "expected the exhausted-budget read to abort the run";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("retry budget"), std::string::npos) << what;
      EXPECT_NE(what.find("tile read at offset"), std::string::npos) << what;
    }
    EXPECT_GT(store.device().stats().failed_reads, 0u);
    // Clean quiesce: nothing is still in flight after the exception.
    std::vector<io::Completion> none;
    EXPECT_EQ(store.device().poll(0, 64, none), 0u);

    // The device and store remain usable — the nth-read fault is spent, so
    // a rerun completes and produces a sane result.
    algo::TileWcc again;
    const EngineStats s = ScrEngine(store, cfg).run(again);
    EXPECT_GT(s.iterations, 0u);
    EXPECT_GT(again.component_count(), 0u);
  }
}

TEST(Chaos, OneFailedTileReadIsResubmittedWhole) {
  const auto el = graph::kronecker(8, 4, GraphKind::kUndirected, 23);
  // With no per-read retries, read 2 (an engine tile read; read 1 is open's
  // header) fails in the engine's routine, and the default whole-tile budget
  // resubmits it once. Both I/O modes, and the kSync backend reading inside
  // submit(), recover the same way.
  struct Mode {
    const char* name;
    bool overlap;
    io::Backend backend;
  };
  for (const Mode m : {Mode{"overlap_io", true, io::Backend::kThreadPool},
                       Mode{"no overlap_io", false, io::Backend::kThreadPool},
                       Mode{"kSync backend", false, io::Backend::kSync}}) {
    SCOPED_TRACE(m.name);
    io::TempDir dir;
    auto clean = gstore::testing::make_store(dir, el, small_tiles());
    io::DeviceConfig dev = fast_backoff("seed=1,eio-nth=2");
    dev.retry.max_retries = 0;
    dev.backend = m.backend;
    auto faulty = tile::TileStore::open(dir.file("g"), dev);
    EngineConfig cfg = tiny_memory();
    cfg.overlap_io = m.overlap;

    algo::TileWcc a, b;
    ScrEngine(clean, cfg).run(a);
    const EngineStats s = ScrEngine(faulty, cfg).run(b);
    EXPECT_EQ(s.tile_resubmits, 1u);
    EXPECT_EQ(s.failed_reads, 1u);
    EXPECT_EQ(a.labels(), b.labels());
  }
}

TEST(Chaos, FailureWhileSiblingSegmentMidFillUnwindsCleanly) {
  io::TempDir dir;
  const auto el = graph::kronecker(9, 6, GraphKind::kUndirected, 29);
  // Every read sleeps 10ms, so when the doomed read (an early tile read;
  // read 1 is open's header) surfaces its failure, the prefetching sibling
  // segment still has reads in flight writing into its buffer.
  // Unwinding without draining them is a heap-use-after-free ASan catches.
  io::DeviceConfig dev = fast_backoff("seed=2,eio-nth=3,latency=1:10");
  dev.retry.max_retries = 0;
  auto store = gstore::testing::make_store(dir, el, small_tiles(), dev);
  EngineConfig cfg = tiny_memory();
  cfg.read_retry_budget = 0;

  algo::TileWcc wcc;
  EXPECT_THROW(ScrEngine(store, cfg).run(wcc), IoError);
  std::vector<io::Completion> none;
  EXPECT_EQ(store.device().poll(0, 64, none), 0u);

  // Rerun to completion on the same device: recovery left no wreckage.
  algo::TileWcc again;
  const EngineStats s = ScrEngine(store, cfg).run(again);
  EXPECT_GT(s.iterations, 0u);
}

TEST(Chaos, TruncatedTileFileIsRejectedNotProcessed) {
  // Regression: a Completion with ok == true but bytes < length (the tile
  // file lost its tail) must fail the read, never be processed as a full
  // tile — partial tile data silently corrupts every algorithm downstream.
  io::TempDir dir;
  const auto el = graph::kronecker(8, 4, GraphKind::kUndirected, 31);
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  // Truncate the open .tiles file behind the store's back; the async
  // engine's EOF handling turns the lost tail into a short completion.
  {
    io::File f(tile::TileStore::tiles_path(dir.file("g")),
               io::OpenMode::kReadWrite);
    f.truncate(f.size() - 10);
  }
  algo::TileWcc wcc;
  try {
    ScrEngine(store, tiny_memory()).run(wcc);
    FAIL() << "expected the truncated tile to abort the run";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  std::vector<io::Completion> none;
  EXPECT_EQ(store.device().poll(0, 64, none), 0u);
}

TEST(Chaos, CorruptCodecPayloadIsOneCleanFormatError) {
  // Regression: a v3 payload header flipped on disk after open throws
  // FormatError from a decode running *inside* an OpenMP worker region.
  // The engine must capture it and rethrow on the orchestrating thread
  // (an exception escaping the region terminates the process), quiesce
  // in-flight sibling reads, and leave the device reusable.
  io::TempDir dir;
  const auto el = graph::kronecker(9, 6, GraphKind::kUndirected, 41);
  auto store = gstore::testing::make_store(dir, el, small_tiles());
  std::uint8_t good = 0;
  {
    // Flip the first tile's codec byte (payloads start at file offset 64)
    // to an out-of-range id; parse_tile_payload rejects it on dispatch.
    io::File f(tile::TileStore::tiles_path(dir.file("g")),
               io::OpenMode::kReadWrite);
    f.pread_full(&good, 1, 64);
    const std::uint8_t bad = 0xff;
    f.pwrite_full(&bad, 1, 64);
  }
  algo::TileWcc wcc;
  try {
    ScrEngine(store, tiny_memory()).run(wcc);
    FAIL() << "expected the corrupt payload to abort the run";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("codec"), std::string::npos)
        << e.what();
  }
  std::vector<io::Completion> none;
  EXPECT_EQ(store.device().poll(0, 64, none), 0u);

  // Restore the byte: the same store and device run to completion.
  {
    io::File f(tile::TileStore::tiles_path(dir.file("g")),
               io::OpenMode::kReadWrite);
    f.pwrite_full(&good, 1, 64);
  }
  algo::TileWcc again;
  const EngineStats s = ScrEngine(store, tiny_memory()).run(again);
  EXPECT_GT(s.iterations, 0u);
  EXPECT_GT(again.component_count(), 0u);
}

TEST(Chaos, SyncBackendHonorsTheSameRetryContract) {
  // The kSync backend runs each request inside submit(), through the same
  // per-request routine the workers run, and overlap_io == false waits for
  // each segment as soon as it is submitted; results must match the clean
  // run just the same. The store outgrows the stream memory and there is no
  // pool and no rewind, so every iteration rereads its tiles in many
  // batches and the engine's reads, not just open's, draw faults.
  io::TempDir dir;
  const auto el = graph::kronecker(10, 8, GraphKind::kUndirected, 37);
  auto clean = gstore::testing::make_store(dir, el, small_tiles());
  io::DeviceConfig dev = fast_backoff("seed=6,eintr=0.2,eio=0.05");
  dev.backend = io::Backend::kSync;
  auto faulty = tile::TileStore::open(dir.file("g"), dev);
  EngineConfig cfg = tiny_memory();
  cfg.overlap_io = false;
  cfg.policy = CachePolicyKind::kNone;
  cfg.rewind = false;
  algo::TileWcc a, b;
  ScrEngine(clean, cfg).run(a);
  const EngineStats s = ScrEngine(faulty, cfg).run(b);
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_GT(s.retries + s.short_reads, 0u);
  EXPECT_EQ(s.failed_reads, 0u);
}

}  // namespace
}  // namespace gstore::store
// Appended: priority scheduling under fault storms (ISSUE 10).
#include "algo/pagerank_delta.h"
#include "algo/sssp.h"

namespace gstore::store {
namespace {

TEST(Chaos, PriorityScheduleSurvivesFaultStormBitForBit) {
  io::TempDir dir;
  const auto el = graph::kronecker(9, 6, GraphKind::kUndirected, 53);
  auto clean = gstore::testing::make_store(dir, el, small_tiles());
  auto faulty = tile::TileStore::open(
      dir.file("g"),
      fast_backoff("seed=77,eio=0.05,eintr=0.15,eagain=0.05,short=0.15"));

  EngineConfig prio = tiny_memory();
  prio.schedule = ScheduleMode::kPriority;
  std::uint64_t recovered = 0;

  {
    // Clean grid order is the reference; the faulty run uses the worklist
    // scheduler — two schedules AND a fault storm between the runs, and the
    // fixpoints must still agree bit for bit.
    algo::TileBfs a(1), b(1);
    ScrEngine(clean, tiny_memory()).run(a);
    const auto s = ScrEngine(faulty, prio).run(b);
    recovered += s.retries + s.short_reads;
    EXPECT_EQ(a.depth(), b.depth());
  }
  {
    algo::TileSssp a(1), b(1);
    ScrEngine(clean, tiny_memory()).run(a);
    const auto s = ScrEngine(faulty, prio).run(b);
    recovered += s.retries + s.short_reads;
    EXPECT_EQ(a.distances(), b.distances());
  }
  {
    // PageRank-delta is deterministic *within* a schedule (fixed-point
    // integer deposits commute), and the round structure depends only on
    // residual state — never on I/O timing — so clean-priority and
    // faulty-priority agree bit for bit.
    algo::TilePageRankDelta a, b;
    ScrEngine(clean, prio).run(a);
    const auto s = ScrEngine(faulty, prio).run(b);
    recovered += s.retries + s.short_reads;
    ASSERT_EQ(a.ranks().size(), b.ranks().size());
    EXPECT_EQ(std::memcmp(a.ranks().data(), b.ranks().data(),
                          a.ranks().size() * sizeof(float)),
              0)
        << "pagerank-delta diverged under injected faults";
  }
  EXPECT_GT(recovered, 0u) << "storm never reached the recovery machinery";
}

TEST(Chaos, PriorityModeFaultPastBudgetQuiescesCleanly) {
  io::TempDir dir;
  const auto el = graph::kronecker(9, 6, GraphKind::kUndirected, 59);
  io::DeviceConfig dev = fast_backoff("seed=3,eio-nth=3,latency=1:10");
  dev.retry.max_retries = 0;
  auto store = gstore::testing::make_store(dir, el, small_tiles(), dev);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  cfg.read_retry_budget = 0;

  algo::TileSssp sssp(1);
  EXPECT_THROW(ScrEngine(store, cfg).run(sssp), IoError);
  // The round's quiesce-before-throw contract: nothing still in flight.
  std::vector<io::Completion> none;
  EXPECT_EQ(store.device().poll(0, 64, none), 0u);

  // Same device, fault spent: the priority run completes and matches grid.
  algo::TileSssp again(1), ref(1);
  ScrEngine(store, cfg).run(again);
  ScrEngine(store, tiny_memory()).run(ref);
  EXPECT_EQ(again.distances(), ref.distances());
}

}  // namespace
}  // namespace gstore::store
