// Fault-injection and retry/recovery tests for the async I/O path.
//
// Covers: FaultSpec parsing, schedule determinism, each injected fault
// type, AsyncEngine's errno classification and bounded retries, short-read
// tail resubmission, drain()'s all-failures report, the no-progress stall
// guard, striped-member truncation, and WAL replay under a torn tail.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/types.h"
#include "ingest/wal.h"
#include "io/async_engine.h"
#include "io/device.h"
#include "io/fault.h"
#include "io/file.h"
#include "io/striped.h"
#include "util/status.h"

namespace gstore::io {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return v;
}

std::string write_pattern_file(const TempDir& dir, const std::string& name,
                               std::size_t n) {
  File w(dir.file(name), OpenMode::kWrite);
  const auto data = pattern_bytes(n);
  w.append(data.data(), data.size());
  return dir.file(name);
}

// ---- FaultSpec ----------------------------------------------------------

TEST(FaultSpec, ParsesEveryKey) {
  const FaultSpec s = FaultSpec::parse(
      "seed=7,eio-nth=40,eio=0.01,eintr=0.2,eagain=0.1,short=0.05,"
      "latency=0.25:5.5,torn-tail=64");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.eio_nth, 40u);
  EXPECT_DOUBLE_EQ(s.eio_rate, 0.01);
  EXPECT_DOUBLE_EQ(s.eintr_rate, 0.2);
  EXPECT_DOUBLE_EQ(s.eagain_rate, 0.1);
  EXPECT_DOUBLE_EQ(s.short_rate, 0.05);
  EXPECT_DOUBLE_EQ(s.latency_rate, 0.25);
  EXPECT_DOUBLE_EQ(s.latency_ms, 5.5);
  EXPECT_EQ(s.torn_tail_bytes, 64u);
  EXPECT_FALSE(s.empty());
}

TEST(FaultSpec, EmptyAndRoundtrip) {
  EXPECT_TRUE(FaultSpec::parse("").empty());
  EXPECT_TRUE(FaultSpec::parse("seed=99").empty());  // seed alone injects nothing
  const FaultSpec s = FaultSpec::parse("seed=3,eintr=0.5,torn-tail=10");
  const FaultSpec back = FaultSpec::parse(s.to_string());
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_DOUBLE_EQ(back.eintr_rate, s.eintr_rate);
  EXPECT_EQ(back.torn_tail_bytes, s.torn_tail_bytes);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSpec::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("eio"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("eio=1.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("eio=-0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("eio=abc"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("seed=xyz"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("latency=0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("latency=0.1:-3"), InvalidArgument);
}

// ---- FaultInjectingSource ----------------------------------------------

// Replays the same read sequence against two identically-seeded wrappers
// and requires decision-for-decision identical outcomes.
TEST(FaultInjectingSource, ScheduleIsDeterministic) {
  TempDir dir;
  const std::string path = write_pattern_file(dir, "a.bin", 16 << 10);
  File f(path, OpenMode::kRead);
  const FaultSpec spec =
      FaultSpec::parse("seed=11,eio=0.1,eintr=0.15,eagain=0.1,short=0.3");

  auto trace = [&](const FaultInjectingSource& src) {
    std::vector<long long> events;
    std::vector<std::uint8_t> buf(512);
    for (int k = 0; k < 200; ++k) {
      try {
        events.push_back(static_cast<long long>(
            src.pread_some(buf.data(), buf.size(),
                           static_cast<std::uint64_t>(k) * 64)));
      } catch (const IoError& e) {
        events.push_back(-e.sys_errno());
      }
    }
    return events;
  };

  const FaultInjectingSource a(f, spec);
  const FaultInjectingSource b(f, spec);
  EXPECT_EQ(trace(a), trace(b));
  const FaultStats sa = a.stats();
  const FaultStats sb = b.stats();
  EXPECT_EQ(sa.reads, sb.reads);
  EXPECT_EQ(sa.injected_eio, sb.injected_eio);
  EXPECT_EQ(sa.injected_eintr, sb.injected_eintr);
  EXPECT_EQ(sa.injected_eagain, sb.injected_eagain);
  EXPECT_EQ(sa.injected_short, sb.injected_short);
  // The rates are high enough that a 200-read schedule exercising none of
  // them would itself be a determinism bug.
  EXPECT_GT(sa.injected_eio + sa.injected_eintr + sa.injected_eagain, 0u);
  EXPECT_GT(sa.injected_short, 0u);
}

TEST(FaultInjectingSource, EioNthFiresOnExactlyThatRead) {
  TempDir dir;
  File f(write_pattern_file(dir, "a.bin", 4096), OpenMode::kRead);
  const FaultInjectingSource src(f, FaultSpec::parse("eio-nth=3"));
  std::uint8_t buf[64];
  EXPECT_EQ(src.pread_some(buf, sizeof buf, 0), sizeof buf);  // read 1
  EXPECT_EQ(src.pread_some(buf, sizeof buf, 0), sizeof buf);  // read 2
  try {
    src.pread_some(buf, sizeof buf, 0);  // read 3: injected EIO
    FAIL() << "expected injected EIO";
  } catch (const IoError& e) {
    EXPECT_EQ(e.sys_errno(), EIO);
  }
  EXPECT_EQ(src.pread_some(buf, sizeof buf, 0), sizeof buf);  // read 4
  EXPECT_EQ(src.stats().injected_eio, 1u);
}

TEST(FaultInjectingSource, TornTailBehavesLikeShorterFile) {
  TempDir dir;
  const auto data = pattern_bytes(1000);
  File f(write_pattern_file(dir, "a.bin", 1000), OpenMode::kRead);
  const FaultInjectingSource src(f, FaultSpec::parse("torn-tail=100"));
  EXPECT_EQ(src.size(), 900u);
  std::vector<std::uint8_t> buf(200);
  EXPECT_EQ(src.pread_some(buf.data(), 200, 850), 50u);  // clamped at 900
  EXPECT_EQ(std::memcmp(buf.data(), data.data() + 850, 50), 0);
  EXPECT_EQ(src.pread_some(buf.data(), 200, 950), 0u);  // past the torn end
  // A tail larger than the file clamps to zero, not underflow.
  const FaultInjectingSource all_torn(f, FaultSpec::parse("torn-tail=5000"));
  EXPECT_EQ(all_torn.size(), 0u);
}

TEST(FaultInjectingSource, ShortReadsAlwaysMakeProgress) {
  TempDir dir;
  File f(write_pattern_file(dir, "a.bin", 4096), OpenMode::kRead);
  const FaultInjectingSource src(f, FaultSpec::parse("seed=5,short=1"));
  std::uint8_t buf[256];
  for (int k = 0; k < 50; ++k) {
    const std::size_t got = src.pread_some(buf, sizeof buf, 0);
    EXPECT_GE(got, 1u);  // never a zero-byte mid-file read
    EXPECT_LE(got, sizeof buf);
  }
  EXPECT_GT(src.stats().injected_short, 0u);
}

// ---- AsyncEngine retry/recovery ----------------------------------------

// Test sources for failure modes fault injection cannot express.
class PermanentFailSource final : public Source {
 public:
  std::size_t pread_some(void*, std::size_t, std::uint64_t) const override {
    throw IoError("simulated hardware death", EBADF);
  }
  std::uint64_t size() const override { return 1 << 20; }
};

class NonGstoreThrowSource final : public Source {
 public:
  std::size_t pread_some(void*, std::size_t, std::uint64_t) const override {
    throw std::runtime_error("boom from a non-gstore layer");
  }
  std::uint64_t size() const override { return 1 << 20; }
};

// Claims bytes it never delivers, like a truncated member behind an intact
// directory entry.
class StallingSource final : public Source {
 public:
  std::size_t pread_some(void*, std::size_t, std::uint64_t) const override {
    return 0;
  }
  std::uint64_t size() const override { return 100; }
};

TEST(ErrnoClassification, MatchesTheTaxonomy) {
  EXPECT_EQ(classify_errno(EINTR), ErrnoClass::kInterrupted);
  EXPECT_EQ(classify_errno(EAGAIN), ErrnoClass::kInterrupted);
  EXPECT_EQ(classify_errno(EIO), ErrnoClass::kTransient);
  EXPECT_EQ(classify_errno(ENOMEM), ErrnoClass::kTransient);
  EXPECT_EQ(classify_errno(EBUSY), ErrnoClass::kTransient);
  EXPECT_EQ(classify_errno(EBADF), ErrnoClass::kPermanent);
  EXPECT_EQ(classify_errno(EINVAL), ErrnoClass::kPermanent);
  EXPECT_EQ(classify_errno(ENXIO), ErrnoClass::kPermanent);
}

class AsyncRetryTest : public ::testing::TestWithParam<Backend> {
 protected:
  RetryPolicy fast_retry() const {
    RetryPolicy p;
    p.backoff_initial_ms = 0.1;  // keep injected-failure tests fast
    p.backoff_max_ms = 1.0;
    return p;
  }
};

TEST_P(AsyncRetryTest, TransientFaultIsRetriedToSuccess) {
  TempDir dir;
  const auto data = pattern_bytes(8192);
  File f(write_pattern_file(dir, "a.bin", 8192), OpenMode::kRead);
  const FaultInjectingSource src(f, FaultSpec::parse("eio-nth=1"));
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::vector<std::uint8_t> buf(4096);
  eng.submit({ReadRequest{&src, 0, buf.size(), buf.data(), 42}});
  std::vector<Completion> done;
  eng.poll(1, 1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_EQ(done[0].bytes, buf.size());
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), buf.size()), 0);
  const RetryStats s = eng.retry_stats();
  EXPECT_GE(s.retries, 1u);
  EXPECT_EQ(s.failed_reads, 0u);
  EXPECT_GT(s.backoff_seconds, 0.0);
}

TEST_P(AsyncRetryTest, InterruptStormIsAbsorbed) {
  TempDir dir;
  const auto data = pattern_bytes(64 << 10);
  File f(write_pattern_file(dir, "a.bin", 64 << 10), OpenMode::kRead);
  const FaultInjectingSource src(
      f, FaultSpec::parse("seed=5,eintr=0.4,eagain=0.2"));
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  constexpr int kReqs = 16;
  std::vector<std::vector<std::uint8_t>> bufs(kReqs,
                                              std::vector<std::uint8_t>(4096));
  std::vector<ReadRequest> batch;
  for (int i = 0; i < kReqs; ++i)
    batch.push_back(ReadRequest{&src, static_cast<std::uint64_t>(i) * 4096,
                                4096, bufs[i].data(),
                                static_cast<std::uint64_t>(i)});
  eng.submit(batch);
  eng.drain();  // no-throw: every interrupt was reissued
  for (int i = 0; i < kReqs; ++i)
    EXPECT_EQ(std::memcmp(bufs[i].data(), data.data() + i * 4096, 4096), 0)
        << "request " << i;
  EXPECT_GE(eng.retry_stats().retries, 1u);
  EXPECT_EQ(eng.retry_stats().failed_reads, 0u);
}

TEST_P(AsyncRetryTest, ShortReadsResubmitTheTail) {
  TempDir dir;
  const auto data = pattern_bytes(64 << 10);
  File f(write_pattern_file(dir, "a.bin", 64 << 10), OpenMode::kRead);
  const FaultInjectingSource src(f, FaultSpec::parse("seed=9,short=0.7"));
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::vector<std::uint8_t> buf(48 << 10);
  eng.submit({ReadRequest{&src, 4096, buf.size(), buf.data(), 7}});
  std::vector<Completion> done;
  eng.poll(1, 1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_EQ(done[0].bytes, buf.size());  // the tail was pursued to the end
  EXPECT_EQ(std::memcmp(buf.data(), data.data() + 4096, buf.size()), 0);
  EXPECT_GE(eng.retry_stats().short_reads, 1u);
}

TEST_P(AsyncRetryTest, EofShortReadStillCompletesOk) {
  // The EOF contract must survive the tail-resubmit machinery: reading past
  // the end is a legitimate short completion, not a retry loop.
  TempDir dir;
  File f(write_pattern_file(dir, "a.bin", 3), OpenMode::kRead);
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::uint8_t buf[16];
  eng.submit({ReadRequest{&f, 0, 16, buf, 1}});
  std::vector<Completion> done;
  eng.poll(1, 1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_EQ(done[0].bytes, 3u);
  EXPECT_EQ(eng.retry_stats().failed_reads, 0u);
}

TEST_P(AsyncRetryTest, PermanentErrorFailsWithoutRetry) {
  const PermanentFailSource src;
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::uint8_t buf[64];
  eng.submit({ReadRequest{&src, 0, sizeof buf, buf, 5}});
  std::vector<Completion> done;
  eng.poll(1, 1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(done[0].error, EBADF);
  EXPECT_NE(done[0].message.find("simulated hardware death"),
            std::string::npos);
  EXPECT_EQ(eng.retry_stats().retries, 0u);  // permanent: no retry burned
  EXPECT_EQ(eng.retry_stats().failed_reads, 1u);
}

TEST_P(AsyncRetryTest, NonGstoreExceptionBecomesFailedCompletion) {
  // A worker that lets a non-gstore exception escape terminates the whole
  // process; it must surface as a failed completion instead.
  const NonGstoreThrowSource src;
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::uint8_t buf[64];
  eng.submit({ReadRequest{&src, 0, sizeof buf, buf, 9}});
  std::vector<Completion> done;
  eng.poll(1, 1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(done[0].error, EIO);
  EXPECT_NE(done[0].message.find("boom from a non-gstore layer"),
            std::string::npos);
  EXPECT_EQ(eng.in_flight(), 0u);  // the worker survived to serve more
}

TEST_P(AsyncRetryTest, StalledSourceFailsInsteadOfSpinning) {
  const StallingSource src;
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::uint8_t buf[64];
  eng.submit({ReadRequest{&src, 0, sizeof buf, buf, 3}});
  std::vector<Completion> done;
  eng.poll(1, 1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(done[0].error, EIO);
  EXPECT_NE(done[0].message.find("stalled"), std::string::npos);
}

TEST_P(AsyncRetryTest, DrainReportsEveryFailedTagInOneError) {
  const PermanentFailSource src;
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::uint8_t buf[64];
  std::vector<ReadRequest> batch;
  for (std::uint64_t tag : {70u, 80u, 90u})
    batch.push_back(ReadRequest{&src, 0, sizeof buf, buf, tag});
  eng.submit(batch);
  try {
    eng.drain();
    FAIL() << "expected drain() to throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3 request(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("70"), std::string::npos) << what;
    EXPECT_NE(what.find("80"), std::string::npos) << what;
    EXPECT_NE(what.find("90"), std::string::npos) << what;
    EXPECT_EQ(e.sys_errno(), EBADF);
  }
  // Everything was reaped before the throw; the engine is reusable.
  EXPECT_EQ(eng.in_flight(), 0u);
  eng.drain();  // nothing outstanding: no-throw
}

TEST_P(AsyncRetryTest, QuiesceNeverThrowsAndCountsFailures) {
  const PermanentFailSource src;
  AsyncEngine eng(GetParam(), 16, 2, fast_retry());
  std::uint8_t buf[64];
  std::vector<ReadRequest> batch;
  for (std::uint64_t tag = 0; tag < 4; ++tag)
    batch.push_back(ReadRequest{&src, 0, sizeof buf, buf, tag});
  eng.submit(batch);
  EXPECT_EQ(eng.quiesce(), 4u);
  EXPECT_EQ(eng.in_flight(), 0u);
  EXPECT_EQ(eng.quiesce(), 0u);  // idempotent
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncRetryTest,
                         ::testing::Values(Backend::kThreadPool,
                                           Backend::kSync),
                         [](const auto& info) {
                           return info.param == Backend::kThreadPool
                                      ? "ThreadPool"
                                      : "Sync";
                         });

// ---- Striped-set truncation --------------------------------------------

TEST(Striped, TruncatedMemberFailsLoudly) {
  TempDir dir;
  const auto data = pattern_bytes(64 << 10);
  {
    File f(dir.file("flat"), OpenMode::kWrite);
    f.append(data.data(), data.size());
  }
  stripe_file(dir.file("flat"), dir.file("set"), 2, 4096);
  StripedFile sf(dir.file("set"), 2, 4096);
  // Chop the second member after the set is open: the set's advertised size
  // still counts the missing bytes, exactly like a degraded array.
  {
    File m(StripedFile::member_path(dir.file("set"), 1), OpenMode::kReadWrite);
    m.truncate(m.size() / 2);
  }
  std::vector<std::uint8_t> buf(data.size());
  try {
    sf.pread_full(buf.data(), buf.size(), 0);
    FAIL() << "expected the truncated member to be reported";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.sys_errno(), EIO);
  }
}

// ---- Device + fault spec -----------------------------------------------

TEST(Device, FaultSpecWiresInjectionIntoBothReadPaths) {
  TempDir dir;
  const auto data = pattern_bytes(256 << 10);
  const std::string path = write_pattern_file(dir, "v.bin", 256 << 10);

  DeviceConfig cfg;
  cfg.fault_spec = "seed=4,eintr=0.3,short=0.4";
  cfg.retry.backoff_initial_ms = 0.1;
  cfg.retry.backoff_max_ms = 1.0;
  Device dev(path, cfg);

  // Synchronous path: interrupted faults and short reads are recovered on
  // the calling thread by the engine's routine, and counted like the async
  // path's.
  std::vector<std::uint8_t> sync_buf(32 << 10);
  for (std::size_t off = 0; off < data.size(); off += sync_buf.size()) {
    dev.read(sync_buf.data(), sync_buf.size(), off);
    EXPECT_EQ(std::memcmp(sync_buf.data(), data.data() + off, sync_buf.size()),
              0);
  }
  const DeviceStats sync_stats = dev.stats();
  EXPECT_GT(sync_stats.retries + sync_stats.short_reads, 0u);
  EXPECT_EQ(sync_stats.failed_reads, 0u);

  // Every call coming back short still completes the read: the tail is
  // resubmitted until all 32 KiB arrived.
  DeviceConfig all_short = cfg;
  all_short.fault_spec = "seed=4,short=1";
  Device short_dev(path, all_short);
  std::vector<std::uint8_t> short_buf(32 << 10);
  short_dev.read(short_buf.data(), short_buf.size(), 8192);
  EXPECT_EQ(
      std::memcmp(short_buf.data(), data.data() + 8192, short_buf.size()), 0);
  EXPECT_GT(short_dev.stats().short_reads, 0u);

  // Async path: workers absorb the same faults; stats surface the recovery.
  // Only the growth past sync_stats counts, so the sync reads' counts cannot
  // stand in for the workers'.
  std::vector<std::vector<std::uint8_t>> bufs(8,
                                              std::vector<std::uint8_t>(8192));
  std::vector<ReadRequest> batch;
  for (int i = 0; i < 8; ++i) {
    ReadRequest req;
    req.offset = static_cast<std::uint64_t>(i) * 8192;
    req.length = 8192;
    req.buffer = bufs[i].data();
    req.tag = static_cast<std::uint64_t>(i);
    batch.push_back(req);
  }
  dev.submit(std::move(batch));
  dev.drain();
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(std::memcmp(bufs[i].data(), data.data() + i * 8192, 8192), 0);
  const DeviceStats s = dev.stats() - sync_stats;
  EXPECT_GT(s.retries + s.short_reads, 0u);
  EXPECT_EQ(s.failed_reads, 0u);
}

TEST(Device, EmptyFaultSpecIsPassThrough) {
  TempDir dir;
  const std::string path = write_pattern_file(dir, "v.bin", 4096);
  DeviceConfig cfg;
  cfg.fault_spec = "seed=123";  // a seed alone injects nothing
  Device dev(path, cfg);
  std::vector<std::uint8_t> buf(4096);
  dev.read(buf.data(), buf.size(), 0);
  EXPECT_EQ(dev.stats().retries, 0u);
}

}  // namespace
}  // namespace gstore::io

// ---- WAL replay under a torn tail --------------------------------------

namespace gstore::ingest {
namespace {

std::vector<graph::Edge> some_edges(unsigned n, unsigned salt) {
  std::vector<graph::Edge> v;
  v.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    v.push_back({static_cast<graph::vid_t>(i + salt),
                 static_cast<graph::vid_t>(i * 3 + salt + 1)});
  return v;
}

TEST(WalFault, ReplayThroughSourceMatchesPathReplay) {
  io::TempDir dir;
  const std::string path = dir.file("log.wal");
  {
    EdgeWal wal(path, /*generation=*/2);
    wal.append(some_edges(10, 0));
    wal.append(some_edges(7, 100));
  }
  const WalReplay by_path = EdgeWal::replay(path);
  io::File f(path, io::OpenMode::kRead);
  const WalReplay by_source = EdgeWal::replay(f, path);
  EXPECT_EQ(by_source.edges.size(), by_path.edges.size());
  EXPECT_EQ(by_source.frames, by_path.frames);
  EXPECT_EQ(by_source.generation, 2u);
  EXPECT_EQ(by_source.tail, WalTail::kClean);
}

TEST(WalFault, TornTailDropsOnlyTheLastFrame) {
  io::TempDir dir;
  const std::string path = dir.file("log.wal");
  {
    EdgeWal wal(path, 0);
    wal.append(some_edges(10, 0));   // frame 1: 16 + 80 bytes
    wal.append(some_edges(10, 50));  // frame 2
    wal.append(some_edges(10, 99));  // frame 3
  }
  io::File f(path, io::OpenMode::kRead);
  const WalReplay full = EdgeWal::replay(f, path);
  ASSERT_EQ(full.frames, 3u);
  ASSERT_EQ(full.edges.size(), 30u);
  ASSERT_EQ(full.tail, WalTail::kClean);

  // Tear into frame 3's payload: replay keeps frames 1-2 and reports the
  // torn tail. Sweep several tear depths, including one that leaves only a
  // partial frame header.
  for (const std::uint64_t torn : {1ull, 40ull, 80ull, 90ull}) {
    const io::FaultInjectingSource torn_src(
        f, io::FaultSpec::parse("torn-tail=" + std::to_string(torn)));
    const WalReplay r = EdgeWal::replay(torn_src, path);
    EXPECT_EQ(r.frames, 2u) << "torn=" << torn;
    EXPECT_EQ(r.edges.size(), 20u) << "torn=" << torn;
    EXPECT_EQ(r.tail, WalTail::kTruncated) << "torn=" << torn;
    EXPECT_TRUE(std::equal(r.edges.begin(), r.edges.end(),
                           full.edges.begin(),
                           [](const graph::Edge& a, const graph::Edge& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }))
        << "torn=" << torn;
    EXPECT_GT(r.dropped_bytes, 0u);
  }
}

TEST(WalFault, TearingEverythingLeavesAnEmptyValidLog) {
  io::TempDir dir;
  const std::string path = dir.file("log.wal");
  {
    EdgeWal wal(path, 0);
    wal.append(some_edges(4, 0));
  }
  io::File f(path, io::OpenMode::kRead);
  // Tear every frame away but keep the 16-byte file header intact.
  const std::uint64_t frames_bytes = f.size() - sizeof(WalFileHeader);
  const io::FaultInjectingSource src(
      f,
      io::FaultSpec::parse("torn-tail=" + std::to_string(frames_bytes)));
  const WalReplay r = EdgeWal::replay(src, path);
  EXPECT_TRUE(r.exists);
  EXPECT_EQ(r.frames, 0u);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.tail, WalTail::kClean);  // ends exactly on the header boundary
}

}  // namespace
}  // namespace gstore::ingest
