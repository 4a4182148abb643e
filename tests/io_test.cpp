#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "io/async_engine.h"
#include "io/device.h"
#include "io/file.h"
#include "io/throttle.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::io {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return v;
}

// ---- File ---------------------------------------------------------------

TEST(File, WriteReadRoundtrip) {
  TempDir dir;
  const auto data = pattern_bytes(10000);
  {
    File f(dir.file("a.bin"), OpenMode::kWrite);
    f.append(data.data(), data.size());
    f.sync();
  }
  File f(dir.file("a.bin"), OpenMode::kRead);
  EXPECT_EQ(f.size(), data.size());
  std::vector<std::uint8_t> back(data.size());
  f.pread_full(back.data(), back.size(), 0);
  EXPECT_EQ(back, data);
}

TEST(File, PreadAtOffset) {
  TempDir dir;
  const auto data = pattern_bytes(4096);
  File w(dir.file("b.bin"), OpenMode::kWrite);
  w.append(data.data(), data.size());
  File r(dir.file("b.bin"), OpenMode::kRead);
  std::uint8_t byte = 0;
  r.pread_full(&byte, 1, 1234);
  EXPECT_EQ(byte, data[1234]);
}

TEST(File, ShortReadThrows) {
  TempDir dir;
  File w(dir.file("c.bin"), OpenMode::kWrite);
  w.append("hello", 5);
  File r(dir.file("c.bin"), OpenMode::kRead);
  char buf[32];
  EXPECT_THROW(r.pread_full(buf, 32, 0), IoError);
  EXPECT_EQ(r.pread_some(buf, 32, 0), 5u);
  EXPECT_EQ(r.pread_some(buf, 32, 100), 0u);  // past EOF
}

TEST(File, OpenMissingThrows) {
  EXPECT_THROW(File("/nonexistent/dir/file", OpenMode::kRead), IoError);
}

TEST(File, TruncateAndSize) {
  TempDir dir;
  File f(dir.file("d.bin"), OpenMode::kReadWrite);
  const auto data = pattern_bytes(1000);
  f.pwrite_full(data.data(), data.size(), 0);
  EXPECT_EQ(f.size(), 1000u);
  f.truncate(100);
  EXPECT_EQ(f.size(), 100u);
}

TEST(File, MoveSemantics) {
  TempDir dir;
  File a(dir.file("e.bin"), OpenMode::kWrite);
  a.append("x", 1);
  File b(std::move(a));
  EXPECT_FALSE(a.is_open());
  EXPECT_TRUE(b.is_open());
  b.append("y", 1);
  b.close();
  EXPECT_EQ(File::file_size(dir.file("e.bin")), 2u);
}

TEST(File, ExistsAndRemove) {
  TempDir dir;
  const std::string p = dir.file("f.bin");
  EXPECT_FALSE(File::exists(p));
  {
    File f(p, OpenMode::kWrite);
  }
  EXPECT_TRUE(File::exists(p));
  File::remove(p);
  EXPECT_FALSE(File::exists(p));
  File::remove(p);  // idempotent
}

TEST(TempDir, RemovesContentsOnDestruction) {
  std::string path;
  {
    TempDir dir;
    path = dir.path();
    File f(dir.file("x"), OpenMode::kWrite);
    f.append("data", 4);
    EXPECT_TRUE(File::exists(path));
  }
  EXPECT_FALSE(File::exists(path));
}

// ---- AsyncEngine --------------------------------------------------------

class AsyncEngineTest : public ::testing::TestWithParam<Backend> {};

TEST_P(AsyncEngineTest, BatchReadCompletesAll) {
  TempDir dir;
  const auto data = pattern_bytes(64 * 1024);
  {
    File w(dir.file("a.bin"), OpenMode::kWrite);
    w.append(data.data(), data.size());
  }
  File r(dir.file("a.bin"), OpenMode::kRead);
  AsyncEngine eng(GetParam(), 16, 2);

  constexpr int kReqs = 20;
  std::vector<std::vector<std::uint8_t>> bufs(kReqs,
                                              std::vector<std::uint8_t>(1024));
  std::vector<ReadRequest> batch;
  for (int i = 0; i < kReqs; ++i) {
    ReadRequest req;
    req.file = &r;
    req.offset = static_cast<std::uint64_t>(i) * 1024;
    req.length = 1024;
    req.buffer = bufs[i].data();
    req.tag = static_cast<std::uint64_t>(i);
    batch.push_back(req);
  }
  eng.submit(batch);

  std::vector<Completion> done;
  while (done.size() < kReqs) eng.poll(1, kReqs, done);
  EXPECT_EQ(eng.in_flight(), 0u);

  std::vector<bool> seen(kReqs, false);
  for (const auto& c : done) {
    EXPECT_TRUE(c.ok);
    EXPECT_EQ(c.bytes, 1024u);
    seen[c.tag] = true;
  }
  for (int i = 0; i < kReqs; ++i) {
    EXPECT_TRUE(seen[i]);
    EXPECT_EQ(std::memcmp(bufs[i].data(), data.data() + i * 1024, 1024), 0);
  }
  EXPECT_EQ(eng.bytes_read(), static_cast<std::uint64_t>(kReqs) * 1024);
  EXPECT_EQ(eng.submit_calls(), 1u);
}

TEST_P(AsyncEngineTest, EofGivesShortCompletion) {
  TempDir dir;
  {
    File w(dir.file("s.bin"), OpenMode::kWrite);
    w.append("abc", 3);
  }
  File r(dir.file("s.bin"), OpenMode::kRead);
  AsyncEngine eng(GetParam());
  std::uint8_t buf[16];
  eng.submit({ReadRequest{&r, 0, 16, buf, 1}});
  std::vector<Completion> done;
  eng.poll(1, 1, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_EQ(done[0].bytes, 3u);
}

TEST_P(AsyncEngineTest, DrainWaitsForEverything) {
  TempDir dir;
  const auto data = pattern_bytes(256 * 1024);
  {
    File w(dir.file("d.bin"), OpenMode::kWrite);
    w.append(data.data(), data.size());
  }
  File r(dir.file("d.bin"), OpenMode::kRead);
  AsyncEngine eng(GetParam(), 8, 2);
  std::vector<std::vector<std::uint8_t>> bufs(50,
                                              std::vector<std::uint8_t>(4096));
  std::vector<ReadRequest> batch;
  for (int i = 0; i < 50; ++i)
    batch.push_back(ReadRequest{&r, static_cast<std::uint64_t>(i) * 4096, 4096,
                                bufs[i].data(), static_cast<std::uint64_t>(i)});
  eng.submit(batch);
  eng.drain();
  EXPECT_EQ(eng.in_flight(), 0u);
  EXPECT_EQ(eng.bytes_read(), 50u * 4096);
}

TEST_P(AsyncEngineTest, NonBlockingPollReturnsZeroWhenIdle) {
  AsyncEngine eng(GetParam());
  std::vector<Completion> done;
  EXPECT_EQ(eng.poll(0, 8, done), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncEngineTest,
                         ::testing::Values(Backend::kThreadPool, Backend::kSync),
                         [](const auto& info) {
                           return info.param == Backend::kThreadPool ? "ThreadPool"
                                                                     : "Sync";
                         });

// ---- Throttle -----------------------------------------------------------

TEST(Throttle, DisabledIsFree) {
  Throttle t(0);
  Timer timer;
  for (int i = 0; i < 100; ++i) t.acquire(100 << 20);
  EXPECT_LT(timer.seconds(), 0.5);
}

TEST(Throttle, LimitsSustainedRate) {
  // 100 MB/s with a 1MB burst: acquiring 20MB more than the burst must take
  // roughly 20MB / 100MBps ~= 0.2s.
  Throttle t(100ull << 20, 1ull << 20);
  Timer timer;
  std::uint64_t total = 0;
  while (total < (21ull << 20)) {
    t.acquire(256 << 10);
    total += 256 << 10;
  }
  const double elapsed = timer.seconds();
  EXPECT_GT(elapsed, 0.10);
  EXPECT_LT(elapsed, 2.0);
}

TEST(Throttle, OversizedRequestProceeds) {
  Throttle t(1ull << 30, 64 << 10);  // request far above burst
  t.acquire(10ull << 20);            // must not deadlock
}

// ---- Device -------------------------------------------------------------

TEST(Device, SyncReadAndStats) {
  TempDir dir;
  const auto data = pattern_bytes(32 * 1024);
  {
    File w(dir.file("v.bin"), OpenMode::kWrite);
    w.append(data.data(), data.size());
  }
  Device dev(dir.file("v.bin"));
  std::vector<std::uint8_t> buf(1024);
  dev.read(buf.data(), buf.size(), 2048);
  EXPECT_EQ(std::memcmp(buf.data(), data.data() + 2048, 1024), 0);
  EXPECT_EQ(dev.stats().bytes_read, 1024u);
  EXPECT_EQ(dev.stats().read_ops, 1u);
}

TEST(Device, AsyncBatchAndDrain) {
  TempDir dir;
  const auto data = pattern_bytes(64 * 1024);
  {
    File w(dir.file("w.bin"), OpenMode::kWrite);
    w.append(data.data(), data.size());
  }
  Device dev(dir.file("w.bin"));
  std::vector<std::uint8_t> a(4096), b(4096);
  std::vector<ReadRequest> batch(2);
  batch[0].offset = 0;
  batch[0].length = 4096;
  batch[0].buffer = a.data();
  batch[0].tag = 1;
  batch[1].offset = 8192;
  batch[1].length = 4096;
  batch[1].buffer = b.data();
  batch[1].tag = 2;
  dev.submit(std::move(batch));
  dev.drain();
  EXPECT_EQ(std::memcmp(a.data(), data.data(), 4096), 0);
  EXPECT_EQ(std::memcmp(b.data(), data.data() + 8192, 4096), 0);
  EXPECT_EQ(dev.stats().bytes_read, 8192u);
  EXPECT_EQ(dev.stats().submit_calls, 1u);
}

TEST(Device, ThrottledDeviceSlowerThanUnthrottled) {
  TempDir dir;
  const auto data = pattern_bytes(4 << 20);
  {
    File w(dir.file("t.bin"), OpenMode::kWrite);
    w.append(data.data(), data.size());
  }
  std::vector<std::uint8_t> buf(4 << 20);

  DeviceConfig slow;
  slow.devices = 1;
  slow.per_device_bw = 8ull << 20;  // 8 MB/s
  Device dev(dir.file("t.bin"), slow);
  Timer t;
  dev.read(buf.data(), buf.size(), 0);
  // 4MB at 8MB/s minus the initial 4MB burst allowance: should take a
  // measurable fraction of a second but not instantly.
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_EQ(dev.stats().bytes_read, std::uint64_t{4} << 20);
}

}  // namespace
}  // namespace gstore::io
// Appended: byte-range tiering (future-work feature).
#include "io/tiering.h"

namespace gstore::io {
namespace {

TEST(TierMap, SplitsRangesExactly) {
  TierMap m;
  m.add_range(0, 100, 0);
  m.add_range(100, 300, 1);
  m.add_range(300, 400, 0);
  EXPECT_EQ(m.split(0, 100), (std::pair<std::uint64_t, std::uint64_t>{100, 0}));
  EXPECT_EQ(m.split(100, 300), (std::pair<std::uint64_t, std::uint64_t>{0, 200}));
  // 50..100 fast (50) + 100..300 slow (200) + 300..350 fast (50).
  EXPECT_EQ(m.split(50, 350), (std::pair<std::uint64_t, std::uint64_t>{100, 200}));
  EXPECT_EQ(m.split(150, 250), (std::pair<std::uint64_t, std::uint64_t>{0, 100}));
  EXPECT_EQ(m.tier_bytes(0), 200u);
  EXPECT_EQ(m.tier_bytes(1), 200u);
}

TEST(TierMap, UndeclaredBytesAreFast) {
  TierMap m;
  m.add_range(100, 200, 1);
  EXPECT_EQ(m.split(0, 100).second, 0u);
  EXPECT_EQ(m.split(0, 300).second, 100u);
  EXPECT_EQ(m.split(250, 300).second, 0u);
}

TEST(TierMap, MergesAdjacentSameTier) {
  TierMap m;
  m.add_range(0, 50, 1);
  m.add_range(50, 100, 1);
  EXPECT_EQ(m.split(0, 100).second, 100u);
}

TEST(TierMap, RejectsOutOfOrder) {
  TierMap m;
  m.add_range(100, 200, 0);
  EXPECT_THROW(m.add_range(50, 150, 1), gstore::Error);
  EXPECT_THROW(m.add_range(300, 250, 0), gstore::Error);
  EXPECT_THROW(m.add_range(300, 400, 7), gstore::Error);
}

TEST(TierMap, EmptySplit) {
  TierMap m;
  EXPECT_EQ(m.split(10, 10).first, 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Device, TieredReadsChargeSlowTier) {
  TempDir dir;
  const auto data = pattern_bytes(2 << 20);
  {
    File w(dir.file("t.bin"), OpenMode::kWrite);
    w.append(data.data(), data.size());
  }
  DeviceConfig cfg;
  cfg.devices = 1;
  cfg.per_device_bw = 1ull << 30;  // fast tier effectively free
  cfg.slow_tier_bw = 8ull << 20;   // slow tier 8 MB/s
  cfg.burst_bytes = 64 << 10;
  TierMap map;
  map.add_range(0, 1 << 20, 0);
  map.add_range(1 << 20, 2 << 20, 1);
  Device dev(dir.file("t.bin"), cfg, std::move(map));

  std::vector<std::uint8_t> buf(1 << 20);
  Timer fast_t;
  dev.read(buf.data(), buf.size(), 0);  // fast tier
  const double fast_secs = fast_t.seconds();
  Timer slow_t;
  dev.read(buf.data(), buf.size(), 1 << 20);  // slow tier: ~1MB at 8MB/s
  const double slow_secs = slow_t.seconds();
  EXPECT_GT(slow_secs, 0.05);
  EXPECT_GT(slow_secs, 5 * fast_secs);
  EXPECT_EQ(std::memcmp(buf.data(), data.data() + (1 << 20), 1 << 20), 0);
}

}  // namespace
}  // namespace gstore::io
// Appended: RAID-0 style striping.
#include "io/striped.h"

#include "util/rng.h"

namespace gstore::io {
namespace {

TEST(Striped, RoundTripMatchesFlatFile) {
  TempDir dir;
  const auto data = pattern_bytes(300'000);  // not a stripe multiple
  {
    File f(dir.file("flat"), OpenMode::kWrite);
    f.append(data.data(), data.size());
  }
  for (const unsigned members : {1u, 2u, 3u, 8u}) {
    const std::string base = dir.file("set" + std::to_string(members));
    const std::uint64_t total =
        stripe_file(dir.file("flat"), base, members, 4096);
    EXPECT_EQ(total, data.size());
    StripedFile sf(base, members, 4096);
    EXPECT_EQ(sf.size(), data.size());

    std::vector<std::uint8_t> back(data.size());
    sf.pread_full(back.data(), back.size(), 0);
    ASSERT_EQ(back, data) << members << " members";
  }
}

TEST(Striped, RandomOffsetReadsMatch) {
  TempDir dir;
  const auto data = pattern_bytes(100'000);
  {
    File f(dir.file("flat"), OpenMode::kWrite);
    f.append(data.data(), data.size());
  }
  stripe_file(dir.file("flat"), dir.file("set"), 4, 1024);
  StripedFile sf(dir.file("set"), 4, 1024);
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t off = rng.next_below(data.size());
    const std::size_t len =
        static_cast<std::size_t>(rng.next_below(5000) + 1);
    std::vector<std::uint8_t> got(len, 0);
    const std::size_t n = sf.pread_some(got.data(), len, off);
    const std::size_t want_n =
        static_cast<std::size_t>(std::min<std::uint64_t>(len, data.size() - off));
    ASSERT_EQ(n, want_n);
    ASSERT_EQ(0, std::memcmp(got.data(), data.data() + off, n));
  }
  // Reads entirely past EOF return zero bytes.
  std::uint8_t b;
  EXPECT_EQ(sf.pread_some(&b, 1, data.size() + 10), 0u);
}

TEST(Striped, MissingMemberThrows) {
  TempDir dir;
  {
    File f(dir.file("flat"), OpenMode::kWrite);
    f.append("0123456789", 10);
  }
  stripe_file(dir.file("flat"), dir.file("set"), 2, 1024);
  EXPECT_THROW(StripedFile(dir.file("set"), 3, 1024), IoError);
}

TEST(Striped, DeviceReadsThroughStripes) {
  TempDir dir;
  const auto data = pattern_bytes(256 * 1024);
  {
    File f(dir.file("flat"), OpenMode::kWrite);
    f.append(data.data(), data.size());
  }
  stripe_file(dir.file("flat"), dir.file("set"), 4);
  DeviceConfig cfg;
  cfg.stripe_files = 4;
  Device dev(dir.file("set"), cfg);
  EXPECT_EQ(dev.size(), data.size());
  std::vector<std::uint8_t> a(10'000), b(10'000);
  dev.read(a.data(), a.size(), 12'345);
  EXPECT_EQ(0, std::memcmp(a.data(), data.data() + 12'345, a.size()));
  std::vector<ReadRequest> batch(1);
  batch[0].offset = 100'000;
  batch[0].length = b.size();
  batch[0].buffer = b.data();
  dev.submit(std::move(batch));
  dev.drain();
  EXPECT_EQ(0, std::memcmp(b.data(), data.data() + 100'000, b.size()));
}

}  // namespace
}  // namespace gstore::io
