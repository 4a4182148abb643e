// Tests for util/sync.h: wrapper behavior in every build, lockdep-lite
// reports in GSTORE_DCHECK builds (skipped elsewhere — release builds
// compile the checking out entirely).
#include "util/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace gstore {
namespace {

TEST(SyncTest, MutexProvidesMutualExclusion) {
  Mutex mu{"test::counter_mu"};
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000u);
}

TEST(SyncTest, TryLockReflectsOwnership) {
  Mutex mu{"test::trylock_mu"};
  ASSERT_TRUE(mu.try_lock());
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
}

TEST(SyncTest, CondVarWaitReleasesAndReacquires) {
  Mutex mu{"test::cv_mu"};
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

#if GSTORE_LOCKDEP

// The two-lock inversion: thread 1 takes A then B (recording A → B), thread
// 2 then takes B and A in the reverse order. Lockdep must abort on the
// second thread's acquisition of A even though this interleaving never
// actually deadlocks (thread 1 is long gone).
void run_ab_ba_inversion() {
  Mutex a{"test::A"};
  Mutex b{"test::B"};
  std::thread t1([&] {
    MutexLock la(a);
    MutexLock lb(b);
  });
  t1.join();
  std::thread t2([&] {
    MutexLock lb(b);
    MutexLock la(a);  // inversion: aborts here
  });
  t2.join();
}

TEST(SyncLockdepDeathTest, DetectsOrderInversion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_ab_ba_inversion(), "lock-order inversion");
}

void run_transitive_inversion() {
  Mutex a{"test::TA"};
  Mutex b{"test::TB"};
  Mutex c{"test::TC"};
  {
    MutexLock la(a);
    MutexLock lb(b);  // A → B
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);  // B → C
  }
  {
    MutexLock lc(c);
    MutexLock la(a);  // closes C → A: cycle through B
  }
}

TEST(SyncLockdepDeathTest, DetectsInversionThroughChain) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_transitive_inversion(), "lock-order inversion");
}

TEST(SyncLockdepDeathTest, DetectsRecursiveAcquisition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      [] {
        Mutex mu{"test::recursive"};
        MutexLock outer(mu);
        mu.lock();  // self-deadlock
      }(),
      "recursive acquisition");
}

TEST(SyncLockdepTest, ConsistentOrderIsQuiet) {
  // Same pair, same order, from two threads: no report, no deadlock.
  Mutex a{"test::QA"};
  Mutex b{"test::QB"};
  auto locked_sum = [&] {
    for (int i = 0; i < 100; ++i) {
      MutexLock la(a);
      MutexLock lb(b);
    }
  };
  std::thread t1(locked_sum);
  std::thread t2(locked_sum);
  t1.join();
  t2.join();
}

#else  // !GSTORE_LOCKDEP

TEST(SyncLockdepDeathTest, CompiledOutInRelease) {
  GTEST_SKIP() << "lockdep rides GSTORE_DCHECK builds; nothing to test here";
}

#endif  // GSTORE_LOCKDEP

}  // namespace
}  // namespace gstore
