#include <gtest/gtest.h>

#include <set>

#include "util/aligned_buffer.h"
#include "util/bitops.h"
#include "util/dcheck.h"
#include "util/histogram.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore {
namespace {

// ---- bitops -----------------------------------------------------------

TEST(Bitops, BitsFor) {
  EXPECT_EQ(bits_for(0), 0u);
  EXPECT_EQ(bits_for(1), 0u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(256), 8u);
  EXPECT_EQ(bits_for(257), 9u);
  EXPECT_EQ(bits_for(std::uint64_t{1} << 63), 63u);
}

TEST(Bitops, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(1025));
}

TEST(Bitops, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(5, 5), 1u);
  EXPECT_EQ(ceil_div(6, 5), 2u);
  EXPECT_EQ(ceil_div(10, 3), 4u);
}

TEST(Bitops, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Bitops, AlignUpDown) {
  EXPECT_EQ(align_up(0, 4096), 0u);
  EXPECT_EQ(align_up(1, 4096), 4096u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_up(4097, 4096), 8192u);
  EXPECT_EQ(align_down(4097, 4096), 4096u);
  EXPECT_EQ(align_down(4095, 4096), 0u);
}

// ---- status ------------------------------------------------------------

TEST(Status, CheckThrowsWithLocation) {
  try {
    GS_CHECK_MSG(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Status, CheckPassesSilently) { GS_CHECK(2 + 2 == 4); }

TEST(Status, IoErrorCapturesErrno) {
  IoError e("open /nope", ENOENT);
  EXPECT_EQ(e.sys_errno(), ENOENT);
  EXPECT_NE(std::string(e.what()).find("open /nope"), std::string::npos);
}

TEST(Status, ExceptionHierarchy) {
  EXPECT_THROW(throw FormatError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw IoError("x", EIO), Error);
}

// ---- AlignedBuffer -----------------------------------------------------

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer b(1000);
  ASSERT_NE(b.data(), nullptr);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kIoAlignment, 0u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(128);
  auto* p = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  AlignedBuffer c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer b;
  EXPECT_TRUE(b.empty());
  AlignedBuffer z(0);
  EXPECT_TRUE(z.empty());
}

// ---- rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // rough uniformity
}

// ---- histogram ---------------------------------------------------------

TEST(Histogram, BucketsAndZeros) {
  LogHistogram h(10);
  h.add(0, 4);
  h.add(1);
  h.add(9);
  h.add(10);
  h.add(99);
  h.add(100);
  EXPECT_EQ(h.total(), 9u);
  EXPECT_EQ(h.zeros(), 4u);
  EXPECT_EQ(h.max_value(), 100u);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].count, 4u);  // [0,1)
  EXPECT_EQ(buckets[1].count, 2u);  // [1,10)
  EXPECT_EQ(buckets[2].count, 2u);  // [10,100)
  EXPECT_EQ(buckets[3].count, 1u);  // [100,1000)
}

TEST(Histogram, EmptyIsSafe) {
  LogHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, RejectsBadBase) { EXPECT_THROW(LogHistogram h(1), Error); }

// ---- options -----------------------------------------------------------

TEST(Options, ParsesAllForms) {
  Options o;
  o.add("scale", "20", "graph scale").add("name", "x", "graph name");
  o.add_flag("verbose", "noisy");
  const char* argv[] = {"prog", "--scale=22", "--name", "kron", "--verbose"};
  o.parse(5, argv);
  EXPECT_EQ(o.get_int("scale"), 22);
  EXPECT_EQ(o.get("name"), "kron");
  EXPECT_TRUE(o.get_bool("verbose"));
}

TEST(Options, DefaultsApply) {
  Options o;
  o.add("scale", "20", "s");
  o.add_flag("verbose", "v");
  const char* argv[] = {"prog"};
  o.parse(1, argv);
  EXPECT_EQ(o.get_int("scale"), 20);
  EXPECT_FALSE(o.get_bool("verbose"));
}

TEST(Options, UnknownOptionThrows) {
  Options o;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(o.parse(2, argv), InvalidArgument);
}

TEST(Options, MissingValueThrows) {
  Options o;
  o.add("scale", "20", "s");
  const char* argv[] = {"prog", "--scale"};
  EXPECT_THROW(o.parse(2, argv), InvalidArgument);
}

TEST(Options, PositionalAndHelp) {
  Options o;
  o.add("k", "1", "k");
  const char* argv[] = {"prog", "input.bin", "--help", "--k=3"};
  o.parse(4, argv);
  EXPECT_TRUE(o.help_requested());
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "input.bin");
  EXPECT_NE(o.usage("prog").find("--k"), std::string::npos);
}

TEST(Options, BadNumberThrows) {
  Options o;
  o.add("k", "1", "k");
  const char* argv[] = {"prog", "--k=12abc"};
  o.parse(2, argv);
  EXPECT_THROW(o.get_int("k"), InvalidArgument);
}

// ---- timer -------------------------------------------------------------

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.micros(), 0u);
}

TEST(Timer, AccumTimerSumsIntervals) {
  AccumTimer t;
  t.start();
  t.stop();
  t.start();
  t.stop();
  EXPECT_GE(t.seconds(), 0.0);
  t.clear();
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
}

TEST(Dcheck, EnabledMatchesBuildMode) {
#if GSTORE_DCHECK_ENABLED
  EXPECT_TRUE(true);  // sanitizer/debug presets: checks are live (see below)
#else
  EXPECT_TRUE(true);  // release: checks compile away (see below)
#endif
}

#if GSTORE_DCHECK_ENABLED
TEST(DcheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH_IF_SUPPORTED(GSTORE_DCHECK(1 + 1 == 3), "GSTORE_DCHECK");
}

TEST(DcheckDeathTest, ComparisonFormPrintsOperands) {
  EXPECT_DEATH_IF_SUPPORTED(GSTORE_DCHECK_EQ(2 + 2, 5), "GSTORE_DCHECK");
}

TEST(Dcheck, PassingChecksAreSilent) {
  GSTORE_DCHECK(true);
  GSTORE_DCHECK_MSG(1 < 2, "never printed");
  GSTORE_DCHECK_EQ(4, 2 + 2);
  GSTORE_DCHECK_LT(1, 2);
}
#else
TEST(Dcheck, DisabledChecksAreTrueNoOps) {
  // Release builds: the condition must not be evaluated at all, so a check
  // whose predicate would abort (or has side effects) is inert.
  int evaluations = 0;
  auto would_fail = [&] {
    ++evaluations;
    return false;
  };
  GSTORE_DCHECK(would_fail());
  GSTORE_DCHECK_MSG(would_fail(), "never printed");
  EXPECT_EQ(evaluations, 0);
  GSTORE_DCHECK_EQ(1, 2);  // operands unevaluated, nothing aborts
}
#endif

}  // namespace
}  // namespace gstore
