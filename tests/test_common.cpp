// Tests for the env / rng / timing utility layer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "mvcc/common/env.h"
#include "mvcc/common/rng.h"
#include "mvcc/common/timing.h"
#include "mvcc/obs/obs.h"
#include "mvcc/vm/base.h"

namespace {

using namespace mvcc;

TEST(Env, LongDefaultsAndOverrides) {
  unsetenv("MVCC_TEST_LONG");
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  setenv("MVCC_TEST_LONG", "7", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 7);
  setenv("MVCC_TEST_LONG", "-3", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), -3);
  setenv("MVCC_TEST_LONG", "junk", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  setenv("MVCC_TEST_LONG", "", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  unsetenv("MVCC_TEST_LONG");
}

TEST(Env, DoubleDefaultsAndOverrides) {
  unsetenv("MVCC_TEST_DOUBLE");
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 0.4);
  setenv("MVCC_TEST_DOUBLE", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 2.5);
  setenv("MVCC_TEST_DOUBLE", "nope", 1);
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 0.4);
  unsetenv("MVCC_TEST_DOUBLE");
}

TEST(Env, ScaleMultipliesAndClampsToOne) {
  unsetenv("MVCC_SCALE");
  EXPECT_EQ(Config::from_env().scaled(1000), 1000);
  setenv("MVCC_SCALE", "2.5", 1);
  EXPECT_EQ(Config::from_env().scaled(1000), 2500);
  setenv("MVCC_SCALE", "0.0001", 1);
  // A positive base never scales to zero.
  EXPECT_EQ(Config::from_env().scaled(1000), 1);
  unsetenv("MVCC_SCALE");
}

TEST(Env, ScaleNoArgReturnsRawMultiplier) {
  unsetenv("MVCC_SCALE");
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 1.0);
  setenv("MVCC_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 2.5);
  setenv("MVCC_SCALE", "0.01", 1);
  // Fractional scales pass through.
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 0.01);
  setenv("MVCC_SCALE", "junk", 1);
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 1.0);
  unsetenv("MVCC_SCALE");
}

TEST(Env, GrainDefaultsOverridesAndRejectsNonPositive) {
  unsetenv("MVCC_GRAIN");
  EXPECT_EQ(Config::from_env().grain, 2048);
  setenv("MVCC_GRAIN", "64", 1);
  EXPECT_EQ(Config::from_env().grain, 64);
  setenv("MVCC_GRAIN", "0", 1);
  // A grain of 0 would fork every node.
  EXPECT_EQ(Config::from_env().grain, 2048);
  setenv("MVCC_GRAIN", "-5", 1);
  EXPECT_EQ(Config::from_env().grain, 2048);
  setenv("MVCC_GRAIN", "junk", 1);
  EXPECT_EQ(Config::from_env().grain, 2048);
  unsetenv("MVCC_GRAIN");
}

TEST(Env, ThreadsIsPositive) {
  unsetenv("MVCC_THREADS");
  EXPECT_GE(Config::from_env().threads, 1);
  setenv("MVCC_THREADS", "5", 1);
  EXPECT_EQ(Config::from_env().threads, 5);
  setenv("MVCC_THREADS", "-2", 1);
  EXPECT_GE(Config::from_env().threads, 1);
  unsetenv("MVCC_THREADS");
}

TEST(Env, GrainClampsTinyValuesToFloor) {
  // Grains below kGrainFloor make bulk ops fork per handful of nodes; the
  // parser clamps them up rather than letting a typo'd knob fall off a
  // scheduling cliff. Non-positive values still mean "use the default".
  setenv("MVCC_GRAIN", "1", 1);
  EXPECT_EQ(Config::from_env().grain, kGrainFloor);
  setenv("MVCC_GRAIN", "63", 1);
  EXPECT_EQ(Config::from_env().grain, kGrainFloor);
  setenv("MVCC_GRAIN", "64", 1);
  // The floor itself passes through.
  EXPECT_EQ(Config::from_env().grain, 64);
  unsetenv("MVCC_GRAIN");
}

TEST(Env, ConfigFromEnvSeedsEveryKnob) {
  setenv("MVCC_SCALE", "2.0", 1);
  setenv("MVCC_THREADS", "3", 1);
  setenv("MVCC_GRAIN", "512", 1);
  Config c = Config::from_env();
  EXPECT_DOUBLE_EQ(c.scale, 2.0);
  EXPECT_EQ(c.threads, 3);
  EXPECT_EQ(c.grain, 512);
  EXPECT_TRUE(c.alloc_pooled);  // MVCC_ALLOC unset -> slab route
  EXPECT_EQ(c.shards, 1);       // MVCC_SHARDS unset -> single shard
  EXPECT_EQ(c.scaled(1000), 2000);
  EXPECT_EQ(c.scaled(0), 0);  // zero base is exempt from the >=1 clamp
  unsetenv("MVCC_SCALE");
  unsetenv("MVCC_THREADS");
  unsetenv("MVCC_GRAIN");
}

TEST(Env, ConfigShardsParsesAndClamps) {
  setenv("MVCC_SHARDS", "4", 1);
  EXPECT_EQ(Config::from_env().shards, 4);
  setenv("MVCC_SHARDS", "0", 1);  // non-positive clamps to 1
  EXPECT_EQ(Config::from_env().shards, 1);
  setenv("MVCC_SHARDS", "-3", 1);
  EXPECT_EQ(Config::from_env().shards, 1);
  setenv("MVCC_SHARDS", "100000", 1);  // absurd counts clamp to 256
  EXPECT_EQ(Config::from_env().shards, 256);
  setenv("MVCC_SHARDS", "bogus", 1);  // malformed falls back to default
  EXPECT_EQ(Config::from_env().shards, 1);
  unsetenv("MVCC_SHARDS");
  EXPECT_EQ(Config::from_env().shards, 1);
}

TEST(Env, ConfigFromEnvParsesObsAndReclaimKnobs) {
  const char* kKnobs[] = {"MVCC_STATS", "MVCC_PERF", "MVCC_TRACE",
                          "MVCC_BG_RECLAIM"};
  for (const char* k : kKnobs) unsetenv(k);
  Config c = Config::from_env();
  EXPECT_FALSE(c.stats);
  EXPECT_FALSE(c.perf);
  EXPECT_TRUE(c.trace_path.empty());
  EXPECT_FALSE(c.bg_reclaim);

  setenv("MVCC_STATS", "1", 1);
  setenv("MVCC_PERF", "1", 1);
  setenv("MVCC_TRACE", "trace.json", 1);
  setenv("MVCC_BG_RECLAIM", "1", 1);
  c = Config::from_env();
  EXPECT_TRUE(c.stats);
  EXPECT_TRUE(c.perf);
  EXPECT_EQ(c.trace_path, "trace.json");
  EXPECT_TRUE(c.bg_reclaim);

  // Any nonzero number switches a flag on; 0 switches it off.
  setenv("MVCC_STATS", "2", 1);
  setenv("MVCC_PERF", "0", 1);
  setenv("MVCC_BG_RECLAIM", "-1", 1);
  c = Config::from_env();
  EXPECT_TRUE(c.stats);
  EXPECT_FALSE(c.perf);
  EXPECT_TRUE(c.bg_reclaim);

  // Malformed values fall back to the default (off), and an empty
  // MVCC_TRACE names no file.
  setenv("MVCC_STATS", "yes", 1);
  setenv("MVCC_PERF", "on", 1);
  setenv("MVCC_TRACE", "", 1);
  setenv("MVCC_BG_RECLAIM", "1x", 1);
  c = Config::from_env();
  EXPECT_FALSE(c.stats);
  EXPECT_FALSE(c.perf);
  EXPECT_TRUE(c.trace_path.empty());
  EXPECT_FALSE(c.bg_reclaim);
  for (const char* k : kKnobs) unsetenv(k);
}

// config() parses the environment at its first call — not at static
// initialisation — and never again; the obs/ and vm/ run-time switches
// start at its values. No other test in this binary calls config(), so the
// environment set here is the one it parses.
TEST(Env, ConfigIsReadOnceAndSeedsRuntimeSwitches) {
  setenv("MVCC_STATS", "1", 1);
  setenv("MVCC_TRACE", "never-written.json", 1);
  setenv("MVCC_BG_RECLAIM", "1", 1);
  setenv("MVCC_SHARDS", "3", 1);
  const Config& c = config();
  EXPECT_TRUE(c.stats);
  EXPECT_EQ(c.trace_path, "never-written.json");
  EXPECT_TRUE(c.bg_reclaim);
  EXPECT_EQ(c.shards, 3);
#if defined(MVCC_STATS_DISABLED)
  EXPECT_FALSE(obs::enabled());
  EXPECT_FALSE(obs::trace_on());
#else
  EXPECT_TRUE(obs::enabled());
  EXPECT_TRUE(obs::trace_on());
#endif
  EXPECT_TRUE(vm::bg_reclaim_enabled());

  // A later change to the environment changes nothing.
  setenv("MVCC_SHARDS", "7", 1);
  unsetenv("MVCC_STATS");
  unsetenv("MVCC_TRACE");
  unsetenv("MVCC_BG_RECLAIM");
  EXPECT_EQ(config().shards, 3);
  EXPECT_TRUE(config().stats);
  unsetenv("MVCC_SHARDS");
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, ZeroSeedIsUsable) {
  Xoshiro256 rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 60u);  // not stuck in a degenerate cycle
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Timing, TimerAdvancesAndResets) {
  Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.seconds(), b);
}

}  // namespace
