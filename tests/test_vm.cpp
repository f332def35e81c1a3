// Tests for the vm/ versioned-map subsystem: per-algorithm semantics, the
// precise freed sets of PSWF/PSLF, the characteristic live-version bounds
// of each reclamation scheme (HP's 2P, RCU's 1, EP's stalled-reader
// blow-up), and multi-threaded stress proving no version is ever freed
// while a reader holds it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "mvcc/common/timing.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/vm/base.h"
#include "mvcc/vm/ep.h"
#include "mvcc/vm/hp.h"
#include "mvcc/vm/ibr.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/vm/rcu.h"
#include "mvcc/workload/range_workload.h"

namespace {

using namespace mvcc::vm;

struct Payload {
  int id;
};

static_assert(VersionManagerFor<BaseVersionManager<Payload>, Payload>);
static_assert(VersionManagerFor<PswfVersionManager<Payload>, Payload>);
static_assert(VersionManagerFor<PslfVersionManager<Payload>, Payload>);
static_assert(VersionManagerFor<HpVersionManager<Payload>, Payload>);
static_assert(VersionManagerFor<EpVersionManager<Payload>, Payload>);
static_assert(VersionManagerFor<IbrVersionManager<Payload>, Payload>);
static_assert(VersionManagerFor<RcuVersionManager<Payload>, Payload>);

// ---------------------------------------------------------------------------
// Semantics shared by every algorithm.

template <class VM>
class VmBasics : public ::testing::Test {};

using AllVms =
    ::testing::Types<BaseVersionManager<Payload>, PswfVersionManager<Payload>,
                     PslfVersionManager<Payload>, HpVersionManager<Payload>,
                     EpVersionManager<Payload>, IbrVersionManager<Payload>,
                     RcuVersionManager<Payload>>;
TYPED_TEST_SUITE(VmBasics, AllVms);

TYPED_TEST(VmBasics, AcquireSeesTheLatestSet) {
  Payload a{0}, b{1}, c{2};
  TypeParam vm(2, &a);
  EXPECT_EQ(vm.acquire(0), &a);
  for (Payload* dead : vm.release(0)) (void)dead;

  vm.acquire(0);
  vm.set(0, &b);
  vm.release(0);
  EXPECT_EQ(vm.acquire(0), &b);
  vm.release(0);

  vm.acquire(0);
  vm.set(0, &c);
  vm.release(0);
  EXPECT_EQ(vm.acquire(0), &c);
  vm.release(0);
  (void)vm.shutdown_drain();
}

// Every payload handed to the manager comes back exactly once — through
// set, release, or the final drain — and the live counter returns to zero.
TYPED_TEST(VmBasics, EveryVersionReturnedExactlyOnce) {
  constexpr int kVersions = 64;
  std::vector<Payload> payloads(kVersions + 1);
  for (int i = 0; i <= kVersions; ++i) payloads[i].id = i;

  TypeParam vm(3, &payloads[0]);
  std::multiset<Payload*> returned;
  for (int i = 1; i <= kVersions; ++i) {
    vm.acquire(0);
    for (Payload* dead : vm.set(0, &payloads[i])) returned.insert(dead);
    for (Payload* dead : vm.release(0)) returned.insert(dead);
  }
  for (Payload* dead : vm.shutdown_drain()) returned.insert(dead);

  EXPECT_EQ(returned.size(), static_cast<std::size_t>(kVersions + 1));
  for (int i = 0; i <= kVersions; ++i) {
    EXPECT_EQ(returned.count(&payloads[i]), 1u) << "version " << i;
  }
  EXPECT_EQ(vm.live_versions(), 0);
}

TYPED_TEST(VmBasics, DrainReturnsInitialWhenUntouched) {
  Payload a{0};
  TypeParam vm(1, &a);
  std::vector<Payload*> out = vm.shutdown_drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &a);
  EXPECT_EQ(vm.live_versions(), 0);
}

// ---------------------------------------------------------------------------
// Precision: PSWF and PSLF free exactly the versions that became
// unreachable, at the operation that unreached them.

template <class VM>
class VmPrecise : public ::testing::Test {};

using PreciseVms =
    ::testing::Types<PswfVersionManager<Payload>, PslfVersionManager<Payload>>;
TYPED_TEST_SUITE(VmPrecise, PreciseVms);

TYPED_TEST(VmPrecise, ReleaseFreesExactlyTheUnreachableVersion) {
  Payload a{0}, b{1};
  TypeParam vm(3, &a);

  ASSERT_EQ(vm.acquire(0), &a);  // reader pins A
  ASSERT_EQ(vm.acquire(2), &a);  // writer pins A
  // A is superseded but held by 0 and 2: nothing may be freed yet.
  EXPECT_TRUE(vm.set(2, &b).empty());
  EXPECT_EQ(vm.live_versions(), 1);
  // Writer lets go; the reader still holds A.
  EXPECT_TRUE(vm.release(2).empty());
  EXPECT_EQ(vm.live_versions(), 1);
  // The last holder's release frees exactly {A}, immediately.
  std::vector<Payload*> freed = vm.release(0);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], &a);
  EXPECT_EQ(vm.live_versions(), 0);
  (void)vm.shutdown_drain();
}

TYPED_TEST(VmPrecise, WriterSelfHoldIsClaimedOnItsOwnRelease) {
  Payload a{0}, b{1};
  TypeParam vm(2, &a);
  ASSERT_EQ(vm.acquire(0), &a);
  EXPECT_TRUE(vm.set(0, &b).empty());  // A still pinned by the writer itself
  std::vector<Payload*> freed = vm.release(0);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], &a);
  (void)vm.shutdown_drain();
}

TYPED_TEST(VmPrecise, SetFreesAVersionNoOneHolds) {
  Payload a{0}, b{1}, c{2};
  TypeParam vm(2, &a);
  // First cycle pins A, so A frees on release; B is then current and
  // unheld, so the next set's sweep frees it right away.
  vm.acquire(1);
  vm.set(1, &b);
  vm.release(1);
  std::vector<Payload*> freed = vm.set(1, &c);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], &b);
  (void)vm.shutdown_drain();
}

// A reader parked on one old version does not stop precise collection of
// everything committed after it: uncollected versions stay O(P) while EP
// (below) grows without bound.
TYPED_TEST(VmPrecise, SlowReaderPinsOnlyItsOwnVersion) {
  constexpr int kCycles = 1000;
  std::vector<Payload> payloads(kCycles + 1);
  TypeParam vm(3, &payloads[0]);

  ASSERT_EQ(vm.acquire(0), &payloads[0]);  // stalls holding version 0
  for (int i = 1; i <= kCycles; ++i) {
    vm.acquire(2);
    vm.set(2, &payloads[i]);
    vm.release(2);
    EXPECT_LE(vm.live_versions(), 3) << "cycle " << i;
  }
  EXPECT_LE(vm.max_live_versions(), 3);
  std::vector<Payload*> freed = vm.release(0);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], &payloads[0]);
  (void)vm.shutdown_drain();
}

// ---------------------------------------------------------------------------
// Characteristic bounds of the baselines.

TEST(VmHpBound, LiveVersionsNeverExceedTwoP) {
  constexpr int kP = 4;
  constexpr int kCycles = 200;
  std::vector<Payload> payloads(kCycles + 1);
  HpVersionManager<Payload> vm(kP, &payloads[0]);
  for (int i = 1; i <= kCycles; ++i) {
    vm.acquire(0);
    vm.set(0, &payloads[i]);
    vm.release(0);
    EXPECT_LE(vm.live_versions(), 2 * kP);
  }
  EXPECT_LE(vm.max_live_versions(), 2 * kP);
  // Amortization really batches: the retired list fills to the threshold.
  EXPECT_GE(vm.max_live_versions(), kP);
  (void)vm.shutdown_drain();
}

TEST(VmRcuBound, PinsUncollectedVersionsAtOne) {
  constexpr int kCycles = 100;
  std::vector<Payload> payloads(kCycles + 1);
  RcuVersionManager<Payload> vm(4, &payloads[0]);
  for (int i = 1; i <= kCycles; ++i) {
    vm.acquire(0);
    // The writer holds the replaced version itself, so set defers it...
    EXPECT_TRUE(vm.set(0, &payloads[i]).empty());
    // ...and its release frees it immediately: at most one uncollected.
    std::vector<Payload*> freed = vm.release(0);
    ASSERT_EQ(freed.size(), 1u);
    EXPECT_EQ(freed[0], &payloads[i - 1]);
    EXPECT_EQ(vm.live_versions(), 0);
  }
  EXPECT_EQ(vm.max_live_versions(), 1);
  (void)vm.shutdown_drain();
}

TEST(VmEpBound, StalledReaderBlocksAllReclamation) {
  constexpr int kCycles = 500;
  std::vector<Payload> payloads(kCycles + 1);
  EpVersionManager<Payload> vm(3, &payloads[0]);

  ASSERT_EQ(vm.acquire(0), &payloads[0]);  // stalls at epoch 0
  for (int i = 1; i <= kCycles; ++i) {
    vm.acquire(2);
    EXPECT_TRUE(vm.set(2, &payloads[i]).empty());  // nothing ever frees
    vm.release(2);
  }
  EXPECT_EQ(vm.live_versions(), kCycles);  // the Figure 6 blow-up
  // Once the stalled reader leaves, the next set reclaims the backlog.
  vm.release(0);
  vm.acquire(2);
  Payload extra{-1};
  EXPECT_GE(vm.set(2, &extra).size(), static_cast<std::size_t>(kCycles));
  vm.release(2);
  (void)vm.shutdown_drain();
}

TEST(VmIbrBound, StalledReaderBlocksOnlyOverlappingLifetimes) {
  constexpr int kP = 3;
  constexpr int kCycles = 500;
  std::vector<Payload> payloads(kCycles + 1);
  IbrVersionManager<Payload> vm(kP, &payloads[0]);

  ASSERT_EQ(vm.acquire(0), &payloads[0]);  // frozen interval at era 0
  for (int i = 1; i <= kCycles; ++i) {
    vm.acquire(2);
    vm.set(2, &payloads[i]);
    vm.release(2);
  }
  // Versions born after the stalled interval keep getting reclaimed.
  EXPECT_LE(vm.max_live_versions(), 2 * kP + 1);
  vm.release(0);
  (void)vm.shutdown_drain();
}

// ---------------------------------------------------------------------------
// Multi-threaded stress: readers continuously validate the version they
// hold while a writer commits and frees as fast as it can. A version freed
// while held shows up as a magic-check failure (and as a use-after-free
// under ASan, or a race under TSan).

constexpr std::uint64_t kMagic = 0xfeedfacecafef00dULL;

struct StressPayload {
  std::atomic<std::uint64_t> magic{kMagic};
};

void check_and_delete(StressPayload* dead) {
  ASSERT_EQ(dead->magic.load(std::memory_order_acquire), kMagic)
      << "freed a version twice (or freed a corrupted version)";
  dead->magic.store(0xdeaddeaddeaddeadULL, std::memory_order_release);
  delete dead;
}

template <template <class> class VMImpl>
void RunReaderWriterStress(int readers, double seconds) {
  using VM = VMImpl<StressPayload>;
  const int nprocs = readers + 1;
  VM vm(nprocs, new StressPayload);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (int pid = 1; pid <= readers; ++pid) {
    threads.emplace_back([&, pid] {
      while (!stop.load(std::memory_order_acquire)) {
        StressPayload* held = vm.acquire(pid);
        for (int k = 0; k < 16; ++k) {
          ASSERT_EQ(held->magic.load(std::memory_order_acquire), kMagic)
              << "version freed while a reader holds it";
        }
        for (StressPayload* dead : vm.release(pid)) check_and_delete(dead);
      }
    });
  }

  mvcc::Timer timer;
  std::uint64_t committed = 0;
  while (timer.seconds() < seconds) {
    vm.acquire(0);
    for (StressPayload* dead : vm.set(0, new StressPayload))
      check_and_delete(dead);
    for (StressPayload* dead : vm.release(0)) check_and_delete(dead);
    ++committed;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (StressPayload* dead : vm.shutdown_drain()) check_and_delete(dead);

  EXPECT_GT(committed, 0u);
  EXPECT_EQ(vm.live_versions(), 0);
}

TEST(VmStress, Pswf) { RunReaderWriterStress<PswfVersionManager>(3, 0.2); }
TEST(VmStress, Pslf) { RunReaderWriterStress<PslfVersionManager>(3, 0.2); }
TEST(VmStress, Hp) { RunReaderWriterStress<HpVersionManager>(3, 0.2); }
TEST(VmStress, Ep) { RunReaderWriterStress<EpVersionManager>(3, 0.2); }
TEST(VmStress, Ibr) { RunReaderWriterStress<IbrVersionManager>(3, 0.2); }
TEST(VmStress, Rcu) { RunReaderWriterStress<RcuVersionManager>(3, 0.2); }

// The headline comparison under a genuinely slow concurrent reader: the
// precise algorithms keep the uncollected-version count bounded by the
// process count while EP's grows with the writer's commit rate.
template <template <class> class VMImpl>
std::int64_t MaxLiveUnderSlowReader() {
  using VM = VMImpl<StressPayload>;
  constexpr int kProcs = 3;  // slow reader = 1, writer = 0
  VM vm(kProcs, new StressPayload);
  std::atomic<bool> reader_holding{false};
  std::atomic<bool> stop{false};

  std::thread slow_reader([&] {
    StressPayload* held = vm.acquire(1);
    reader_holding.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_EQ(held->magic.load(std::memory_order_acquire), kMagic);
      std::this_thread::yield();
    }
    for (StressPayload* dead : vm.release(1)) check_and_delete(dead);
  });

  while (!reader_holding.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 2000; ++i) {
    vm.acquire(0);
    for (StressPayload* dead : vm.set(0, new StressPayload))
      check_and_delete(dead);
    for (StressPayload* dead : vm.release(0)) check_and_delete(dead);
  }
  const std::int64_t max_live = vm.max_live_versions();
  stop.store(true, std::memory_order_release);
  slow_reader.join();
  for (StressPayload* dead : vm.shutdown_drain()) check_and_delete(dead);
  return max_live;
}

TEST(VmStressSlowReader, PreciseStaysBoundedWhereEpExplodes) {
  const std::int64_t pswf = MaxLiveUnderSlowReader<PswfVersionManager>();
  const std::int64_t pslf = MaxLiveUnderSlowReader<PslfVersionManager>();
  const std::int64_t hp = MaxLiveUnderSlowReader<HpVersionManager>();
  const std::int64_t ep = MaxLiveUnderSlowReader<EpVersionManager>();
  EXPECT_LE(pswf, 3 + 1);
  EXPECT_LE(pslf, 3 + 1);
  EXPECT_LE(hp, 2 * 3);
  EXPECT_EQ(ep, 2000);  // every one of the writer's commits stays pinned
  EXPECT_LT(8 * pswf, ep);
  EXPECT_LT(8 * pslf, ep);
}

// ---------------------------------------------------------------------------
// End-to-end: the Table 2 / Figure 6 workload harness over real FMap
// snapshots, checking it runs, makes progress, and leaks no tree nodes.

template <template <class> class VMImpl>
void RunWorkloadSmoke() {
  const long long nodes_before = mvcc::ftree::live_nodes();
  mvcc::workload::RangeWorkloadConfig cfg;
  cfg.readers = 2;
  cfg.initial_size = 2000;
  cfg.nq = 8;
  cfg.nu = 4;
  cfg.duration_sec = 0.05;
  auto result = mvcc::workload::run_range_workload<VMImpl>(cfg);
  EXPECT_GT(result.queries, 0u);
  EXPECT_GT(result.updates, 0u);
  EXPECT_GT(result.versions, 0u);
  EXPECT_GE(result.max_live_versions, 0);
  // Precise accounting end to end: every snapshot the workload allocated
  // was freed, so every tree node is back.
  EXPECT_EQ(mvcc::ftree::live_nodes(), nodes_before);
}

// ---------------------------------------------------------------------------
// reclaim_payloads / reclaim_quiesce (vm/base.h): the deferred-reclaim
// plumbing frees every payload exactly once in either mode. Double frees
// would drive the live counter negative (and trip ASan); leaks leave it
// positive.

struct CountedPayload {
  static std::atomic<int> live;
  CountedPayload() { live.fetch_add(1, std::memory_order_relaxed); }
  ~CountedPayload() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> CountedPayload::live{0};

TEST(VmReclaim, InlineModeFreesImmediately) {
  set_bg_reclaim(false);
  std::vector<CountedPayload*> batch;
  for (int i = 0; i < 50; ++i) batch.push_back(new CountedPayload());
  EXPECT_EQ(CountedPayload::live.load(), 50);
  reclaim_payloads(std::move(batch));
  EXPECT_EQ(CountedPayload::live.load(), 0);
  EXPECT_EQ(mvcc::alloc::reclaim_queue_depth().load(), 0);
}

TEST(VmReclaim, DeferredModeFreesExactlyOnceAfterQuiesce) {
  set_bg_reclaim(true);
  for (int round = 0; round < 20; ++round) {
    std::vector<CountedPayload*> batch;
    for (int i = 0; i < 40; ++i) batch.push_back(new CountedPayload());
    reclaim_payloads(std::move(batch));
  }
  reclaim_quiesce();
  set_bg_reclaim(false);
  EXPECT_EQ(CountedPayload::live.load(), 0);
  EXPECT_EQ(mvcc::alloc::reclaim_queue_depth().load(), 0);
}

TEST(VmReclaim, PreciseFreedSetsStayExactWhenDeferred) {
  // A PSWF writer churning versions with a concurrent reader, every
  // returned freed set routed through the background lane: the claim CAS
  // hands each payload back exactly once, so deferral frees each exactly
  // once — the live counter lands on zero, never below.
  set_bg_reclaim(true);
  {
    PswfVersionManager<CountedPayload> vm(2, new CountedPayload());
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        (void)vm.acquire(1);
        reclaim_payloads(vm.release(1));
      }
    });
    for (int i = 0; i < 3000; ++i) {
      (void)vm.acquire(0);
      reclaim_payloads(vm.set(0, new CountedPayload()));
      reclaim_payloads(vm.release(0));
    }
    stop.store(true, std::memory_order_release);
    reader.join();
    for (CountedPayload* p : vm.shutdown_drain()) delete p;
  }
  reclaim_quiesce();
  set_bg_reclaim(false);
  EXPECT_EQ(CountedPayload::live.load(), 0);
  EXPECT_EQ(mvcc::alloc::reclaim_queue_depth().load(), 0);
}

// --- acquire_version_vector: the cross-manager validate-retry helper ------

TEST(VmVersionVector, ReturnsConsistentVectorWhenTokenIsStable) {
  std::uint64_t retries = 0;
  auto vec = acquire_version_vector<int>(
      4, [] { return std::uint64_t{10}; }, [](std::size_t s) {
        return static_cast<int>(s) * 2;
      },
      &retries);
  ASSERT_EQ(vec.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(vec[s], static_cast<int>(s) * 2);
  EXPECT_EQ(retries, 0u);
}

TEST(VmVersionVector, RetriesUntilTheTokenValidates) {
  // The token changes under the first two passes (a cross-shard commit
  // overlapping the pins), then stabilizes; the pins of the failed passes
  // must be dropped and re-taken.
  std::uint64_t token_reads = 0;
  std::uint64_t pins = 0;
  std::uint64_t retries = 0;
  auto vec = acquire_version_vector<std::uint64_t>(
      3,
      [&] {
        // Reads come in pre/post pairs per pass; disagree for 2 passes.
        const std::uint64_t r = token_reads++;
        return r < 4 ? r : std::uint64_t{100};
      },
      [&](std::size_t) { return ++pins; }, &retries);
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(pins, 9u);  // 3 passes x 3 shards; stale pins were discarded
  EXPECT_EQ(vec[2], 9u);
}

TEST(VmVersionVector, RetryBudgetExhaustionReturnsEmpty) {
  std::uint64_t token = 0;
  std::uint64_t retries = 0;
  auto vec = acquire_version_vector<int>(
      2, [&] { return token++; }, [](std::size_t) { return 1; }, &retries,
      /*max_retries=*/3);
  EXPECT_TRUE(vec.empty());
  EXPECT_EQ(retries, 4u);  // initial pass + 3 budgeted retries all failed
}

TEST(VmWorkload, PswfEndToEnd) { RunWorkloadSmoke<PswfVersionManager>(); }
TEST(VmWorkload, PslfEndToEnd) { RunWorkloadSmoke<PslfVersionManager>(); }
TEST(VmWorkload, HpEndToEnd) { RunWorkloadSmoke<HpVersionManager>(); }
TEST(VmWorkload, EpEndToEnd) { RunWorkloadSmoke<EpVersionManager>(); }
TEST(VmWorkload, IbrEndToEnd) { RunWorkloadSmoke<IbrVersionManager>(); }
TEST(VmWorkload, RcuEndToEnd) { RunWorkloadSmoke<RcuVersionManager>(); }

}  // namespace
