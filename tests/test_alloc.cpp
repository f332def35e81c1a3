// Tests for the alloc/ slab allocator: magazine caches, lock-free depot,
// cross-thread block flow, the unified reclaim seam, and the invariants the
// rest of the system leans on (a recycled block never aliases a live one;
// ftree::live_nodes() stays exact with the pool active).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/alloc/reclaim.h"
#include "mvcc/common/env.h"
#include "mvcc/ftree/ops.h"

namespace {

using namespace mvcc;

TEST(Alloc, SizeClassMapping) {
  EXPECT_EQ(alloc::size_class(1), 0u);
  EXPECT_EQ(alloc::size_class(16), 0u);
  EXPECT_EQ(alloc::size_class(17), 1u);
  EXPECT_EQ(alloc::size_class(48), 2u);
  EXPECT_EQ(alloc::size_class(alloc::kMaxBlockBytes),
            alloc::kNumClasses - 1);
  for (std::size_t ci = 0; ci < alloc::kNumClasses; ++ci) {
    EXPECT_EQ(alloc::size_class(alloc::class_bytes(ci)), ci);
  }
}

TEST(Alloc, RoundTripAndAlignment) {
  alloc::Pool pool(1 << 12);
  std::set<void*> seen;
  std::vector<void*> blocks;
  for (int i = 0; i < 500; ++i) {
    void* p = pool.allocate(48);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alloc::kQuantum, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "live block handed out twice";
    std::memset(p, 0xab, 48);  // the block must be fully writable
    blocks.push_back(p);
  }
  for (void* p : blocks) pool.deallocate(p, 48);
}

TEST(Alloc, RecyclesFreedBlocksWithoutNewSlabs) {
  alloc::Pool pool(1 << 12);
  std::vector<void*> blocks;
  for (int i = 0; i < 256; ++i) blocks.push_back(pool.allocate(64));
  const std::int64_t slabs_after_warmup = pool.stats().slabs;
  // Steady-state churn at the warmed-up footprint: the pool must serve
  // everything from recycled blocks, never growing another slab.
  for (int round = 0; round < 50; ++round) {
    pool.deallocate_batch(blocks.data(), blocks.size(), 64);
    blocks.clear();
    for (int i = 0; i < 256; ++i) blocks.push_back(pool.allocate(64));
  }
  EXPECT_EQ(pool.stats().slabs, slabs_after_warmup);
  pool.deallocate_batch(blocks.data(), blocks.size(), 64);
}

TEST(Alloc, ReusedBlockNeverAliasesLiveBlock) {
  alloc::Pool pool(1 << 12);
  std::set<void*> live;
  std::vector<void*> dead;
  // Interleave: keep every odd allocation live, free the even ones, then
  // allocate a fresh wave — nothing the pool hands back may overlap a
  // block it still considers live.
  for (int i = 0; i < 400; ++i) {
    void* p = pool.allocate(32);
    if (i % 2 == 0) {
      dead.push_back(p);
    } else {
      live.insert(p);
    }
  }
  pool.deallocate_batch(dead.data(), dead.size(), 32);
  for (int i = 0; i < 400; ++i) {
    void* p = pool.allocate(32);
    EXPECT_EQ(live.count(p), 0u) << "recycled block aliases a live one";
    std::memset(p, 0x5a, 32);
    dead.push_back(p);  // reuse the vector as the free list
  }
  // The live set must be untouched by the writes above (their storage was
  // never handed out again). Spot-check by writing/reading a pattern.
  for (void* p : live) {
    std::memset(p, 0x11, 32);
    EXPECT_EQ(static_cast<unsigned char*>(p)[31], 0x11);
  }
}

TEST(Alloc, PoolAddressReuseDoesNotResurrectDeadThreadCache) {
  // Regression: local_cache()'s thread-local lookaside keys on the Pool
  // address. Destroying a pool and constructing another at the SAME address
  // (placement new makes the reuse deterministic; sequential stack pools hit
  // it by accident) must not hand back the dead pool's ThreadCache, whose
  // magazines point into the deleted chunk table and freed slabs.
  alignas(alloc::Pool) unsigned char storage[sizeof(alloc::Pool)];
  auto* first = ::new (static_cast<void*>(storage)) alloc::Pool(1 << 12);
  void* a = first->allocate(48);  // seeds this thread's lookaside
  ASSERT_NE(a, nullptr);
  first->deallocate(a, 48);
  first->~Pool();
  auto* second = ::new (static_cast<void*>(storage)) alloc::Pool(1 << 12);
  void* b = second->allocate(48);  // must re-register, not reuse the stale cache
  ASSERT_NE(b, nullptr);
  std::memset(b, 0x7e, 48);  // ASan faults here if the block came off a dead slab
  second->deallocate(b, 48);
  second->~Pool();
}

TEST(Alloc, CrossThreadFree) {
  alloc::Pool pool(1 << 12);
  constexpr int kBlocks = 1000;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool.allocate(48));
  // Free every block on another thread; its cache flushes full magazines
  // to the depot on exit.
  std::thread([&] {
    for (void* p : blocks) pool.deallocate(p, 48);
  }).join();
  // This thread can now re-allocate the same storage via the depot.
  const std::int64_t slabs_before = pool.stats().slabs;
  std::set<void*> freed(blocks.begin(), blocks.end());
  int recycled = 0;
  std::vector<void*> again;
  for (int i = 0; i < kBlocks; ++i) {
    void* p = pool.allocate(48);
    if (freed.count(p) != 0) ++recycled;
    again.push_back(p);
  }
  EXPECT_EQ(pool.stats().slabs, slabs_before);
  EXPECT_GT(recycled, kBlocks / 2);
  EXPECT_GT(pool.stats().depot_transfers, 0);
  pool.deallocate_batch(again.data(), again.size(), 48);
}

TEST(Alloc, DepotTransferUnderContention) {
  // Producer/consumer pairs force whole-magazine depot traffic: producers
  // allocate and publish blocks, consumers free them. Every block must be
  // handed out exactly once while live (no depot pop may duplicate one).
  alloc::Pool pool(1 << 14);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  std::mutex mu;
  std::vector<void*> handoff;
  std::atomic<int> produced{0};
  std::atomic<bool> duplicate{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {  // producer
        for (int i = 0; i < kPerThread; ++i) {
          void* p = pool.allocate(80);
          // Stamp the block; a double-allocation of a live block would
          // let two producers race on this non-atomic write under TSan.
          *static_cast<std::uint64_t*>(p) =
              (static_cast<std::uint64_t>(t) << 32) | i;
          std::lock_guard<std::mutex> lock(mu);
          handoff.push_back(p);
          produced.fetch_add(1, std::memory_order_relaxed);
        }
      } else {  // consumer
        int freed = 0;
        while (freed < kPerThread) {
          void* p = nullptr;
          {
            std::lock_guard<std::mutex> lock(mu);
            if (!handoff.empty()) {
              p = handoff.back();
              handoff.pop_back();
            }
          }
          if (p == nullptr) {
            std::this_thread::yield();
            continue;
          }
          pool.deallocate(p, 80);
          ++freed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(duplicate.load());
  EXPECT_EQ(produced.load(), (kThreads / 2) * kPerThread);
  EXPECT_GT(pool.stats().depot_transfers, 0);
}

TEST(Alloc, RoutingFallsBackToOperatorNewForLargeBlocks) {
  // Blocks above kMaxBlockBytes bypass the pool entirely, whatever the
  // MVCC_ALLOC route — allocate/deallocate must still pair up.
  void* p = alloc::allocate(alloc::kMaxBlockBytes + 1);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xcd, alloc::kMaxBlockBytes + 1);
  alloc::deallocate(p, alloc::kMaxBlockBytes + 1);
  std::vector<void*> big;
  for (int i = 0; i < 8; ++i) big.push_back(alloc::allocate(4096));
  alloc::deallocate_batch(big.data(), big.size(), 4096);
}

TEST(Alloc, CreateDestroyRunsConstructorsOnce) {
  struct Probe {
    explicit Probe(int* c) : counter(c) { ++*counter; }
    ~Probe() { --*counter; }
    int* counter;
    char pad[24];
  };
  int count = 0;
  std::vector<Probe*> probes;
  for (int i = 0; i < 100; ++i) probes.push_back(alloc::create<Probe>(&count));
  EXPECT_EQ(count, 100);
  for (Probe* p : probes) alloc::destroy(p);
  EXPECT_EQ(count, 0);
}

TEST(Alloc, ReclaimBatchInlineRunsDisposeNow) {
  int count = 0;
  struct Probe {
    explicit Probe(int* c) : counter(c) { ++*counter; }
    ~Probe() { --*counter; }
    int* counter;
  };
  std::vector<Probe*> dead;
  for (int i = 0; i < 10; ++i) dead.push_back(new Probe(&count));
  EXPECT_EQ(count, 10);
  alloc::reclaim_batch(std::move(dead), alloc::ReclaimLane::kInline);
  EXPECT_EQ(count, 0);
}

TEST(Alloc, ReclaimBatchBackgroundDrainsOnQuiesce) {
  std::vector<std::uint64_t*> dead;
  for (int i = 0; i < 64; ++i) dead.push_back(alloc::create<std::uint64_t>());
  alloc::reclaim_batch(std::move(dead), alloc::ReclaimLane::kBackground,
                       alloc::PoolDispose{});
  exec::quiesce_deferred();
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(Alloc, LiveNodesReturnToBaselineUnderSlab) {
  // The precise-GC exactness proof with the slab allocator active on the
  // global route: versions die, live_nodes returns exactly to baseline.
  const long long baseline = ftree::live_nodes();
  using N = ftree::Node<std::uint64_t, std::uint64_t>;
  N* base = nullptr;
  for (std::uint64_t i = 0; i < 3000; ++i) base = ftree::insert(base, i, i);
  std::vector<N*> versions;
  for (std::uint64_t v = 0; v < 20; ++v) {
    versions.push_back(ftree::share(base));
    for (std::uint64_t i = 0; i < 50; ++i) {
      versions.back() = ftree::insert(versions.back(), v * 1000 + i, i);
    }
  }
  for (N* v : versions) ftree::collect(v);
  ftree::collect(base);
  EXPECT_EQ(ftree::live_nodes(), baseline);
}

TEST(Alloc, PackedNodeLayoutIsCompact) {
  // The height-packed layout: height and weight share one word and an
  // empty augmentation occupies no storage.
  using Plain = ftree::Node<std::uint64_t, std::uint64_t>;
  using Summed = ftree::Node<std::uint64_t, std::uint64_t,
                             ftree::AugSum<std::uint64_t, std::uint64_t>>;
  EXPECT_LE(sizeof(Plain), 48u);
  EXPECT_LE(sizeof(Summed), 56u);
  EXPECT_LE(sizeof(Plain), alloc::kMaxBlockBytes);
}

TEST(AllocConfig, FromEnvParsesAllocKnobs) {
  setenv("MVCC_ALLOC", "malloc", 1);
  setenv("MVCC_SLAB_BYTES", "8192", 1);
  Config c = Config::from_env();
  EXPECT_FALSE(c.alloc_pooled);
  EXPECT_EQ(c.slab_bytes, 8192u);
  setenv("MVCC_ALLOC", "slab", 1);
  c = Config::from_env();
  EXPECT_TRUE(c.alloc_pooled);
  unsetenv("MVCC_ALLOC");
  unsetenv("MVCC_SLAB_BYTES");
}

TEST(AllocConfig, SlabBytesClampsToSaneRange) {
  setenv("MVCC_SLAB_BYTES", "1", 1);
  EXPECT_EQ(Config::from_env().slab_bytes, std::size_t{1} << 12);
  setenv("MVCC_SLAB_BYTES", "999999999", 1);
  EXPECT_EQ(Config::from_env().slab_bytes, std::size_t{1} << 24);
  unsetenv("MVCC_SLAB_BYTES");
  EXPECT_EQ(Config::from_env().slab_bytes, std::size_t{1} << 16);
}

}  // namespace
