// Baselines tier: the five Figure-7 comparison structures behind
// mvcc/baselines/ — oracle equivalence against std::map, concurrent
// upsert/find stress (readers during writer bursts), linearizability
// spot-checks, and leak accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "mvcc/baselines/bplustree.h"
#include "mvcc/baselines/cow_nobatch.h"
#include "mvcc/baselines/extbst.h"
#include "mvcc/baselines/sharded_hash.h"
#include "mvcc/baselines/skiplist.h"
#include "mvcc/common/rng.h"
#include "mvcc/ftree/ops.h"

namespace {

using namespace mvcc;

using Structures =
    ::testing::Types<baselines::LockFreeSkipList, baselines::ExternalBst,
                     baselines::BPlusTree, baselines::ShardedHashMap,
                     baselines::CowTreeNoBatch>;

struct StructureNames {
  template <typename T>
  static std::string GetName(int) {
    if (std::is_same_v<T, baselines::LockFreeSkipList>) return "SkipList";
    if (std::is_same_v<T, baselines::ExternalBst>) return "ExternalBst";
    if (std::is_same_v<T, baselines::BPlusTree>) return "BPlusTree";
    if (std::is_same_v<T, baselines::ShardedHashMap>) return "ShardedHash";
    return "CowTreeNoBatch";
  }
};

template <class T>
class BaselinesOracle : public ::testing::Test {};
TYPED_TEST_SUITE(BaselinesOracle, Structures, StructureNames);

template <class T>
class BaselinesStress : public ::testing::Test {};
TYPED_TEST_SUITE(BaselinesStress, Structures, StructureNames);

TYPED_TEST(BaselinesOracle, EmptyFindsNothing) {
  TypeParam m;
  EXPECT_FALSE(m.find(0).has_value());
  EXPECT_FALSE(m.find(12345).has_value());
  EXPECT_FALSE(m.find(~std::uint64_t{0}).has_value());
}

TYPED_TEST(BaselinesOracle, SingleKeyReadYourWrite) {
  TypeParam m;
  m.upsert(7, 70);
  ASSERT_TRUE(m.find(7).has_value());
  EXPECT_EQ(*m.find(7), 70u);
  m.upsert(7, 71);  // in-place replace, not a duplicate entry
  EXPECT_EQ(*m.find(7), 71u);
  EXPECT_FALSE(m.find(8).has_value());
}

// A small dense keyspace forces heavy duplicate-key traffic (the in-place
// update paths) while the oracle keeps the ground truth.
TYPED_TEST(BaselinesOracle, MatchesStdMapOnRandomUpserts) {
  TypeParam m;
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(42);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(2048);
    const std::uint64_t v = rng();
    m.upsert(k, v);
    oracle[k] = v;
    if (i % 512 == 0) {
      const std::uint64_t probe = rng.next_below(4096);
      auto got = m.find(probe);
      auto it = oracle.find(probe);
      if (it == oracle.end()) {
        EXPECT_FALSE(got.has_value()) << "probe " << probe;
      } else {
        ASSERT_TRUE(got.has_value()) << "probe " << probe;
        EXPECT_EQ(*got, it->second) << "probe " << probe;
      }
    }
  }
  for (const auto& [k, v] : oracle) {
    auto got = m.find(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, v) << "key " << k;
  }
  for (std::uint64_t k = 2048; k < 2148; ++k) {
    EXPECT_FALSE(m.find(k).has_value()) << "key " << k;
  }
}

// Ascending bulk load drives the worst-case split/tower patterns (every
// B+tree insert hits the rightmost leaf; the BST degenerates to a path).
TYPED_TEST(BaselinesOracle, AscendingBulkThenPointLookups) {
  TypeParam m;
  constexpr std::uint64_t kN = 5000;
  for (std::uint64_t k = 0; k < kN; ++k) m.upsert(k, k * 3);
  for (std::uint64_t k = 0; k < kN; ++k) {
    auto got = m.find(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, k * 3) << "key " << k;
  }
  EXPECT_FALSE(m.find(kN).has_value());
}

// UINT64_MAX must behave as an ordinary key (the external BST keeps its
// infinity sentinels out of band; the skiplist head never compares).
TYPED_TEST(BaselinesOracle, ExtremeKeys) {
  TypeParam m;
  const std::uint64_t hi = ~std::uint64_t{0};
  m.upsert(0, 1);
  m.upsert(hi, 2);
  m.upsert(hi - 1, 3);
  EXPECT_EQ(*m.find(0), 1u);
  EXPECT_EQ(*m.find(hi), 2u);
  EXPECT_EQ(*m.find(hi - 1), 3u);
  m.upsert(hi, 20);
  EXPECT_EQ(*m.find(hi), 20u);
  EXPECT_FALSE(m.find(hi - 2).has_value());
}

// Writers own disjoint ranges, readers probe throughout; every observed
// value must be one the owning writer actually wrote, and after the join
// every key must hold its owner's final value.
TYPED_TEST(BaselinesStress, DisjointWritersWithConcurrentReaders) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kPerWriter = 2000;
  constexpr std::uint64_t kSpan = kWriters * kPerWriter;
  const auto scratch = [](std::uint64_t k) { return k ^ 0xdeadbeefULL; };
  const auto final_v = [](std::uint64_t k) { return k * 2 + 1; };

  TypeParam m;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Xoshiro256 rng(900 + static_cast<std::uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t k = rng.next_below(kSpan);
        auto got = m.find(k);
        if (got.has_value() && *got != scratch(k) && *got != final_v(k)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::uint64_t lo = w * kPerWriter;
      for (std::uint64_t k = lo; k < lo + kPerWriter; ++k) {
        m.upsert(k, scratch(k));
      }
      for (std::uint64_t k = lo; k < lo + kPerWriter; ++k) {
        m.upsert(k, final_v(k));
      }
    });
  }
  for (int i = kReaders; i < kReaders + kWriters; ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  for (int i = 0; i < kReaders; ++i) threads[i].join();

  EXPECT_EQ(failures.load(), 0);
  for (std::uint64_t k = 0; k < kSpan; ++k) {
    auto got = m.find(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, final_v(k)) << "key " << k;
  }
}

// Overlapping writers race on the same dense keyspace (the contended
// insert paths: skiplist CAS losses, BST flag helping, B+tree split
// races). Any value ever observed must decode to a write some thread made.
TYPED_TEST(BaselinesStress, OverlappingWritersValidValuesOnly) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kKeys = 512;
  constexpr std::uint64_t kOpsPerWriter = 6000;
  const auto encode = [](int w, std::uint64_t i) {
    return (static_cast<std::uint64_t>(w) << 32) | i;
  };

  TypeParam m;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(w));
      for (std::uint64_t i = 0; i < kOpsPerWriter; ++i) {
        m.upsert(rng.next_below(kKeys), encode(w, i));
      }
    });
  }
  for (auto& t : threads) t.join();

  int present = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    auto got = m.find(k);
    if (!got.has_value()) continue;
    ++present;
    const auto w = *got >> 32;
    const auto i = *got & 0xffffffffULL;
    EXPECT_LT(w, static_cast<std::uint64_t>(kWriters)) << "key " << k;
    EXPECT_LT(i, kOpsPerWriter) << "key " << k;
  }
  // 24k draws over 512 keys: every key is hit with overwhelming odds.
  EXPECT_EQ(present, static_cast<int>(kKeys));
}

// Linearizability spot-check: a single writer storing an increasing
// counter is an atomic register, so no reader may ever observe the value
// going backwards.
TYPED_TEST(BaselinesStress, SingleWriterMonotonicReads) {
  constexpr std::uint64_t kWrites = 20000;
  constexpr int kReaders = 3;
  constexpr std::uint64_t kKey = 42;

  TypeParam m;
  std::atomic<bool> done{false};
  std::atomic<int> regressions{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto got = m.find(kKey);
        const std::uint64_t v = got.has_value() ? *got : 0;
        if (v < last) regressions.fetch_add(1, std::memory_order_relaxed);
        last = v;
      }
    });
  }
  for (std::uint64_t v = 1; v <= kWrites; ++v) m.upsert(kKey, v);
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(*m.find(kKey), kWrites);
}

// Regression for a B+tree root race: the root-fullness check must happen
// under the root node's latch, not just root_mutex_, or a writer already
// past the root can split a child into it between check and descent and
// the stale not-full verdict later overflows the node. Root growth only
// happens a handful of times per tree, so hammer many fresh trees through
// their growth windows with all writers in flight from key one.
TYPED_TEST(BaselinesStress, ConcurrentWritersThroughRootGrowth) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 1500;
  for (int round = 0; round < 8; ++round) {
    TypeParam m;
    std::atomic<int> start{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        start.fetch_add(1);
        while (start.load() < kWriters) {  // maximize overlap at tree birth
        }
        Xoshiro256 rng(9000 + static_cast<std::uint64_t>(round) * kWriters +
                       static_cast<std::uint64_t>(w));
        for (int i = 0; i < kPerWriter; ++i) {
          const std::uint64_t key = rng();  // spread keys: splits everywhere
          m.upsert(key, key ^ 0xabcd);
          if ((i & 63) == 0) {
            auto got = m.find(key);
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, key ^ 0xabcd);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    // Replay one writer's stream: every key must be present and intact.
    Xoshiro256 replay(9000 + static_cast<std::uint64_t>(round) * kWriters);
    for (int i = 0; i < kPerWriter; ++i) {
      const std::uint64_t key = replay();
      auto got = m.find(key);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, key ^ 0xabcd);
    }
  }
}

// Destruction after multi-threaded churn must free every allocation —
// meaningful under the ASan job, where any leaked node/tower/Info record
// fails the binary.
TYPED_TEST(BaselinesStress, DestructionAfterConcurrentChurnIsClean) {
  for (int round = 0; round < 3; ++round) {
    TypeParam m;
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        Xoshiro256 rng(500 + static_cast<std::uint64_t>(w));
        for (int i = 0; i < 3000; ++i) {
          m.upsert(rng.next_below(256), rng());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
}

// The CoW ablation reuses ftree, whose global node accounting lets us
// assert the precise-GC property directly: after the map (and every
// pinned snapshot) dies, not a single tree node survives.
TEST(BaselinesMemory, CowNoBatchFreesEveryFtreeNode) {
  const long long base = ftree::live_nodes();
  {
    baselines::CowTreeNoBatch m;
    for (std::uint64_t k = 0; k < 2000; ++k) m.upsert(k, k);
    auto pinned = m.snapshot();  // survives later upserts
    for (std::uint64_t k = 0; k < 500; ++k) m.upsert(k, k + 1);
    EXPECT_EQ(*pinned->find(0), 0u);   // snapshot isolation
    EXPECT_EQ(*m.find(0), 1u);         // current version moved on
    EXPECT_GT(ftree::live_nodes(), base);
  }
  EXPECT_EQ(ftree::live_nodes(), base);
}

TEST(BaselinesMemory, CowNoBatchSnapshotOutlivesMap) {
  const long long base = ftree::live_nodes();
  std::shared_ptr<const baselines::CowTreeNoBatch::Map> pinned;
  {
    baselines::CowTreeNoBatch m;
    for (std::uint64_t k = 0; k < 300; ++k) m.upsert(k, k * 7);
    pinned = m.snapshot();
  }
  EXPECT_EQ(*pinned->find(299), 299u * 7);
  EXPECT_GT(ftree::live_nodes(), base);
  pinned.reset();
  EXPECT_EQ(ftree::live_nodes(), base);
}

}  // namespace
