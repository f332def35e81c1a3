// Tests for the sharded multi-writer front-end (txn/sharded.h): key
// routing, per-shard commit accounting, the cross-shard snapshot protocol
// (version vectors never observe a torn multi-shard commit), atomic
// multi_upsert_sync spanning shards, MVCC_SHARDS sizing, and the
// partitioned YCSB driver. Every test checks ftree::live_nodes()
// returns to baseline after teardown — per-shard precise freed-set
// accounting must survive the scale-out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mvcc/common/env.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/workload/ycsb.h"

namespace {

using namespace mvcc;

using PswfSharded = txn::ShardedMap<std::uint64_t, std::uint64_t,
                                    ftree::NoAug<std::uint64_t, std::uint64_t>,
                                    vm::PswfVersionManager>;
using PslfSharded = txn::ShardedMap<std::uint64_t, std::uint64_t,
                                    ftree::NoAug<std::uint64_t, std::uint64_t>,
                                    vm::PslfVersionManager>;
using Entry = PswfSharded::Entry;

// First `n` keys whose shard assignments (under `nshards`) are pairwise
// distinct — the raw material of every cross-shard test.
std::vector<std::uint64_t> keys_in_distinct_shards(std::size_t nshards,
                                                   std::size_t n) {
  std::vector<std::uint64_t> keys;
  std::vector<bool> used(nshards, false);
  for (std::uint64_t k = 0; keys.size() < n; ++k) {
    const std::size_t s = PswfSharded::shard_index(k, nshards);
    if (!used[s]) {
      used[s] = true;
      keys.push_back(k);
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Routing and basic semantics.

TEST(ShardedRouting, DeterministicAndReasonablySpread) {
  const std::size_t nshards = 4;
  std::vector<std::uint64_t> per_shard(nshards, 0);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    const std::size_t s = PswfSharded::shard_index(k, nshards);
    ASSERT_LT(s, nshards);
    EXPECT_EQ(s, PswfSharded::shard_index(k, nshards));  // stable
    ++per_shard[s];
  }
  // splitmix64 mixing: dense keys spread near-uniformly; 15% floor is far
  // below the binomial expectation but far above any routing bug.
  for (std::size_t s = 0; s < nshards; ++s) {
    EXPECT_GT(per_shard[s], 1500u) << "shard " << s << " starved";
  }
}

TEST(ShardedBasics, UpsertSyncVisibleAcrossShards) {
  const long long base_live = ftree::live_nodes();
  {
    PswfSharded map(1, {}, /*shards=*/4);
    EXPECT_EQ(map.shard_count(), 4);
    for (std::uint64_t k = 0; k < 200; ++k) {
      map.upsert_sync(0, k, k * 3);
      auto v = map.get(0, k);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, k * 3);
    }
    EXPECT_EQ(map.ops_committed(), 200u);
    // 200 dense keys over 4 shards: every shard must have committed some.
    for (int s = 0; s < 4; ++s) {
      EXPECT_GT(map.shard_ops_committed(s), 0u) << "shard " << s;
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(ShardedBasics, InitialDatasetIsPartitionedAndReadable) {
  const long long base_live = ftree::live_nodes();
  {
    auto dataset = workload::ycsb_dataset(500);
    const auto expect = dataset;  // keep a copy: ctor consumes it
    PswfSharded map(2, std::move(dataset), /*shards=*/3);
    for (const auto& [k, v] : expect) {
      auto got = map.get(0, k);
      ASSERT_TRUE(got.has_value()) << "key " << k;
      EXPECT_EQ(*got, v);
    }
    auto snap = map.snapshot(1);
    EXPECT_EQ(snap.size(), 500u);
    EXPECT_EQ(snap.shards(), 3u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(ShardedBasics, FlushAllDrainsEveryShard) {
  const long long base_live = ftree::live_nodes();
  {
    PslfSharded map(2, {}, /*shards=*/4, /*buffer_capacity=*/1 << 10,
                    /*max_batch=*/64);
    for (std::uint64_t k = 0; k < 600; ++k) {
      map.submit(0, txn::BatchOp::kUpsert, k, k);
    }
    for (std::uint64_t k = 600; k < 1000; ++k) {
      map.submit(1, txn::BatchOp::kUpsert, k, k);
    }
    map.flush_all();
    EXPECT_EQ(map.ops_committed(), 1000u);
    auto snap = map.snapshot(0);
    EXPECT_EQ(snap.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
      const std::uint64_t* v = snap.find(k);
      ASSERT_NE(v, nullptr) << "key " << k;
      EXPECT_EQ(*v, k);
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(ShardedSnapshot, SnapshotIsFrozenAcrossLaterCommits) {
  const long long base_live = ftree::live_nodes();
  {
    PswfSharded map(1, {}, /*shards=*/2);
    map.upsert_sync(0, 1, 10);
    map.upsert_sync(0, 2, 20);
    auto before = map.snapshot(0);
    map.upsert_sync(0, 1, 99);
    map.upsert_sync(0, 3, 30);
    ASSERT_NE(before.find(1), nullptr);
    EXPECT_EQ(*before.find(1), 10u);
    EXPECT_EQ(before.find(3), nullptr);
    auto after = map.snapshot(0);
    EXPECT_EQ(*after.find(1), 99u);
    EXPECT_EQ(*after.find(3), 30u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// Cross-shard atomicity.

TEST(ShardedMulti, LastWriteWinsWithinOneMultiOp) {
  const long long base_live = ftree::live_nodes();
  {
    PswfSharded map(1, {}, /*shards=*/4);
    map.multi_upsert_sync(
        0, std::vector<Entry>{{7, 1}, {8, 2}, {7, 3}});  // 7 written twice
    auto v7 = map.get(0, 7);
    auto v8 = map.get(0, 8);
    ASSERT_TRUE(v7.has_value());
    ASSERT_TRUE(v8.has_value());
    EXPECT_EQ(*v7, 3u);  // later entry wins
    EXPECT_EQ(*v8, 2u);
    map.multi_upsert_sync(0, std::vector<Entry>{});  // empty: no-op
    EXPECT_EQ(map.ops_committed(), 3u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// The two-shard atomic-commit test the ROADMAP asks for: a multi-key
// commit spanning two shards is all-or-nothing from every concurrent
// snapshot's view.
TEST(ShardedMulti, TwoShardCommitIsAllOrNothingUnderSnapshots) {
  const long long base_live = ftree::live_nodes();
  {
    const auto keys = keys_in_distinct_shards(2, 2);
    const std::uint64_t ka = keys[0], kb = keys[1];
    PswfSharded map(2, {}, /*shards=*/2);
    ASSERT_NE(map.shard_of(ka), map.shard_of(kb));

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      for (std::uint64_t i = 1; i <= 400; ++i) {
        map.multi_upsert_sync(
            0, std::vector<Entry>{{ka, i}, {kb, i}});
      }
      stop.store(true, std::memory_order_release);
    });
    std::uint64_t observed = 0;
    while (!stop.load(std::memory_order_acquire)) {
      auto snap = map.snapshot(1);
      const std::uint64_t* va = snap.find(ka);
      const std::uint64_t* vb = snap.find(kb);
      // All-or-nothing: both absent (before the first commit) or both
      // present with the SAME value — a torn commit would differ.
      if (va == nullptr) {
        EXPECT_EQ(vb, nullptr);
      } else {
        ASSERT_NE(vb, nullptr);
        EXPECT_EQ(*va, *vb);
        EXPECT_GE(*va, observed);  // writer's values are monotone
        observed = *va;
      }
    }
    writer.join();
    auto snap = map.snapshot(1);
    ASSERT_NE(snap.find(ka), nullptr);
    EXPECT_EQ(*snap.find(ka), 400u);
    EXPECT_EQ(*snap.find(kb), 400u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Snapshot-consistency stress: multiple writers commit 4-key rows (one key
// per shard) whose invariant is "all four values equal", while a
// single-shard writer churns unrelated keys and readers take version
// vectors continuously. No reader may ever observe a torn row. This is the
// TSan centerpiece of the tier.
TEST(ShardedStress, SnapshotsNeverObserveTornMultiShardCommits) {
  const long long base_live = ftree::live_nodes();
  {
    constexpr int kShards = 4;
    constexpr int kWriters = 2;
    constexpr int kReaders = 2;
    constexpr std::uint64_t kRounds = 150;
    // Producer indices: writers 0..1, churn 2, readers 3..4.
    PswfSharded map(kWriters + 1 + kReaders, {}, kShards,
                    /*buffer_capacity=*/1 << 10, /*max_batch=*/128);
    // Writer w owns a disjoint 4-key row spanning all 4 shards: row keys
    // are drawn from disjoint ranges so the rows never collide.
    std::vector<std::vector<std::uint64_t>> rows;
    for (int w = 0; w < kWriters; ++w) {
      std::vector<std::uint64_t> row;
      std::vector<bool> used(kShards, false);
      for (std::uint64_t k = static_cast<std::uint64_t>(w) * 1000000;
           row.size() < static_cast<std::size_t>(kShards); ++k) {
        const std::size_t s = PswfSharded::shard_index(k, kShards);
        if (!used[s]) {
          used[s] = true;
          row.push_back(k);
        }
      }
      rows.push_back(std::move(row));
    }

    std::atomic<int> writers_done{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (std::uint64_t i = 1; i <= kRounds; ++i) {
          std::vector<Entry> ops;
          for (std::uint64_t k : rows[static_cast<std::size_t>(w)]) {
            ops.emplace_back(k, i);
          }
          map.multi_upsert_sync(w, ops);
        }
        writers_done.fetch_add(1, std::memory_order_acq_rel);
      });
    }
    // Single-shard churn on keys far from every row, concurrent with the
    // multi commits: must neither block them nor perturb snapshots.
    threads.emplace_back([&] {
      std::uint64_t i = 0;
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        map.upsert_sync(kWriters, 5000000 + (i % 64), i);
        ++i;
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        const int pid = kWriters + 1 + r;
        while (writers_done.load(std::memory_order_acquire) < kWriters) {
          auto snap = map.snapshot(pid);
          for (const auto& row : rows) {
            const std::uint64_t* v0 = snap.find(row[0]);
            for (std::size_t j = 1; j < row.size(); ++j) {
              const std::uint64_t* vj = snap.find(row[j]);
              if (v0 == nullptr) {
                EXPECT_EQ(vj, nullptr) << "torn: row head absent, key "
                                       << row[j] << " present";
              } else {
                ASSERT_NE(vj, nullptr) << "torn: row head present, key "
                                       << row[j] << " absent";
                EXPECT_EQ(*v0, *vj) << "torn multi-shard commit observed";
              }
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    map.flush_all();
    auto snap = map.snapshot(0);
    for (const auto& row : rows) {
      for (std::uint64_t k : row) {
        ASSERT_NE(snap.find(k), nullptr);
        EXPECT_EQ(*snap.find(k), kRounds);
      }
    }
    // The protocol ran: snapshots were taken; retries are workload-
    // dependent (possibly zero) but the counter must be readable.
    EXPECT_GT(map.snapshots_taken(), 0u);
    (void)map.snapshot_retries();
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// Metrics. Compiled out with the record sites under -DMVCC_STATS=OFF —
// there is no registry content to assert on in that configuration.
#if !defined(MVCC_STATS_DISABLED)

TEST(ShardedMetrics, RegistryExportsPerShardAndSnapshotCounters) {
  const long long base_live = ftree::live_nodes();
  obs::set_enabled(true);
  {
    PswfSharded map(1, {}, /*shards=*/2);
    for (std::uint64_t k = 0; k < 50; ++k) map.upsert_sync(0, k, k);
    (void)map.snapshot(0);
    (void)map.snapshot(0);
    map.multi_upsert_sync(0, std::vector<Entry>{{1, 1}, {2, 2}});
    map.flush_all();
    EXPECT_EQ(map.snapshots_taken(), 2u);
    const std::string dump = obs::registry().dump_text("");
    for (const char* key :
         {"sharded/shard0/ops=", "sharded/shard1/ops=",
          "sharded/shard0/batches=", "sharded/snapshots=",
          "sharded/snapshot_retries=", "sharded/multi_commits=",
          "sharded/multi_ops="}) {
      EXPECT_NE(dump.find(key), std::string::npos) << "missing " << key;
    }
  }
  obs::set_enabled(false);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

#endif  // !MVCC_STATS_DISABLED

// ---------------------------------------------------------------------------
// MVCC_SHARDS sizing.

TEST(ShardedConfig, DefaultSizedMapHasConfigShardCount) {
  const long long base_live = ftree::live_nodes();
  {
    PswfSharded sized(1);  // shards=0: sizes from config()
    EXPECT_EQ(sized.shard_count(), config().shards);
    PswfSharded forced(1, {}, /*shards=*/5);  // explicit count overrides
    EXPECT_EQ(forced.shard_count(), 5);
    PswfSharded again(1);
    EXPECT_EQ(again.shard_count(), sized.shard_count());
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// Partitioned YCSB driver.

TEST(ShardedYcsb, PartitionedStreamsStayInTheirPartition) {
  workload::PartitionedYcsb part(workload::kYcsbA, 1000, 4);
  EXPECT_EQ(part.partition_size(), 250u);
  for (int p = 0; p < 4; ++p) {
    const auto ops = part.stream(p, 2000);
    ASSERT_EQ(ops.size(), 2000u);
    for (const auto& op : ops) {
      EXPECT_GE(op.key, part.partition_begin(p));
      EXPECT_LT(op.key, part.partition_end(p));
    }
  }
}

TEST(ShardedYcsb, PartitionedStreamsAreDeterministicPerSeed) {
  workload::PartitionedYcsb part(workload::kYcsbB, 4096, 2);
  const auto a = part.stream(0, 500, 42);
  const auto b = part.stream(0, 500, 42);
  const auto c = part.stream(0, 500, 43);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal = true;
  bool any_diff_seed = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    all_equal = all_equal && a[i].key == b[i].key && a[i].type == b[i].type;
    any_diff_seed = any_diff_seed || a[i].key != c[i].key;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed);
}

TEST(ShardedYcsb, PartitionedMixMatchesSpec) {
  workload::PartitionedYcsb part(workload::kYcsbA, 10000, 2);
  int reads = 0;
  const auto ops = part.stream(1, 10000);
  for (const auto& op : ops) reads += op.type == workload::YcsbOp::kRead;
  // YCSB A is 50/50; 10k draws stay within a few sigma of 5000.
  EXPECT_GT(reads, 4500);
  EXPECT_LT(reads, 5500);
}

}  // namespace
