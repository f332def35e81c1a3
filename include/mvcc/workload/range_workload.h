// The paper's Table 2 / Figure 6 workload: a single writer commits
// versions of an augmented functional tree while P readers run range-sum
// queries against consistent snapshots, all mediated by a VM algorithm
// from vm/.
//
//   * update granularity nu: the writer acquires the current version,
//     applies nu point inserts (each intermediate version is collected
//     precisely by the FMap destructor), publishes the result with set,
//     and deletes every payload the VM proves unreachable.
//   * query granularity nq: each reader acquires a snapshot, sums a key
//     range expected to span ~nq entries via the tree's augmentation, and
//     releases — deleting whatever the release freed.
//
// The harness reports query/update throughput and the VM's
// max_live_versions high-water mark — the "maximum number of uncollected
// versions" axis of Figure 6. Deterministically seeded via mvcc::Xoshiro256;
// callers scale sizes via config().scaled() (see the benches).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/common/timing.h"
#include "mvcc/ftree/fmap.h"
#include "mvcc/vm/base.h"

namespace mvcc::workload {

// One version of the range-sum tree: key -> value with subtree sums.
using RangeSnapshot =
    ftree::FMap<std::uint64_t, std::uint64_t,
                ftree::AugSum<std::uint64_t, std::uint64_t>>;

struct RangeWorkloadConfig {
  int readers = 3;                  // reader processes; the writer is pid 0
  std::uint64_t initial_size = 100000;
  int nq = 10;                      // expected keys per range query
  int nu = 10;                      // point updates per published version
  double duration_sec = 0.4;
  std::uint64_t seed = 0x5eed5eedULL;
};

struct RangeWorkloadResult {
  std::uint64_t queries = 0;  // range queries completed
  std::uint64_t updates = 0;  // point updates applied (nu per version)
  std::uint64_t versions = 0; // versions published
  double elapsed_sec = 0;
  std::int64_t max_live_versions = 0;
  std::uint64_t checksum = 0;  // folded query results; defeats DCE

  double query_mops() const {
    return elapsed_sec > 0 ? static_cast<double>(queries) / elapsed_sec / 1e6
                           : 0.0;
  }
  double update_mops() const {
    return elapsed_sec > 0 ? static_cast<double>(updates) / elapsed_sec / 1e6
                           : 0.0;
  }
};

template <template <class> class VMImpl>
RangeWorkloadResult run_range_workload(const RangeWorkloadConfig& cfg) {
  using VM = VMImpl<RangeSnapshot>;
  static_assert(vm::VersionManagerFor<VM, RangeSnapshot>);

  // Initial tree: keys 0, 2, 4, ... so point updates at random keys split
  // evenly between overwrites and fresh inserts.
  const std::uint64_t n = cfg.initial_size > 0 ? cfg.initial_size : 1;
  const std::uint64_t key_space = 2 * n;
  const std::uint64_t query_span =
      2 * static_cast<std::uint64_t>(cfg.nq > 0 ? cfg.nq : 1);
  std::vector<RangeSnapshot::Entry> entries;
  entries.reserve(n);
  Xoshiro256 init_rng(cfg.seed);
  for (std::uint64_t i = 0; i < n; ++i) {
    entries.emplace_back(2 * i, init_rng.next_below(1000));
  }
  VM vm(cfg.readers + 1, new RangeSnapshot(RangeSnapshot::from_entries(
                             std::move(entries))));

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_queries{0};
  std::atomic<std::uint64_t> total_checksum{0};

  std::vector<std::thread> readers;
  readers.reserve(cfg.readers);
  for (int pid = 1; pid <= cfg.readers; ++pid) {
    readers.emplace_back([&, pid] {
      Xoshiro256 rng(cfg.seed ^ (0x9e3779b9ULL * pid));
      std::uint64_t queries = 0;
      std::uint64_t sum = 0;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_acquire)) {
        RangeSnapshot* snap = vm.acquire(pid);
        const std::uint64_t lo = rng.next_below(key_space);
        sum += snap->aug_range(lo, lo + query_span);
        for (RangeSnapshot* dead : vm.release(pid)) delete dead;
        ++queries;
      }
      total_queries.fetch_add(queries, std::memory_order_relaxed);
      total_checksum.fetch_add(sum, std::memory_order_relaxed);
    });
  }

  RangeWorkloadResult result;
  Timer timer;
  go.store(true, std::memory_order_release);

  // Writer (pid 0) on this thread: commit versions until the clock runs
  // out, deleting whatever set/release prove unreachable.
  {
    Xoshiro256 rng(cfg.seed ^ 0xabcdef12345ULL);
    while (timer.seconds() < cfg.duration_sec) {
      RangeSnapshot* cur = vm.acquire(0);
      RangeSnapshot next = *cur;  // O(1) snapshot
      for (int i = 0; i < cfg.nu; ++i) {
        next = next.inserted(rng.next_below(key_space),
                             rng.next_below(1000));
      }
      for (RangeSnapshot* dead : vm.set(0, new RangeSnapshot(std::move(next))))
        delete dead;
      for (RangeSnapshot* dead : vm.release(0)) delete dead;
      result.updates += static_cast<std::uint64_t>(cfg.nu);
      ++result.versions;
    }
  }
  stop.store(true, std::memory_order_release);
  // Snapshot the clock at the stop signal, before joining: thread join
  // latency is not part of the measured window, and every counted unit of
  // work (readers exit their loop at the first stop observation, the writer
  // stopped above) completed at most one in-flight query past this instant.
  // Reading the timer after the joins inflated the denominator and
  // under-reported both throughputs.
  result.elapsed_sec = timer.seconds();
  for (std::thread& t : readers) t.join();

  for (RangeSnapshot* dead : vm.shutdown_drain()) delete dead;
  result.queries = total_queries.load(std::memory_order_relaxed);
  result.checksum = total_checksum.load(std::memory_order_relaxed);
  result.max_live_versions = vm.max_live_versions();
  return result;
}

}  // namespace mvcc::workload
