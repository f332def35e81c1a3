// Sharded multi-writer scale-out over the batching front-end — the
// ROADMAP's "millions of users" lever. One BatchingMap funnels every write
// through a single flattener, which is the measured write ceiling of the
// stack; ShardedMap partitions the key space across N independent
// BatchingMap shards (splitmix64-mixed key -> shard), each with its own
// flattener thread, vm/ version manager, rings, and alloc/obs accounting,
// so update throughput scales with shards until the memory system, not the
// flattener, is the limit.
//
// Shard routing: shard_of(k) = Lemire-reduce(splitmix64_mix(k), N). The
// mix makes the partition independent of any key-space structure (YCSB's
// dense [0, n) keys spread uniformly), and the reduction avoids requiring
// a power-of-two shard count.
//
// Cross-shard consistency protocol (the part a bag of independent maps
// lacks):
//
//   * snapshot(p) returns a version vector — one pinned FMap snapshot per
//     shard, acquired through each shard's vm/ acquire path
//     (vm::acquire_version_vector) — that is MUTUALLY CONSISTENT: it never
//     observes a torn multi_upsert_sync. Consistency comes from a seqlock
//     epoch: every multi-shard commit holds the epoch odd from before its
//     first submit until after every involved shard's sync ticket has
//     committed; the snapshot's validate-retry pass reads a stable (even)
//     epoch, pins all shards, and re-reads — a changed epoch means a
//     multi-shard commit overlapped, so the pins are dropped and the pass
//     retries (counted in sharded/snapshot_retries). After
//     kSnapshotRetryBudget failed passes the snapshot serializes behind
//     the committers by taking the multi-commit mutex, bounding the loop
//     under a storm of multi-shard commits.
//
//   * multi_upsert_sync(p, ops) commits a multi-key write spanning any
//     subset of shards atomically with respect to snapshots: submit every
//     op to its shard, then park on each involved shard's sync ticket
//     (BatchingMap::wait_committed — the waits overlap, they don't
//     serialize), all inside the odd-epoch window. Multi-shard commits are
//     serialized against each other by a mutex; single-shard traffic
//     (submit/upsert_sync/get) never touches it.
//
// What is and is not guaranteed: snapshot() vectors are atomic with
// respect to multi_upsert_sync; per-key reads (get) are linearizable per
// shard but two separate get calls can straddle a multi-shard commit —
// cross-shard atomicity is defined at the snapshot, exactly like a
// database read transaction.
//
// MVCC_SHARDS sizing: a ShardedMap constructed with shards=0 (the default)
// takes its shard count from config().shards, which never changes, so two
// default-sized maps always agree about the topology the process-wide
// sharded/shard<i>/* metrics are keyed by. An explicit shards argument
// (benches sweeping 1/2/4 in one process, tests) overrides it.
//
// Metrics (registered up front, cumulative across instances like txn/*):
//   sharded/shard<i>/ops        ops committed by shard i's flattener
//   sharded/shard<i>/batches    versions shard i published
//   sharded/snapshots           cross-shard version vectors taken
//   sharded/snapshot_retries    validate passes that failed and retried
//   sharded/multi_commits       multi_upsert_sync calls committed
//   sharded/multi_ops           ops those calls carried
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mvcc/common/env.h"
#include "mvcc/common/rng.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/batching.h"
#include "mvcc/vm/base.h"

namespace mvcc::txn {

// Partitions the key space across N independent BatchingMap shards and
// adds the cross-shard snapshot / atomic multi-commit protocol described
// above. Template parameters match BatchingMap; every shard runs the same
// VM algorithm.
template <class K, class V, class Aug, template <class> class VMImpl>
class ShardedMap {
 public:
  using Shard = BatchingMap<K, V, Aug, VMImpl>;
  using Map = typename Shard::Map;
  using Entry = typename Map::Entry;
  using ReadTxn = typename Shard::ReadTxn;

  // A cross-shard version vector: one pinned, refcount-owned FMap snapshot
  // per shard, mutually consistent against multi-shard commits. Outlives
  // the ShardedMap like any ReadTxn outlives its BatchingMap.
  class Snapshot {
   public:
    // Point lookup routed to the owning shard's pinned version.
    const V* find(const K& k) const {
      return txns_[ShardedMap::shard_index(k, txns_.size())]->find(k);
    }

    std::size_t size() const {
      std::size_t n = 0;
      for (const auto& t : txns_) n += t.map().size();
      return n;
    }

    std::size_t shards() const { return txns_.size(); }

    // Shard s's pinned map, for callers iterating a whole shard.
    const Map& shard_map(std::size_t s) const { return txns_[s].map(); }

   private:
    friend class ShardedMap;
    explicit Snapshot(std::vector<ReadTxn> txns) : txns_(std::move(txns)) {}
    std::vector<ReadTxn> txns_;
  };

  // `shards` = 0 sizes from MVCC_SHARDS (config().shards); an explicit
  // count overrides it (bench sweeps, tests). `initial` is partitioned by
  // shard_of and bulk-built per shard. `producers`, `buffer_capacity` and
  // `max_batch` apply to every shard (each shard has `producers` rings, so
  // any producer may submit to any shard).
  ShardedMap(int producers, std::vector<Entry> initial = {}, int shards = 0,
             std::size_t buffer_capacity = std::size_t{1} << 14,
             std::size_t max_batch = std::size_t{1} << 16)
      : producers_(producers),
        nshards_(shards > 0 ? shards : config().shards) {
    assert(producers >= 1);
    std::vector<std::vector<Entry>> parts(
        static_cast<std::size_t>(nshards_));
    for (auto& e : initial) {
      parts[shard_of(e.first)].push_back(std::move(e));
    }
    shards_.reserve(static_cast<std::size_t>(nshards_));
    for (int s = 0; s < nshards_; ++s) {
      shards_.push_back(std::make_unique<Shard>(
          producers_, Map::from_entries(std::move(parts[static_cast<std::size_t>(s)])),
          buffer_capacity, max_batch));
    }
    last_ops_.assign(static_cast<std::size_t>(nshards_), 0);
    last_batches_.assign(static_cast<std::size_t>(nshards_), 0);
    if (obs::enabled()) {
      // Register the whole sharded/* namespace up front so a stats-on run
      // exports every key even when an event (a retry, a multi commit)
      // never fires.
      (void)snapshots_counter();
      (void)snapshot_retries_counter();
      (void)multi_commits_counter();
      (void)multi_ops_counter();
      for (int s = 0; s < nshards_; ++s) {
        (void)shard_counter(s, "ops");
        (void)shard_counter(s, "batches");
      }
    }
  }

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  // Quiescent teardown, shard by shard: each BatchingMap commits its
  // backlog, quiesces the background reclaim lane, and frees every version
  // its manager tracks — ftree::live_nodes() returns to baseline once the
  // map and its snapshots are gone.
  ~ShardedMap() { publish_shard_metrics(); }

  int shard_count() const { return nshards_; }
  int producers() const { return producers_; }

  // Where key k lives. Static form for tests that need to construct keys
  // landing in specific shards of a hypothetical N-way map.
  static std::size_t shard_index(const K& k, std::size_t nshards) {
    static_assert(std::is_integral_v<K>,
                  "shard routing mixes the key's integral image");
    const std::uint64_t h = splitmix64_mix(static_cast<std::uint64_t>(k));
    // Lemire reduction: uniform over [0, nshards) without requiring a
    // power-of-two count.
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(h) * nshards) >> 64);
  }

  std::size_t shard_of(const K& k) const {
    return shard_index(k, static_cast<std::size_t>(nshards_));
  }

  // Asynchronous single-key update, routed to the owning shard. Same
  // per-producer serialization contract as BatchingMap::submit.
  void submit(int p, BatchOp op, const K& k, const V& v) {
    shards_[shard_of(k)]->submit(p, op, k, v);
  }

  // Synchronous single-key update: visible to every subsequent get and
  // snapshot on return. Single-shard, so it never touches the multi-commit
  // mutex or the epoch.
  void upsert_sync(int p, const K& k, const V& v) {
    shards_[shard_of(k)]->upsert_sync(p, k, v);
  }

  // Point read against the owning shard's current version via VM slot p.
  std::optional<V> get(int p, const K& k) {
    return shards_[shard_of(k)]->get(p, k);
  }

  // Atomic multi-key commit spanning any subset of shards: from any
  // concurrent snapshot's view, all of `ops` are visible or none are.
  // Later duplicate keys win (each shard's flattener dedups last-wins in
  // submission order). Blocks until every involved shard has committed.
  // Multi-shard commits serialize against each other; they run concurrently
  // with single-shard traffic and (lock-free) snapshots.
  void multi_upsert_sync(int p, std::span<const Entry> ops) {
    if (ops.empty()) return;
    obs::TraceSpan span("sharded/multi_commit", ops.size());
    std::lock_guard<std::mutex> lk(multi_mu_);
    // Epoch to odd BEFORE the first submit: any snapshot pinned from here
    // until the matching even flip fails its validate pass.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    // Submit everything first, then collect tickets, then park: the
    // per-shard commit waits overlap instead of adding up.
    for (const Entry& e : ops) {
      shards_[shard_of(e.first)]->submit(p, BatchOp::kUpsert, e.first,
                                         e.second);
    }
    std::vector<std::uint64_t> tickets(shards_.size(), 0);
    for (const Entry& e : ops) {
      const std::size_t s = shard_of(e.first);
      tickets[s] = shards_[s]->submitted_ticket(p);
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (tickets[s] != 0) shards_[s]->wait_committed(p, tickets[s]);
    }
    // Even flip only after every involved shard's ticket committed: a
    // snapshot whose stable-epoch read sees the new value therefore sees
    // every shard's published version (release/acquire on the epoch).
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (obs::enabled()) {
      multi_commits_counter().add();
      multi_ops_counter().add(ops.size());
    }
  }

  // Cross-shard consistent snapshot through VM slot p (same slot contract
  // as get: one thread per producer index at a time). Lock-free validate-
  // retry against in-flight multi-shard commits; falls back to serializing
  // behind them after kSnapshotRetryBudget failed passes.
  Snapshot snapshot(int p) {
    obs::TraceSpan span("sharded/snapshot");
    std::uint64_t retries = 0;
    auto vec = vm::acquire_version_vector<ReadTxn>(
        shards_.size(), [this] { return stable_epoch(); },
        [this, p](std::size_t s) { return shards_[s]->read_txn(p); },
        &retries, kSnapshotRetryBudget);
    if (vec.empty()) {
      // Retry budget exhausted under a storm of multi-shard commits:
      // holding multi_mu_ excludes them, so one unvalidated pass suffices.
      std::lock_guard<std::mutex> lk(multi_mu_);
      vec.reserve(shards_.size());
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        vec.push_back(shards_[s]->read_txn(p));
      }
    }
    snapshot_retries_.fetch_add(retries, std::memory_order_relaxed);
    snapshots_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      snapshots_counter().add();
      if (retries != 0) snapshot_retries_counter().add(retries);
    }
    span.set_arg(retries);
    return Snapshot(std::move(vec));
  }

  // Drains every shard: all ops submitted before the call are committed on
  // return. Also publishes the per-shard committed-op deltas to the
  // sharded/shard<i>/* registry counters.
  void flush_all() {
    for (auto& s : shards_) s->flush_all();
    publish_shard_metrics();
  }

  // Committed-op / published-version totals, summed across shards.
  std::uint64_t ops_committed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->ops_committed();
    return n;
  }
  std::uint64_t batches_committed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->batches_committed();
    return n;
  }
  std::uint64_t shard_ops_committed(int s) const {
    return shards_[static_cast<std::size_t>(s)]->ops_committed();
  }
  std::uint64_t shard_batches_committed(int s) const {
    return shards_[static_cast<std::size_t>(s)]->batches_committed();
  }

  // Instance-level snapshot telemetry (the registry counters aggregate
  // across instances; benches with stats off read these).
  std::uint64_t snapshots_taken() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_retries() const {
    return snapshot_retries_.load(std::memory_order_relaxed);
  }

 private:
  // Snapshot validate passes tolerated before serializing behind the
  // multi-commit mutex. Multi-shard commits are batched sync writes (tens
  // of microseconds each), so a handful of retries already spans several
  // full commit windows.
  static constexpr std::uint64_t kSnapshotRetryBudget = 8;

  // Spins until the epoch is even (no multi-shard commit in flight) and
  // returns it — the validation token of the snapshot protocol.
  std::uint64_t stable_epoch() const {
    for (;;) {
      const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
      if ((e & 1) == 0) return e;
      std::this_thread::yield();
    }
  }

  // Pushes each shard's committed-op/batch deltas since the last publish
  // into the process-wide registry counters. Called at flush_all and
  // teardown — off every hot path.
  void publish_shard_metrics() {
    if (!obs::enabled()) return;
    std::lock_guard<std::mutex> lk(metrics_mu_);
    for (int s = 0; s < nshards_; ++s) {
      const std::uint64_t ops = shard_ops_committed(s);
      const std::uint64_t batches = shard_batches_committed(s);
      const std::size_t i = static_cast<std::size_t>(s);
      shard_counter(s, "ops").add(ops - last_ops_[i]);
      shard_counter(s, "batches").add(batches - last_batches_[i]);
      last_ops_[i] = ops;
      last_batches_[i] = batches;
    }
  }

  static obs::Counter& shard_counter(int s, const char* what) {
    return obs::registry().counter("sharded/shard" + std::to_string(s) +
                                   "/" + what);
  }
  static obs::Counter& snapshots_counter() {
    return obs::registry().counter("sharded/snapshots");
  }
  static obs::Counter& snapshot_retries_counter() {
    return obs::registry().counter("sharded/snapshot_retries");
  }
  static obs::Counter& multi_commits_counter() {
    return obs::registry().counter("sharded/multi_commits");
  }
  static obs::Counter& multi_ops_counter() {
    return obs::registry().counter("sharded/multi_ops");
  }

  const int producers_;
  const int nshards_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Seqlock epoch of the cross-shard protocol: even = quiescent, odd = a
  // multi-shard commit is between its first submit and last ticket.
  std::atomic<std::uint64_t> epoch_{0};
  // Serializes multi-shard commits (and the snapshot fallback) against
  // each other; never touched by single-shard traffic.
  std::mutex multi_mu_;

  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> snapshot_retries_{0};

  // publish_shard_metrics bookkeeping (guarded by metrics_mu_).
  std::mutex metrics_mu_;
  std::vector<std::uint64_t> last_ops_;
  std::vector<std::uint64_t> last_batches_;
};

}  // namespace mvcc::txn
