// Batched multi-writer front-end over the functional tree — the paper's
// Section 5 / Appendix F architecture and the write path behind Figure 7's
// "ours" columns.
//
// Concurrent producers never touch the tree. Each producer p owns a
// single-producer/single-consumer ring buffer it fills with BatchOps; one
// FLATTENER thread drains every ring round-robin into a batch vector,
// deduplicates it with ftree::prepare_batch (later submissions win, and
// per-producer submission order is preserved by the drain), applies it in
// one bulk multi_insert, and publishes the resulting version through a
// Version Maintenance algorithm from vm/. Readers acquire a snapshot
// through the same VM, so reads are wait-free against the writer and see
// a single consistent version.
//
// Ownership / serialization contract:
//   * submit/upsert_sync for a given producer index p must come from one
//     thread at a time (the rings are SPSC); distinct producers are fully
//     concurrent.
//   * get/read_txn pin VM slot p; a slot must not be acquired from two
//     threads at once, but the same thread may freely interleave its
//     submits and reads on its own index.
//   * vm.set is called only by the flattener, satisfying the external
//     single-writer serialization the VM contract (vm/base.h) requires.
//   * Version payloads (Map objects) are owned here and created through
//     the alloc/ pool: every pointer a VM operation proves unreachable
//     goes through vm::reclaim_payloads with alloc::PoolDispose —
//     returned to the pool on the spot by default, or on the exec/ pool's
//     background lane under MVCC_BG_RECLAIM=1 so a commit never stalls on
//     the destructor cost of a large retirement. The destructor quiesces
//     that lane and drains the manager, so ftree::live_nodes() returns to
//     its baseline once the map and its snapshots are gone, in either mode.
//
// The batch bound is the Appendix F knob: `max_batch` caps the ops folded
// into one published version, trading throughput (bigger batches amortize
// the sort + bulk-union) against submit-to-commit latency. So that the
// trade is governed by the knob and not by queueing depth, admission
// control bounds each producer's submitted-but-uncommitted ops at
// ~max_batch (capped by ring capacity): a submitted op always lands in the
// batch being filled or the one after it, so its commit is at most about
// two batch publications away.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/timing.h"
#include "mvcc/ftree/fmap.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/obs/obs.h"
#include "mvcc/vm/base.h"

namespace mvcc::txn {

// Registry handles for the batching front-end, looked up once and shared
// by every BatchingMap instantiation (the telemetry is a process-wide
// aggregate, like ftree::live_nodes). Touched only under obs::enabled().
//
//   txn/batch_size            ops folded into each published version
//   txn/commit_latency_ns     upsert_sync submit-to-visible latency
//   txn/flattener_stalls      partial batches committed because a sync
//                             waiter was parked on rings that ran dry
//   txn/admission_rejects     submit calls that blocked on the in-flight
//                             bound before their op was admitted
struct BatchingStats {
  obs::LatencyHistogram& batch_size;
  obs::LatencyHistogram& commit_latency_ns;
  obs::Counter& flattener_stalls;
  obs::Counter& admission_rejects;

  static BatchingStats& get() {
    static BatchingStats s{obs::registry().histogram("txn/batch_size"),
                           obs::registry().histogram("txn/commit_latency_ns"),
                           obs::registry().counter("txn/flattener_stalls"),
                           obs::registry().counter("txn/admission_rejects")};
    return s;
  }
};

// Ops submitted but not yet drained by a flattener, summed across every
// live BatchingMap — the queue depth the footprint sampler plots.
// Maintained only under obs::enabled() (producers are the hot path).
inline std::atomic<std::int64_t> g_queue_depth{0};

// Registers the queue-depth probe with the obs sampler. Idempotent;
// called by every BatchingMap constructor and by the bench glue (the
// latter so the column exists even when the sampler starts before the
// first map is built).
inline void register_txn_probes() {
  obs::Sampler::instance().register_probe("txn/queue_depth", [] {
    return g_queue_depth.load(std::memory_order_relaxed);
  });
}

// The operations a producer may submit. Updates are upserts today; the enum
// leaves room for deletes once the tree grows a bulk difference path.
enum class BatchOp : std::uint8_t { kUpsert };

// K and V must be default-constructible and copyable (they live in ring
// slots); Aug is any ftree augmentation; VMImpl is a vm/ algorithm template
// (e.g. vm::PswfVersionManager for precise GC, vm::BaseVersionManager for
// the GC-off ablation).
template <class K, class V, class Aug, template <class> class VMImpl>
class BatchingMap {
 public:
  using Map = ftree::FMap<K, V, Aug>;
  using Entry = typename Map::Entry;
  using VM = VMImpl<Map>;
  static_assert(vm::VersionManagerFor<VM, Map>);

  // A pinned consistent snapshot. The FMap copy holds the version's nodes
  // alive by reference count, independent of the VM, so a ReadTxn may
  // outlive any number of later commits at zero cost to the writer.
  class ReadTxn {
   public:
    const Map& map() const { return snap_; }
    const Map* operator->() const { return &snap_; }

   private:
    friend class BatchingMap;
    explicit ReadTxn(Map snap) : snap_(std::move(snap)) {}
    Map snap_;
  };

  BatchingMap(int producers, Map initial,
              std::size_t buffer_capacity = std::size_t{1} << 14,
              std::size_t max_batch = std::size_t{1} << 16)
      : producers_(producers),
        max_batch_(max_batch > 0 ? max_batch : 1),
        vm_(producers + 1, alloc::create<Map>(std::move(initial))) {
    assert(producers >= 1);
    const std::size_t cap =
        std::bit_ceil(buffer_capacity > 0 ? buffer_capacity : 1);
    inflight_limit_ = max_batch_ < cap
                          ? std::max<std::uint64_t>(2, max_batch_)
                          : cap;
    // A batch can never exceed what admission control lets exist at once,
    // so cap the fill target there: the flattener then never waits for ops
    // that blocked producers cannot send (no reliance on the idle timeout).
    batch_target_ = std::max<std::size_t>(
        1, std::min<std::size_t>(
               max_batch_, static_cast<std::size_t>(producers_) *
                               static_cast<std::size_t>(inflight_limit_)));
    rings_.reserve(static_cast<std::size_t>(producers_));
    for (int p = 0; p < producers_; ++p) {
      rings_.push_back(std::make_unique<Ring>(cap));
    }
    // Register the txn/, reclaim-lane, and allocator metrics up front so a
    // stats-on run exports them even when an event (a stall, a reject, a
    // deferred batch, a depot transfer) never fires.
    if (obs::enabled()) {
      (void)BatchingStats::get();
      (void)alloc::ReclaimStats::get();
      (void)alloc::AllocStats::get();
      register_txn_probes();
    }
    flattener_ = std::thread([this] { flatten_loop(); });
  }

  BatchingMap(const BatchingMap&) = delete;
  BatchingMap& operator=(const BatchingMap&) = delete;

  // Quiescent teardown: callers must have stopped submitting and dropped
  // their ReadTxns' pins on the manager (held snapshots stay valid — they
  // own their nodes). Commits everything still buffered, drains the
  // background reclaim lane (deferred frees from those commits — even a
  // backed-up lane is fully freed before this returns), then frees every
  // version the manager tracks.
  ~BatchingMap() {
    stop_.store(true, std::memory_order_release);
    flattener_.join();
    vm::reclaim_quiesce();
    for (Map* dead : vm_.shutdown_drain()) alloc::destroy(dead);
  }

  // Asynchronous update: enqueues and returns. Blocks only for admission
  // control (the op is at most ~2 batch publications from commit then).
  void submit(int p, BatchOp op, const K& k, const V& v) {
    assert(p >= 0 && p < producers_);
    Ring& r = *rings_[static_cast<std::size_t>(p)];
    const std::uint64_t t = r.pushed.load(std::memory_order_relaxed);
    if (t - r.committed.load(std::memory_order_acquire) >= inflight_limit_) {
      // Admission control rejected the op on first try; count the blocked
      // submit once, then wait out the backlog.
      if (obs::enabled()) BatchingStats::get().admission_rejects.add();
      while (t - r.committed.load(std::memory_order_acquire) >=
             inflight_limit_) {
        std::this_thread::yield();
      }
    }
    Slot& s = r.slots[t & r.mask];
    s.key = k;
    s.val = v;
    s.op = op;
    // Depth up BEFORE the publish: the slot is invisible until the release
    // store, so the gauge over-counts by at most one in-flight op instead of
    // going transiently negative when the flattener drains and decrements
    // between the publish and a late increment.
    if (obs::enabled()) g_queue_depth.fetch_add(1, std::memory_order_relaxed);
    r.pushed.store(t + 1, std::memory_order_release);
  }

  // Synchronous update: stamps a ticket at submission and waits until the
  // flattener has published a version containing it. On return the write is
  // visible to every subsequent get/read_txn. The parked ticket is visible
  // to the flattener, which commits a partial batch as soon as every ring
  // has run dry with a sync waiter already drained — a producer blocked
  // here never waits on a batch that cannot fill.
  void upsert_sync(int p, const K& k, const V& v) {
    if (!obs::enabled()) {
      upsert_sync_impl(p, k, v);
      return;
    }
    Timer t;
    upsert_sync_impl(p, k, v);
    BatchingStats::get().commit_latency_ns.record(t.nanos());
  }

  // Point read against the current version via VM slot p.
  std::optional<V> get(int p, const K& k) {
    Map* cur = vm_.acquire(p);
    const V* v = cur->find(k);
    std::optional<V> out = v != nullptr ? std::optional<V>(*v) : std::nullopt;
    vm::reclaim_payloads(vm_.release(p), alloc::PoolDispose{});
    return out;
  }

  // Snapshot read: pins the current version O(1) and immediately releases
  // the VM slot — the returned transaction reads a frozen map.
  ReadTxn read_txn(int p) {
    Map* cur = vm_.acquire(p);
    Map snap = *cur;
    vm::reclaim_payloads(vm_.release(p), alloc::PoolDispose{});
    return ReadTxn(std::move(snap));
  }

  // Commit ticket for everything producer p has submitted so far: the
  // ops are committed once p's committed cursor reaches it. Together with
  // wait_committed this is the seam a multi-shard caller (txn/sharded.h)
  // uses to submit to several shards first and only then park on each
  // shard's ticket — the per-shard waits overlap instead of serializing.
  std::uint64_t submitted_ticket(int p) const {
    assert(p >= 0 && p < producers_);
    return rings_[static_cast<std::size_t>(p)]->pushed.load(
        std::memory_order_relaxed);
  }

  // Parks until producer p's ops up to `ticket` are committed, with the
  // parked ticket visible to the flattener's stall detection (a partial
  // batch commits as soon as the rings run dry with this waiter drained).
  // Same serialization contract as submit: one thread per producer index.
  void wait_committed(int p, std::uint64_t ticket) {
    assert(p >= 0 && p < producers_);
    Ring& r = *rings_[static_cast<std::size_t>(p)];
    if (r.committed.load(std::memory_order_acquire) >= ticket) return;
    r.sync_waiting.store(ticket, std::memory_order_release);
    while (r.committed.load(std::memory_order_acquire) < ticket) {
      std::this_thread::yield();
    }
    r.sync_waiting.store(0, std::memory_order_release);
  }

  // Drains: waits until every op submitted before this call is committed.
  // While any flush is waiting the flattener commits eagerly instead of
  // filling batches, so the wait is bounded by the backlog, not the bound.
  void flush_all() {
    std::vector<std::uint64_t> target(static_cast<std::size_t>(producers_));
    for (int p = 0; p < producers_; ++p) {
      target[static_cast<std::size_t>(p)] =
          rings_[static_cast<std::size_t>(p)]->pushed.load(
              std::memory_order_acquire);
    }
    flush_waiters_.fetch_add(1, std::memory_order_acq_rel);
    for (int p = 0; p < producers_; ++p) {
      Ring& r = *rings_[static_cast<std::size_t>(p)];
      while (r.committed.load(std::memory_order_acquire) <
             target[static_cast<std::size_t>(p)]) {
        std::this_thread::yield();
      }
    }
    flush_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  }

  // Ops contained in published versions (pre-dedup: every submission
  // counts once) and versions published. ops/batches is the mean batch.
  std::uint64_t ops_committed() const {
    return ops_committed_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches_committed() const {
    return batches_committed_.load(std::memory_order_relaxed);
  }

  int producers() const { return producers_; }

 private:
  struct Slot {
    K key;
    V val;
    BatchOp op;
  };

  // SPSC ring: the producer owns `pushed`, the flattener owns `popped`
  // (drained into the current batch) and `committed` (published). Cursors
  // sit on separate cache lines so producer and flattener don't false-share.
  struct Ring {
    explicit Ring(std::size_t capacity)
        : slots(new Slot[capacity]), mask(capacity - 1) {}
    std::unique_ptr<Slot[]> slots;
    std::uint64_t mask;
    alignas(64) std::atomic<std::uint64_t> pushed{0};
    alignas(64) std::atomic<std::uint64_t> popped{0};
    alignas(64) std::atomic<std::uint64_t> committed{0};
    // Ticket (pushed cursor value, so never 0) of a producer parked in
    // upsert_sync; 0 when none. Written by the producer, read by the
    // flattener's stall detection.
    alignas(64) std::atomic<std::uint64_t> sync_waiting{0};
  };

  // Idle polls (all rings empty) the flattener tolerates while holding a
  // partial batch before committing it anyway. This is the liveness valve
  // for sparse submission patterns — e.g. every producer parked inside
  // upsert_sync at once — and is never hit under load.
  static constexpr int kIdlePatience = 64;

  int writer_pid() const { return producers_; }

  void upsert_sync_impl(int p, const K& k, const V& v) {
    submit(p, BatchOp::kUpsert, k, v);
    wait_committed(p, submitted_ticket(p));
  }

  void flatten_loop() {
    std::vector<Entry> batch;
    std::vector<std::uint64_t> from(static_cast<std::size_t>(producers_), 0);
    std::size_t raw_ops = 0;
    int idle_polls = 0;
    int cursor = 0;
    // Timestamp of the first op drained into the in-flight batch; 0 while
    // the batch is empty. Spans batch formation in the trace.
    std::uint64_t form_t0 = 0;
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      const bool eager =
          stopping || flush_waiters_.load(std::memory_order_acquire) > 0;
      bool drained = false;
      for (int i = 0; i < producers_ && raw_ops < batch_target_; ++i) {
        const int p = (cursor + i) % producers_;
        Ring& r = *rings_[static_cast<std::size_t>(p)];
        const std::uint64_t head = r.popped.load(std::memory_order_relaxed);
        const std::uint64_t avail =
            r.pushed.load(std::memory_order_acquire) - head;
        const std::uint64_t take = std::min<std::uint64_t>(
            avail, static_cast<std::uint64_t>(batch_target_ - raw_ops));
        if (take == 0) continue;
        for (std::uint64_t j = 0; j < take; ++j) {
          const Slot& s = r.slots[(head + j) & r.mask];
          switch (s.op) {
            case BatchOp::kUpsert:
              batch.emplace_back(s.key, s.val);
              break;
          }
        }
        r.popped.store(head + take, std::memory_order_release);
        from[static_cast<std::size_t>(p)] += take;
        if (raw_ops == 0 && obs::trace_on()) form_t0 = obs::trace_now_ns();
        raw_ops += take;
        if (obs::enabled()) {
          g_queue_depth.fetch_sub(static_cast<std::int64_t>(take),
                                  std::memory_order_relaxed);
        }
        drained = true;
      }
      // Rotate the drain origin so no producer is starved when the batch
      // bound fills from the first rings scanned.
      cursor = (cursor + 1) % producers_;
      // Arrival stall: every ring ran dry this scan while some producer is
      // parked in upsert_sync on an op we already drained. Filling further
      // would only add the waiter's latency (its peers may be parked too),
      // so commit the partial batch now rather than ride the idle timeout.
      const bool sync_stalled =
          !drained && raw_ops > 0 && parked_waiter_drained();
      if (raw_ops >= batch_target_ ||
          (raw_ops > 0 &&
           (eager || sync_stalled || idle_polls >= kIdlePatience))) {
        if (sync_stalled && obs::enabled()) {
          BatchingStats::get().flattener_stalls.add();
          obs::trace_instant("txn/flattener_stall", raw_ops);
        }
        if (form_t0 != 0) {
          obs::trace_complete_since("txn/batch_form", form_t0, raw_ops);
          form_t0 = 0;
        }
        commit(batch, from, raw_ops);
        batch.clear();
        std::fill(from.begin(), from.end(), 0);
        raw_ops = 0;
        idle_polls = 0;
        continue;
      }
      if (!drained) {
        if (stopping && raw_ops == 0) break;
        ++idle_polls;
        std::this_thread::yield();
      } else {
        idle_polls = 0;
      }
    }
  }

  bool parked_waiter_drained() const {
    for (int p = 0; p < producers_; ++p) {
      const Ring& r = *rings_[static_cast<std::size_t>(p)];
      const std::uint64_t t = r.sync_waiting.load(std::memory_order_acquire);
      if (t != 0 && r.popped.load(std::memory_order_relaxed) >= t) {
        return true;
      }
    }
    return false;
  }

  // One transaction: dedup the drained ops (stable sort — the last
  // submission per key wins), bulk-apply over the acquired version, publish
  // through the VM, hand what it proved unreachable to reclaim (inline
  // delete, or the background lane under MVCC_BG_RECLAIM — the commit then
  // never stalls on a large retirement's destructor cost), then advance
  // the per-producer committed cursors (which is what releases upsert_sync
  // waiters and admission control).
  void commit(std::vector<Entry>& batch, const std::vector<std::uint64_t>& from,
              std::size_t raw_ops) {
    obs::TraceSpan span("txn/flattener_commit", raw_ops);
    Map* cur = vm_.acquire(writer_pid());
    ftree::prepare_batch(batch);
    Map next = cur->multi_inserted(std::span<const Entry>(batch));
    vm::reclaim_payloads(
        vm_.set(writer_pid(), alloc::create<Map>(std::move(next))),
        alloc::PoolDispose{});
    vm::reclaim_payloads(vm_.release(writer_pid()), alloc::PoolDispose{});
    ops_committed_.fetch_add(raw_ops, std::memory_order_relaxed);
    batches_committed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      BatchingStats::get().batch_size.record(
          static_cast<std::uint64_t>(raw_ops));
    }
    for (int p = 0; p < producers_; ++p) {
      const std::uint64_t n = from[static_cast<std::size_t>(p)];
      if (n == 0) continue;
      Ring& r = *rings_[static_cast<std::size_t>(p)];
      r.committed.store(r.committed.load(std::memory_order_relaxed) + n,
                        std::memory_order_release);
    }
  }

  const int producers_;
  const std::size_t max_batch_;
  std::uint64_t inflight_limit_;
  std::size_t batch_target_;
  VM vm_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<bool> stop_{false};
  std::atomic<int> flush_waiters_{0};
  std::atomic<std::uint64_t> ops_committed_{0};
  std::atomic<std::uint64_t> batches_committed_{0};
  std::thread flattener_;
};

}  // namespace mvcc::txn
