// Raw node layer of the functional (path-copying) balanced tree.
//
// This is the substrate the paper's multiversioning rests on: every update
// produces a new version that shares all untouched subtrees with its
// predecessors, and intrusive reference counts make garbage collection
// precise — `collect` frees exactly the nodes reachable from no surviving
// version, in time proportional to the number freed (the tree analogue of
// Theorem 4.2).
//
// Balancing is a height-balanced (AVL) join tree: `insert`, `join`, `split`
// and `union_` all preserve the AVL invariant, so `join`-based bulk
// operations (union / multi_insert) compose with point updates.
//
// Ownership protocol: a Node* is an owned reference. Every function taking
// Node* by value CONSUMES that reference (the functional analogue of move
// semantics); call `share` first to keep using a tree afterwards. Functions
// taking const Node* only read. Reference counts are atomic: snapshot
// holders may share/collect versions from any thread concurrently with the
// (externally serialized) mutator, and the bulk operations (`union_`,
// `multi_insert`, `build_sorted`) fork their independent recursive calls
// across worker threads (MVCC_THREADS) — each worker consumes a disjoint
// set of owned references, so the counts stay exact.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/env.h"
#include "mvcc/exec/pool.h"
#include "mvcc/obs/obs.h"

namespace mvcc::ftree {

// Global live-node counter, shared by all instantiations; tests use it to
// prove refcount exactness (it returns to zero once every version dies).
inline std::atomic<long long> g_live_nodes{0};

inline long long live_nodes() {
  return g_live_nodes.load(std::memory_order_relaxed);
}

// Memory-footprint telemetry (the metric the space-bounded MVGC follow-up
// work tracks alongside throughput): byte-exact live-heap accounting and
// high-water marks, maintained only under obs::enabled() so the default
// hot path keeps its single counter increment.
//
//   ftree/live_nodes_hwm   max nodes simultaneously live (all trees)
//   ftree/live_bytes_hwm   the same high-water mark in node bytes
inline std::atomic<long long> g_live_bytes{0};

inline obs::Gauge& live_nodes_hwm() {
  static obs::Gauge& g = obs::registry().gauge("ftree/live_nodes_hwm");
  return g;
}

inline obs::Gauge& live_bytes_hwm() {
  static obs::Gauge& g = obs::registry().gauge("ftree/live_bytes_hwm");
  return g;
}

inline void note_nodes_alloc(long long nodes_now, std::size_t bytes) {
  const long long bytes_now =
      g_live_bytes.fetch_add(static_cast<long long>(bytes),
                             std::memory_order_relaxed) +
      static_cast<long long>(bytes);
  live_nodes_hwm().update_max(nodes_now);
  live_bytes_hwm().update_max(bytes_now);
}

inline void note_nodes_freed(std::size_t bytes) {
  g_live_bytes.fetch_sub(static_cast<long long>(bytes),
                         std::memory_order_relaxed);
}

// Registers the tree's footprint gauges with the obs sampler, so a
// sampling run records live_nodes/live_bytes CURVES (the space-bounded
// MVGC plots), not just the high-water marks above. Idempotent; called by
// the bench glue before the sampler starts.
inline void register_footprint_probes() {
  obs::Sampler::instance().register_probe("ftree/live_nodes", [] {
    return static_cast<std::int64_t>(
        g_live_nodes.load(std::memory_order_relaxed));
  });
  obs::Sampler::instance().register_probe("ftree/live_bytes", [] {
    return static_cast<std::int64_t>(
        g_live_bytes.load(std::memory_order_relaxed));
  });
}

// Augmentation that carries nothing; the default for plain maps.
template <class K, class V>
struct NoAug {
  struct T {};
  static T zero() { return {}; }
  static T leaf(const K&, const V&) { return {}; }
  static T combine(const T&, const T&, const T&) { return {}; }
};

// Augmentation summing values over subtrees; powers O(log n) range sums.
template <class K, class V>
struct AugSum {
  using T = V;
  static T zero() { return T{}; }
  static T leaf(const K&, const V& v) { return v; }
  static T combine(const T& l, const T& m, const T& r) { return l + m + r; }
};

// Height-packed node layout: height and weight share one 64-bit word
// (7 bits of height — an AVL tree needs height > 127 only beyond 2^87
// nodes — under 57 bits of weight), and an empty augmentation occupies no
// storage via [[no_unique_address]]. A NoAug<u64, u64> node is 48 bytes
// instead of the naive 64: three nodes per pair of cache lines on the
// collect/insert hot paths.
template <class K, class V, class A = NoAug<K, V>>
struct Node {
  static constexpr std::uint32_t kHeightBits = 7;
  static constexpr std::uint64_t kHeightMask = (1u << kHeightBits) - 1;

  Node* left;
  Node* right;
  std::atomic<std::uint32_t> refs;
  [[no_unique_address]] typename A::T aug;
  K key;
  V val;
  std::uint64_t hw;  // weight << kHeightBits | height

  std::uint32_t height() const {
    return static_cast<std::uint32_t>(hw & kHeightMask);
  }
  std::uint64_t weight() const { return hw >> kHeightBits; }

  Node(const K& k, const V& v, Node* l, Node* r)
      : left(l),
        right(r),
        refs(1),
        aug(A::combine(l != nullptr ? l->aug : A::zero(), A::leaf(k, v),
                       r != nullptr ? r->aug : A::zero())),
        key(k),
        val(v),
        hw(((1 + (l != nullptr ? l->weight() : 0u) +
             (r != nullptr ? r->weight() : 0u))
            << kHeightBits) |
           (1 + std::max(l != nullptr ? l->height() : 0u,
                         r != nullptr ? r->height() : 0u))) {}
};

template <class K, class V, class A>
inline std::uint32_t height_of(const Node<K, V, A>* t) {
  return t != nullptr ? t->height() : 0;
}

template <class K, class V, class A>
inline std::uint64_t weight_of(const Node<K, V, A>* t) {
  return t != nullptr ? t->weight() : 0;
}

template <class K, class V, class A>
inline typename A::T aug_of(const Node<K, V, A>* t) {
  return t != nullptr ? t->aug : A::zero();
}

// The allocation policy every node goes through — the explicit seam
// between the tree algorithms and the alloc/ slab pool. `create`/`destroy`
// are the unit operations (routing honors MVCC_ALLOC: slab pool by
// default, plain operator new/delete under "malloc"); `free_batch` hands
// an exact freed set's raw storage (destructors already run) back to the
// pool wholesale, which is what makes a precise collect O(freed) in the
// allocator too, not just in the traversal.
struct NodeAlloc {
  template <class N, class... Args>
  static N* create(Args&&... args) {
    return alloc::create<N>(std::forward<Args>(args)...);
  }

  template <class N>
  static void destroy(N* n) {
    alloc::destroy(n);
  }

  template <class N>
  static void free_batch(std::vector<void*>& mem) {
    alloc::deallocate_batch(mem.data(), mem.size(), sizeof(N));
    mem.clear();
  }
};

// Allocates a node owning the references `l` and `r` (no count adjustment:
// ownership transfers in). The returned pointer is one owned reference.
template <class K, class V, class A>
Node<K, V, A>* make_node(const K& k, const V& v, Node<K, V, A>* l,
                         Node<K, V, A>* r) {
  const long long now =
      g_live_nodes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::enabled()) note_nodes_alloc(now, sizeof(Node<K, V, A>));
  return NodeAlloc::create<Node<K, V, A>>(k, v, l, r);
}

// Takes an additional owned reference to `t` (which may be null).
template <class K, class V, class A>
inline Node<K, V, A>* share(Node<K, V, A>* t) {
  if (t != nullptr) t->refs.fetch_add(1, std::memory_order_relaxed);
  return t;
}

// Releases one owned reference to `t` and frees every node that becomes
// unreachable. Iterative, so no tree depth can overflow the stack, and the
// work is O(freed + 1): one visit per freed node plus one decrement per
// edge crossing out of the freed set. Returns the number of nodes freed.
template <class K, class V, class A>
std::size_t collect(Node<K, V, A>* t) {
  if (t == nullptr ||
      t->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return 0;
  }
  // Collect pauses are the timeline event GC papers plot; the span only
  // covers calls that actually free (the early returns above are the hot
  // no-op path). Nested collects through ~V emit nested spans.
  obs::TraceSpan span("ftree/collect");
  std::size_t freed = 0;
  // The thread-local stack is reused across calls so steady-state version
  // drops don't reallocate it — but `delete dead` can reenter collect at
  // this very instantiation when V's destructor drops another tree of the
  // same type (map-of-maps payloads, txn batching vectors, the inverted
  // index). The in-use guard routes such nested calls to a plain local
  // stack, leaving the outer iteration's state intact; only the outermost
  // frame — the steady-state path — touches the shared allocation.
  thread_local std::vector<Node<K, V, A>*> shared_stack;
  thread_local std::vector<void*> shared_freed_mem;
  thread_local bool shared_stack_in_use = false;
  std::vector<Node<K, V, A>*> local_stack;
  std::vector<void*> local_freed_mem;
  const bool outermost = !shared_stack_in_use;
  std::vector<Node<K, V, A>*>& stack = outermost ? shared_stack : local_stack;
  // Destructors run inline (a payload's ~V may legitimately reenter
  // collect), but the freed RAW STORAGE is batched and returned to the
  // allocator in one deallocate_batch at the end — the whole freed set
  // flows back to the thread cache / depot wholesale instead of one
  // heap free at a time.
  std::vector<void*>& freed_mem =
      outermost ? shared_freed_mem : local_freed_mem;
  if (outermost) {
    shared_stack_in_use = true;
    stack.clear();
    freed_mem.clear();
  }
  stack.push_back(t);
  while (!stack.empty()) {
    Node<K, V, A>* dead = stack.back();
    stack.pop_back();
    for (Node<K, V, A>* child : {dead->left, dead->right}) {
      if (child != nullptr &&
          child->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        stack.push_back(child);
      }
    }
    dead->~Node();  // may reenter collect through ~V; see guard above
    freed_mem.push_back(dead);
    ++freed;
  }
  NodeAlloc::free_batch<Node<K, V, A>>(freed_mem);
  if (outermost) shared_stack_in_use = false;
  g_live_nodes.fetch_sub(static_cast<long long>(freed),
                         std::memory_order_relaxed);
  if (obs::enabled()) note_nodes_freed(freed * sizeof(Node<K, V, A>));
  span.set_arg(freed);
  return freed;
}

// Deconstructs an owned reference to `t` (non-null): copies out key/value,
// hands the caller owned references to both children, and releases `t`.
// When the caller holds the only reference the children's counts are stolen
// rather than bumped, so hot single-version paths touch each count once.
// (Observing refs == 1 is stable: we hold a reference, so it is ours, and
// no other thread can legitimately share or drop a node it doesn't own.)
template <class K, class V, class A>
inline void expose(Node<K, V, A>* t, Node<K, V, A>** l, Node<K, V, A>** r,
                   K* k, V* v) {
  assert(t != nullptr);
  *k = t->key;
  *v = t->val;
  if (t->refs.load(std::memory_order_acquire) == 1) {
    *l = t->left;
    *r = t->right;
    NodeAlloc::destroy(t);
    g_live_nodes.fetch_sub(1, std::memory_order_relaxed);
    if (obs::enabled()) note_nodes_freed(sizeof(Node<K, V, A>));
  } else {
    // Shared with other versions: bump the children BEFORE dropping t (we
    // still own t, so its child references pin them), then check whether
    // our drop turned out to be the last — a concurrent collect of another
    // version sharing t may have released its reference between our load
    // above and the fetch_sub below. Ignoring that result would leak t and
    // strand one count on each child.
    *l = share(t->left);
    *r = share(t->right);
    if (t->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // We were the last owner after all. Free t, dropping its child
      // references — which cannot hit zero, because the shares above are
      // ours and still outstanding.
      if (t->left != nullptr) {
        t->left->refs.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (t->right != nullptr) {
        t->right->refs.fetch_sub(1, std::memory_order_acq_rel);
      }
      NodeAlloc::destroy(t);
      g_live_nodes.fetch_sub(1, std::memory_order_relaxed);
      if (obs::enabled()) note_nodes_freed(sizeof(Node<K, V, A>));
    }
  }
}

// Builds a node over (l, k/v, r) when their heights differ by at most two,
// restoring the AVL invariant with at most a double rotation. This is the
// rebalancing step shared by insert and join. Consumes l and r.
template <class K, class V, class A>
Node<K, V, A>* balance_node(Node<K, V, A>* l, const K& k, const V& v,
                            Node<K, V, A>* r) {
  const std::uint32_t hl = height_of(l);
  const std::uint32_t hr = height_of(r);
  if (hl > hr + 1) {
    Node<K, V, A>*ll, *lr;
    K lk;
    V lv;
    expose(l, &ll, &lr, &lk, &lv);
    if (height_of(ll) >= height_of(lr)) {
      return make_node(lk, lv, ll, make_node(k, v, lr, r));
    }
    Node<K, V, A>*ml, *mr;
    K mk;
    V mv;
    expose(lr, &ml, &mr, &mk, &mv);
    return make_node(mk, mv, make_node(lk, lv, ll, ml),
                     make_node(k, v, mr, r));
  }
  if (hr > hl + 1) {
    Node<K, V, A>*rl, *rr;
    K rk;
    V rv;
    expose(r, &rl, &rr, &rk, &rv);
    if (height_of(rr) >= height_of(rl)) {
      return make_node(rk, rv, make_node(k, v, l, rl), rr);
    }
    Node<K, V, A>*ml, *mr;
    K mk;
    V mv;
    expose(rl, &ml, &mr, &mk, &mv);
    return make_node(mk, mv, make_node(k, v, l, ml),
                     make_node(rk, rv, mr, rr));
  }
  return make_node(k, v, l, r);
}

// Path-copying insert-or-replace. Consumes `t`; returns the new version's
// root. O(log n) new nodes; everything off the search path is shared.
template <class K, class V, class A>
Node<K, V, A>* insert(Node<K, V, A>* t, const K& k, const V& v) {
  if (t == nullptr) return make_node<K, V, A>(k, v, nullptr, nullptr);
  Node<K, V, A>*l, *r;
  K tk;
  V tv;
  expose(t, &l, &r, &tk, &tv);
  if (k < tk) return balance_node(insert(l, k, v), tk, tv, r);
  if (tk < k) return balance_node(l, tk, tv, insert(r, k, v));
  return make_node(k, v, l, r);
}

// Joins l < k < r into one AVL tree, for arbitrary height difference.
// Consumes l and r. O(|h(l) - h(r)|).
template <class K, class V, class A>
Node<K, V, A>* join(Node<K, V, A>* l, const K& k, const V& v,
                    Node<K, V, A>* r) {
  const std::uint32_t hl = height_of(l);
  const std::uint32_t hr = height_of(r);
  if (hl > hr + 1) {
    Node<K, V, A>*ll, *lr;
    K lk;
    V lv;
    expose(l, &ll, &lr, &lk, &lv);
    return balance_node(ll, lk, lv, join(lr, k, v, r));
  }
  if (hr > hl + 1) {
    Node<K, V, A>*rl, *rr;
    K rk;
    V rv;
    expose(r, &rl, &rr, &rk, &rv);
    return balance_node(join(l, k, v, rl), rk, rv, rr);
  }
  return make_node(k, v, l, r);
}

template <class K, class V, class A>
struct SplitResult {
  Node<K, V, A>* left;
  Node<K, V, A>* right;
  bool found;
  V value;
};

// Splits `t` at `k` into keys < k and keys > k, reporting k's value if
// present. Consumes `t`. O(log n).
template <class K, class V, class A>
SplitResult<K, V, A> split(Node<K, V, A>* t, const K& k) {
  if (t == nullptr) return {nullptr, nullptr, false, V{}};
  Node<K, V, A>*l, *r;
  K tk;
  V tv;
  expose(t, &l, &r, &tk, &tv);
  if (k < tk) {
    SplitResult<K, V, A> s = split(l, k);
    return {s.left, join(s.right, tk, tv, r), s.found, s.value};
  }
  if (tk < k) {
    SplitResult<K, V, A> s = split(r, k);
    return {join(l, tk, tv, s.left), s.right, s.found, s.value};
  }
  return {l, r, true, tv};
}

// Fork-join granularity for the bulk operations: a recursive subproblem
// below this many nodes of work stays sequential, so the fork cost is
// always amortized over thousands of node visits. Tunable (MVCC_GRAIN via
// config().grain, default 2048, floored at kGrainFloor) for grain sweeps.
inline std::uint64_t bulk_grain() {
  return static_cast<std::uint64_t>(config().grain);
}

namespace detail {

// Resolves a caller-supplied worker budget: positive means exactly that
// many workers, zero (the default) means config().threads (MVCC_THREADS).
inline int bulk_budget(int threads) {
  return threads > 0 ? threads : config().threads;
}

// Recursive core of union_ with a fork-join worker budget. The two
// subproblems operate on key-disjoint trees (a split partitions by key and
// these are search trees, so no node is reachable from both sides), hence
// each branch consumes its own set of owned references and the forked task
// never touches the caller's. The result is identical for every budget:
// the computation DAG does not depend on execution order.
template <class K, class V, class A>
Node<K, V, A>* union_rec(Node<K, V, A>* a, Node<K, V, A>* b, int budget) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  Node<K, V, A>*bl, *br;
  K bk;
  V bv;
  expose(b, &bl, &br, &bk, &bv);
  SplitResult<K, V, A> s = split(a, bk);
  if (budget > 1 &&
      std::min(weight_of(s.left) + weight_of(bl),
               weight_of(s.right) + weight_of(br)) >= bulk_grain()) {
    const int lb = budget / 2;
    const int rb = budget - lb;
    // Fork the right subproblem onto the shared pool, recurse left on this
    // thread; invoke2's joiner helps run queued forks, and a pool with no
    // spawnable workers degrades to sequential self-execution — no
    // per-site fallback needed, and no owned reference can be dropped.
    auto [l, r] = exec::invoke2(
        [l0 = s.left, bl, lb] { return union_rec(l0, bl, lb); },
        [r0 = s.right, br, rb] { return union_rec(r0, br, rb); });
    return join(l, bk, bv, r);
  }
  // Below the grain on one side (or out of budget): recurse in place. The
  // budget is passed through so a lopsided split can still fork deeper
  // down; the calls run one after the other, so concurrency never exceeds
  // the budget.
  return join(union_rec(s.left, bl, budget), bk, bv,
              union_rec(s.right, br, budget));
}

// Recursive core of build_sorted with a fork-join worker budget; the two
// halves of the span are disjoint, so the same ownership argument applies.
template <class K, class V, class A>
Node<K, V, A>* build_sorted_rec(std::span<const std::pair<K, V>> entries,
                                int budget) {
  if (entries.empty()) return nullptr;
  const std::size_t mid = entries.size() / 2;
  if (budget > 1 && entries.size() >= 2 * bulk_grain()) {
    const int lb = budget / 2;
    const int rb = budget - lb;
    auto [l, r] = exec::invoke2(
        [e = entries.first(mid), lb] {
          return build_sorted_rec<K, V, A>(e, lb);
        },
        [e = entries.subspan(mid + 1), rb] {
          return build_sorted_rec<K, V, A>(e, rb);
        });
    return make_node<K, V, A>(entries[mid].first, entries[mid].second, l, r);
  }
  return make_node<K, V, A>(
      entries[mid].first, entries[mid].second,
      build_sorted_rec<K, V, A>(entries.first(mid), budget),
      build_sorted_rec<K, V, A>(entries.subspan(mid + 1), budget));
}

}  // namespace detail

// Union of two versions; on duplicate keys the entry from `b` wins (so
// unioning a delta over a corpus applies the delta). Consumes both.
// O(m log(n/m + 1)) work for |b| = m <= n = |a| — the join-tree bound.
// The independent recursive calls are forked across `threads` workers
// (0 = config().threads) above the bulk_grain() cutoff; the resulting tree is
// bit-identical for every worker count. Inputs too small to ever fork
// skip the worker-count resolution entirely.
template <class K, class V, class A>
Node<K, V, A>* union_(Node<K, V, A>* a, Node<K, V, A>* b, int threads = 0) {
  const int budget = weight_of(a) + weight_of(b) >= 2 * bulk_grain()
                         ? detail::bulk_budget(threads)
                         : 1;
  return detail::union_rec(a, b, budget);
}

// Builds a perfectly balanced tree over strictly increasing entries. O(n)
// work, forked across `threads` workers (0 = config().threads).
template <class K, class V, class A>
Node<K, V, A>* build_sorted(std::span<const std::pair<K, V>> entries,
                            int threads = 0) {
  const int budget = entries.size() >= 2 * bulk_grain()
                         ? detail::bulk_budget(threads)
                         : 1;
  return detail::build_sorted_rec<K, V, A>(entries, budget);
}

// Sorts a batch by key and keeps only the last entry per key, the form
// multi_insert expects (later updates win, matching repeated `insert`).
template <class K, class V>
void prepare_batch(std::vector<std::pair<K, V>>& batch) {
  std::stable_sort(
      batch.begin(), batch.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < batch.size();) {
    std::size_t j = i;
    while (j + 1 < batch.size() && !(batch[i].first < batch[j + 1].first)) {
      ++j;
    }
    batch[out++] = std::move(batch[j]);
    i = j + 1;
  }
  batch.resize(out);
}

// Applies a prepared (sorted, deduplicated) batch in one bulk operation:
// build a tree over the batch, then union it over `t`. Consumes `t`. Both
// phases fork across `threads` workers (0 = config().threads).
template <class K, class V, class A>
Node<K, V, A>* multi_insert(Node<K, V, A>* t,
                            std::span<const std::pair<K, V>> batch,
                            int threads = 0) {
  const int budget = weight_of(t) + batch.size() >= 2 * bulk_grain()
                         ? detail::bulk_budget(threads)
                         : 1;
  return detail::union_rec(
      t, detail::build_sorted_rec<K, V, A>(batch, budget), budget);
}

// Read-only point lookup; returns null when absent.
template <class K, class V, class A>
const V* find(const Node<K, V, A>* t, const K& k) {
  while (t != nullptr) {
    if (k < t->key) {
      t = t->left;
    } else if (t->key < k) {
      t = t->right;
    } else {
      return &t->val;
    }
  }
  return nullptr;
}

// Aggregate over keys >= lo within `t`.
template <class K, class V, class A>
typename A::T aug_ge(const Node<K, V, A>* t, const K& lo) {
  if (t == nullptr) return A::zero();
  if (t->key < lo) return aug_ge(t->right, lo);
  return A::combine(aug_ge(t->left, lo), A::leaf(t->key, t->val),
                    aug_of(t->right));
}

// Aggregate over keys <= hi within `t`.
template <class K, class V, class A>
typename A::T aug_le(const Node<K, V, A>* t, const K& hi) {
  if (t == nullptr) return A::zero();
  if (hi < t->key) return aug_le(t->left, hi);
  return A::combine(aug_of(t->left), A::leaf(t->key, t->val),
                    aug_le(t->right, hi));
}

// Aggregate over keys in [lo, hi]; the empty range yields A::zero(). Reads
// O(log n) nodes by consuming whole-subtree aggregates at the boundary.
template <class K, class V, class A>
typename A::T aug_range(const Node<K, V, A>* t, const K& lo, const K& hi) {
  if (t == nullptr) return A::zero();
  if (t->key < lo) return aug_range(t->right, lo, hi);
  if (hi < t->key) return aug_range(t->left, lo, hi);
  return A::combine(aug_ge(t->left, lo), A::leaf(t->key, t->val),
                    aug_le(t->right, hi));
}

// In-order traversal: f(key, value) for every entry.
template <class K, class V, class A, class F>
void for_each(const Node<K, V, A>* t, F&& f) {
  if (t == nullptr) return;
  for_each(t->left, f);
  f(t->key, t->val);
  for_each(t->right, f);
}

// In-order traversal with early exit: f(key, value) returns false to stop.
// Returns whether the traversal ran to completion. Powers bounded scans
// like the inverted index's limit-k intersection.
template <class K, class V, class A, class F>
bool for_each_while(const Node<K, V, A>* t, F&& f) {
  if (t == nullptr) return true;
  if (!for_each_while(t->left, f)) return false;
  if (!f(t->key, t->val)) return false;
  return for_each_while(t->right, f);
}

}  // namespace mvcc::ftree
