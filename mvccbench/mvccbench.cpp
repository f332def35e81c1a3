// mvccbench — the repository's end-to-end benchmark.
//
// One process, two closed-loop client threads, driving the library only
// through its public headers (txn/ front-ends over PSWF, ftree/ FMap,
// alloc/, vm/, exec/ via the bulk tree ops). Each client issues its next
// operation only after the previous one returned. Workloads, metrics and
// the layer -> metric -> workload table are described in README.md beside
// this file; run.py builds this program, runs it and prints the result.
//
//   mvccbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--setup-reps R] [--spans PATH]
//   mvccbench --self-test
//
// Untraced runs (--trace 0) give the end-to-end metrics: every MVCC_*
// variable inherited from the caller is cleared, MVCC_THREADS is fixed so
// clients + flatteners + exec workers fit the core count, and only the
// benchmark's own timers run. Traced runs (--trace 1) set MVCC_STATS=1 for
// the library's registry counters and record spans around the benchmark's
// calls into each layer (sampled, kept in memory, written to --spans at
// exit), then replay batches single-threaded to cost the commit stages.
//
// The last stdout line is one JSON object with every metric, its unit and
// its sample count; a human-readable report goes to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/env.h"
#include "mvcc/common/timing.h"
#include "mvcc/ftree/fmap.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/batching.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/workload/ycsb.h"

#ifndef MVCCBENCH_BUILD_TYPE
#define MVCCBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace mvcc;
using K = std::uint64_t;
using V = std::uint64_t;
using Aug = ftree::NoAug<K, V>;
using Single = txn::BatchingMap<K, V, Aug, vm::PswfVersionManager>;
using Sharded = txn::ShardedMap<K, V, Aug, vm::PswfVersionManager>;
using Map = Single::Map;
using Entry = Single::Entry;
using workload::YcsbOp;

constexpr int kClients = 2;
constexpr int kShards = 2;
// Ops pre-generated per client; the stream is replayed cyclically, so the
// measured loop pays no generation cost.
constexpr std::size_t kStreamLen = std::size_t{1} << 20;
// One get in kReadSampleEvery is timed for read_p50/p99 (two clock reads
// on every get would be a visible share of a ~0.3 us read).
constexpr std::uint64_t kReadSampleEvery = 16;
// On the single-map workloads one read in kSnapshotReadEvery is issued as
// read_txn + find: a consistent snapshot, pinned and read once.
constexpr std::uint64_t kSnapshotReadEvery = 64;
// Traced runs record spans for one op in kTraceEvery, plus every rare op
// (sync write, snapshot, multi-key write).
constexpr std::uint64_t kTraceEvery = 8;
// Spans kept per thread for the --spans dump; aggregates see every span.
constexpr std::size_t kSpanKeep = std::size_t{1} << 16;
// Last-write tracking covers one key in 2^kLastShift of each partition.
constexpr unsigned kLastShift = 6;
constexpr std::size_t kRowsPerClient = 8;
constexpr double kWarmupSeconds = 1.0;

// Why each workload exists is recorded in README.md.
struct Spec {
  const char* name;
  unsigned log2_keys;
  bool sharded;
  double read_fraction;       // get vs async submit among ordinary ops
  std::uint64_t sync_every;   // single map: 1 op in N is a timed upsert_sync
  std::uint64_t snapshot_every;  // sharded: 1 op in N takes snapshot()
  std::uint64_t multi_every;     // sharded: 1 op in N is multi_upsert_sync
};

constexpr Spec kSpecs[] = {
    {"read-mostly", 15, false, 0.95, 1000, 0, 0},
    {"write-heavy", 23, false, 0.10, 4000, 0, 0},
    {"snapshot-sharded", 20, true, 0.51, 0, 64, 256},
};

// Every value encodes its key in the high half, so any read is checkable;
// the low half is a per-writer version.
constexpr V encode(K k, std::uint32_t ver) { return (k << 32) | ver; }
constexpr bool encodes(K k, V v) { return (v >> 32) == k; }

// Output checks feeding failed_frac.
struct Checker {
  std::uint64_t made = 0;
  std::uint64_t failed = 0;

  void expect(bool ok) {
    ++made;
    failed += ok ? 0 : 1;
  }
  void value(K k, const V* v) { expect(v != nullptr && encodes(k, *v)); }
  // A cross-shard row is whole when both keys carry the same version.
  void row(K a, const V* va, K b, const V* vb) {
    expect(va != nullptr && vb != nullptr && encodes(a, *va) &&
           encodes(b, *vb) &&
           static_cast<std::uint32_t>(*va) == static_cast<std::uint32_t>(*vb));
  }
  void merge(const Checker& o) {
    made += o.made;
    failed += o.failed;
  }
};

// A cross-shard row: two keys in different shards, written together by
// multi_upsert_sync and never touched by a single-key op.
struct Row {
  K a;
  K b;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, op id. Recorded by the benchmark around
// its own calls into each layer; the layer is the name's prefix.

enum SpanName : std::uint8_t {
  kClientGet,
  kClientSubmit,
  kClientSync,
  kClientSnapRead,
  kClientSnapshot,
  kClientHeldRead,
  kClientMulti,
  kTxnGet,
  kTxnSubmit,
  kTxnWaitCommitted,
  kTxnSnapshot,
  kTxnMultiCommit,
  kVmReadTxn,
  kFtreeFind,
  kReplayBatch,
  kVmAcquire,
  kFtreePrepare,
  kFtreeMultiInsert,
  kAllocCreate,
  kVmSet,
  kVmRelease,
  kFtreeCollect,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "client.get",          "client.submit",     "client.sync_write",
    "client.snapshot_read", "client.snapshot",  "client.held_read",
    "client.multi_write",  "txn.get",           "txn.submit",
    "txn.wait_committed",  "txn.snapshot",      "txn.multi_upsert_sync",
    "vm.read_txn",         "ftree.find",        "replay.batch",
    "vm.acquire",          "ftree.prepare_batch", "ftree.multi_insert",
    "alloc.create",        "vm.set",            "vm.release",
    "ftree.collect",
};

// Spans whose time is spent waiting on another thread (the flattener).
constexpr bool is_wait(SpanName n) {
  return n == kTxnWaitCommitted || n == kTxnMultiCommit;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One thread's latency samples in obs::LatencyHistogram's buckets (about
// 12.5% wide): plain counts, so two clients never share a cache line on
// the hot path. Merged per metric after the run.
struct Hist {
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> n{};

  void record(std::uint64_t v) { ++n[obs::LatencyHistogram::index_of(v)]; }

  void add(const Hist& o) {
    for (std::size_t i = 0; i < n.size(); ++i) n[i] += o.n[i];
  }

  std::uint64_t count() const {
    std::uint64_t c = 0;
    for (const std::uint64_t x : n) c += x;
    return c;
  }

  // obs::LatencyHistogram::quantile over these counts: it reads only the
  // bucket counts and bounds, so loading each bucket's lower bound as its
  // samples reproduces its readout exactly.
  double quantile(double q) const {
    obs::LatencyHistogram h;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const auto lower =
          static_cast<std::uint64_t>(obs::LatencyHistogram::bucket_lower(i));
      for (std::uint64_t j = 0; j < n[i]; ++j) h.record(lower);
    }
    return h.quantile(q);
  }
};

// One thread's spans. Spans nest strictly within a thread, so a span's
// self time is its duration minus its direct children's durations.
class SpanLog {
 public:
  struct Span {
    std::uint64_t op;
    std::uint64_t t0;
    std::uint64_t t1;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    SpanName name;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  explicit SpanLog(int thread) : thread_(thread) { kept_.reserve(kSpanKeep); }

  void begin_op(std::uint64_t op) { op_ = op; }

  void open(SpanName n) {
    Frame& f = stack_[depth_++];
    f.name = n;
    f.id = ++next_id_;
    f.parent = depth_ > 1 ? stack_[depth_ - 2].id : 0;
    f.child_ns = 0;
    f.t0 = now_ns();
  }

  void close() {
    const std::uint64_t t1 = now_ns();
    const Frame& f = stack_[--depth_];
    const std::uint64_t dur = t1 - f.t0;
    Agg& a = agg_[f.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - std::min(dur, f.child_ns);
    hist_[f.name].record(dur);
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (kept_.size() < kSpanKeep) {
      kept_.push_back({op_, f.t0, t1, f.id, f.parent, f.name});
    } else {
      ++dropped_;
    }
  }

  const std::array<Agg, kNumSpanNames>& agg() const { return agg_; }
  const Hist& hist(SpanName n) const { return hist_[n]; }
  const std::vector<Span>& kept() const { return kept_; }
  std::uint64_t dropped() const { return dropped_; }
  int thread() const { return thread_; }

 private:
  struct Frame {
    SpanName name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t child_ns;
    std::uint64_t t0;
  };

  int thread_;
  std::uint64_t op_ = 0;
  std::uint32_t next_id_ = 0;
  int depth_ = 0;
  std::array<Frame, 4> stack_{};
  std::array<Agg, kNumSpanNames> agg_{};
  std::array<Hist, kNumSpanNames> hist_{};
  std::vector<Span> kept_;
  std::uint64_t dropped_ = 0;
};

// Opens a span for the enclosing scope; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, SpanName n) : log_(log) {
    if (log_ != nullptr) log_->open(n);
  }
  ~Scope() {
    if (log_ != nullptr) log_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

// ---------------------------------------------------------------------------
// Process measurements.

struct Usage {
  double cpu_s;
  long invol_cs;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nivcsw};
}

// Host CPU time stolen from this machine's CPUs (a virtual machine's
// hypervisor running other guests), as jiffies: {steal, total}. Stolen
// time slows every thread that spins or waits on another, so a run with a
// visible steal share is not comparable with one without.
std::pair<double, double> steal_jiffies() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (const unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double rss_mb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t reg_counter(const char* name) {
  return obs::registry().counter(name).value();
}

// Sum and count of a registry histogram, so windows can be differenced.
std::pair<double, std::uint64_t> reg_hist(const char* name) {
  const obs::LatencyHistogram& h = obs::registry().histogram(name);
  const std::uint64_t n = h.count();
  return {h.mean() * static_cast<double>(n), n};
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;  // NaN = not reportable (too few samples)
  std::string unit;
  std::int64_t samples;  // -1 = not a sampled statistic
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::int64_t samples = -1) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }

  // Percentile q of h in ns, scaled by `scale`, reported only when at
  // least 10 samples lie beyond it.
  void percentile(std::string name, const Hist& h, double q, double scale,
                  std::string unit) {
    const std::uint64_t n = h.count();
    const double beyond = (1.0 - q) * static_cast<double>(n);
    const double v = beyond >= 10.0 ? h.quantile(q) * scale : std::nan("");
    add(std::move(name), v, std::move(unit), static_cast<std::int64_t>(n));
  }

  double value(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return std::nan("");
  }

  void note(std::string key, std::string json_value) {
    notes_.emplace_back(std::move(key), std::move(json_value));
  }

  void print_human(FILE* f) const {
    for (const Metric& m : metrics_) {
      if (std::isnan(m.value)) {
        std::fprintf(f, "  %-40s %14s %-6s", m.name.c_str(), "n/a",
                     m.unit.c_str());
      } else {
        std::fprintf(f, "  %-40s %14.4f %-6s", m.name.c_str(), m.value,
                     m.unit.c_str());
      }
      if (m.samples >= 0) {
        std::fprintf(f, " (n=%lld)", static_cast<long long>(m.samples));
      }
      std::fputc('\n', f);
    }
  }

  std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : notes_) {
      out += "\"" + k + "\": " + v + ", ";
    }
    out += "\"metrics\": {";
    bool first = true;
    char buf[128];
    for (const Metric& m : metrics_) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + m.name + "\": {\"value\": ";
      if (std::isnan(m.value)) {
        out += "null";
      } else {
        std::snprintf(buf, sizeof(buf), "%.10g", m.value);
        out += buf;
      }
      out += ", \"unit\": \"" + m.unit + "\"";
      if (m.samples >= 0) {
        out += ", \"samples\": " + std::to_string(m.samples);
      }
      out += "}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Inputs. Everything below derives from the one seed argument.

struct Inputs {
  std::vector<Entry> entries;
  std::vector<std::vector<YcsbOp>> streams;
  std::vector<Row> rows[kClients];
  std::uint64_t psize = 0;
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed,
                   std::size_t stream_len = kStreamLen) {
  const std::uint64_t keys = std::uint64_t{1} << spec.log2_keys;
  const workload::PartitionedYcsb gen({spec.name, spec.read_fraction}, keys,
                                      kClients);
  Inputs in;
  in.psize = gen.partition_size();
  in.entries = workload::ycsb_dataset(keys, seed);
  for (Entry& e : in.entries) {
    e.second = encode(e.first, static_cast<std::uint32_t>(e.second));
  }
  if (spec.sharded) {
    // Row keys lie above the YCSB key space, so no single-key op touches
    // them; each row pairs a shard-0 key with a shard-1 key.
    for (int c = 0; c < kClients; ++c) {
      K k = keys + static_cast<K>(c) * (K{1} << 16);
      for (std::size_t r = 0; r < kRowsPerClient; ++r) {
        Row row{};
        bool have_a = false;
        bool have_b = false;
        while (!(have_a && have_b)) {
          const std::size_t s = Sharded::shard_index(k, kShards);
          if (s == 0 && !have_a) {
            row.a = k;
            have_a = true;
          } else if (s == 1 && !have_b) {
            row.b = k;
            have_b = true;
          }
          ++k;
        }
        in.rows[c].push_back(row);
        in.entries.emplace_back(row.a, encode(row.a, 0));
        in.entries.emplace_back(row.b, encode(row.b, 0));
      }
    }
  }
  for (int c = 0; c < kClients; ++c) {
    in.streams.push_back(gen.stream(c, stream_len, seed));
  }
  return in;
}

// ---------------------------------------------------------------------------
// One workload run over map type M (Single or Sharded).

enum Phase : int { kWarmup, kMeasuring, kStopped };

struct alignas(64) ClientState {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> ops{0};
  Checker chk;
  std::vector<V> last;  // last value written to sampled keys
  std::vector<std::uint32_t> row_ver;
  std::uint32_t ver = 0;
  std::uint64_t multis = 0;
  Hist read_ns;
  Hist sync_ns;
  Hist snapshot_ns;
  std::unique_ptr<SpanLog> log;
};

template <class M>
class Run {
  static constexpr bool kSharded = std::is_same_v<M, Sharded>;

 public:
  Run(const Spec& spec, Inputs in, bool traced)
      : spec_(spec), in_(std::move(in)), traced_(traced) {
    for (int c = 0; c < kClients; ++c) {
      ClientState& cs = clients_[c];
      cs.last.resize(static_cast<std::size_t>(in_.psize >> kLastShift) + 1);
      const K begin = static_cast<K>(c) * in_.psize;
      for (std::size_t i = 0; i < cs.last.size(); ++i) {
        const K k = begin + (static_cast<K>(i) << kLastShift);
        cs.last[i] = k < begin + in_.psize ? in_.entries[k].second : 0;
      }
      cs.row_ver.assign(in_.rows[c].size(), 0);
      if (traced_) cs.log = std::make_unique<SpanLog>(c);
    }
    const std::size_t nkeys = in_.entries.size();
    if constexpr (kSharded) {
      map_ = std::make_unique<Sharded>(kClients, std::move(in_.entries),
                                       kShards);
    } else {
      map_ = std::make_unique<Single>(
          kClients, Map::from_entries(std::move(in_.entries)));
    }
    in_.entries = {};
    keys_ = nkeys;
  }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  ~Run() {
    phase_.store(kStopped, std::memory_order_relaxed);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  void measure(double seconds, Report& rep) {
    for (int c = 0; c < kClients; ++c) {
      threads_.emplace_back([this, c] { client(c); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));

    const auto reads0 = total_reads();
    const std::uint64_t commits0 = map_->ops_committed();
    const std::uint64_t batches0 = map_->batches_committed();
    const std::uint64_t snaps0 = snapshots_taken();
    const std::uint64_t retries0 = snapshot_retries();
    const RegistryCounts reg0 = registry_now();
    const Usage u0 = usage_now();
    const auto steal0 = steal_jiffies();
    const std::uint64_t ops0 = total_ops();
    Timer window;
    phase_.store(kMeasuring, std::memory_order_relaxed);

    double peak_rss = 0;
    long long peak_nodes = 0;
    std::int64_t peak_slabs = 0;
    while (window.seconds() < seconds) {
      peak_rss = std::max(peak_rss, rss_mb());
      peak_nodes = std::max(peak_nodes, ftree::live_nodes());
      peak_slabs = std::max(
          peak_slabs, alloc::g_slabs_live.load(std::memory_order_relaxed));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    phase_.store(kWarmup, std::memory_order_relaxed);  // stop sampling
    const double secs = window.seconds();
    const Usage u1 = usage_now();
    const auto steal1 = steal_jiffies();
    const std::uint64_t ops1 = total_ops();
    const auto reads1 = total_reads();
    const std::uint64_t commits1 = map_->ops_committed();
    const std::uint64_t batches1 = map_->batches_committed();
    const std::uint64_t snaps1 = snapshots_taken();
    const std::uint64_t retries1 = snapshot_retries();
    const RegistryCounts reg1 = registry_now();

    phase_.store(kStopped, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
    threads_.clear();
    map_->flush_all();
    final_checks();

    const double reads = static_cast<double>(reads1 - reads0);
    const double commits = static_cast<double>(commits1 - commits0);
    const double batches = static_cast<double>(batches1 - batches0);
    const double cpu_s = u1.cpu_s - u0.cpu_s;
    const double done = reads + commits;
    commit_mops_ = commits / secs / 1e6;

    Checker chk;
    for (const ClientState& cs : clients_) chk.merge(cs.chk);

    rep.note("checks_made", std::to_string(chk.made));
    rep.note("checks_failed", std::to_string(chk.failed));
    rep.note("ops_issued", std::to_string(ops1 - ops0));
    rep.note("window_s", std::to_string(secs));

    rep.add("commit_mops", commit_mops_, "Mop/s");
    rep.add("read_mops", reads / secs / 1e6, "Mop/s");
    Hist read_ns, sync_ns, snapshot_ns;
    for (const ClientState& cs : clients_) {
      read_ns.add(cs.read_ns);
      sync_ns.add(cs.sync_ns);
      snapshot_ns.add(cs.snapshot_ns);
    }
    rep.percentile("read_p50_us", read_ns, 0.50, 1e-3, "us");
    rep.percentile("read_p99_us", read_ns, 0.99, 1e-3, "us");
    rep.percentile("sync_commit_p50_us", sync_ns, 0.50, 1e-3, "us");
    rep.percentile("sync_commit_p99_us", sync_ns, 0.99, 1e-3, "us");
    rep.percentile("snapshot_p50_us", snapshot_ns, 0.50, 1e-3, "us");
    rep.percentile("snapshot_p99_us", snapshot_ns, 0.99, 1e-3, "us");
    rep.add("cpu_us_per_op", ratio(cpu_s * 1e6, done), "us");
    rep.add("peak_rss_mb", peak_rss, "MB");
    rep.add("failed_frac",
            ratio(static_cast<double>(chk.failed),
                  static_cast<double>(chk.made)),
            "frac");
    rep.add("proc.steal_frac",
            ratio(steal1.first - steal0.first, steal1.second - steal0.second),
            "frac");
    if (!traced_) return;

    // --- traced: per-layer metrics ----------------------------------------
    const double kops = done / 1e3;
    std::array<Hist, kNumSpanNames> h{};
    for (const ClientState& cs : clients_) {
      for (int n = 0; n < kNumSpanNames; ++n) {
        h[n].add(cs.log->hist(static_cast<SpanName>(n)));
      }
    }
    rep.percentile("txn.submit_p99_ns", h[kTxnSubmit], 0.99, 1.0, "ns");
    rep.add("txn.admission_rejects_per_kop",
            ratio(static_cast<double>(reg1.admission_rejects -
                                      reg0.admission_rejects),
                  commits / 1e3),
            "1/kop");
    rep.add("txn.batch_ops_mean", ratio(commits, batches), "ops");
    rep.add("txn.batches_per_s", batches / secs, "1/s");
    rep.add("txn.flattener_stalls_per_batch",
            ratio(static_cast<double>(reg1.stalls - reg0.stalls), batches),
            "frac");
    const SpanName wait = kSharded ? kTxnMultiCommit : kTxnWaitCommitted;
    rep.percentile("txn.wait_committed_p50_ns", h[wait], 0.50, 1.0, "ns");
    rep.percentile("txn.wait_committed_p99_ns", h[wait], 0.99, 1.0, "ns");
    rep.add("txn.snapshot_retries_per_snapshot",
            ratio(static_cast<double>(retries1 - retries0),
                  static_cast<double>(snaps1 - snaps0)),
            "frac");
    const SpanName pin = kSharded ? kTxnSnapshot : kVmReadTxn;
    rep.percentile("vm.pin_p50_ns", h[pin], 0.50, 1.0, "ns");
    rep.percentile("vm.pin_p99_ns", h[pin], 0.99, 1.0, "ns");
    rep.add("vm.live_versions_hwm",
            static_cast<double>(obs::registry()
                                    .gauge("vm/live_versions_hwm")
                                    .value()),
            "count");
    rep.add("vm.release_frees_per_kread",
            ratio(static_cast<double>(reg1.release_frees -
                                      reg0.release_frees),
                  reads / 1e3),
            "1/kop");
    rep.add("vm.freed_per_sweep_mean",
            ratio(reg1.sweep_sum - reg0.sweep_sum,
                  static_cast<double>(reg1.sweeps - reg0.sweeps)),
            "count");
    rep.percentile("ftree.find_p50_ns", h[kFtreeFind], 0.50, 1.0, "ns");
    rep.add("ftree.live_nodes_peak_per_key",
            ratio(static_cast<double>(peak_nodes),
                  static_cast<double>(keys_)),
            "nodes");
    rep.add("alloc.depot_transfers_per_kop",
            ratio(static_cast<double>(reg1.depot - reg0.depot), kops),
            "1/kop");
    rep.add("alloc.slabs_live_peak", static_cast<double>(peak_slabs),
            "count");
    const double tasks = static_cast<double>(reg1.tasks - reg0.tasks);
    rep.add("exec.tasks_per_batch", ratio(tasks, batches), "count");
    rep.add("exec.steal_frac",
            ratio(static_cast<double>(reg1.steals - reg0.steals), tasks),
            "frac");
    rep.add("proc.cpu_cores_busy", cpu_s / secs, "cores");
    rep.add("proc.invol_ctx_switches_per_kop",
            ratio(static_cast<double>(u1.invol_cs - u0.invol_cs), kops),
            "1/kop");
    layer_report(rep);
  }

  // Replays batches of `batch` ops from client 0's own update stream,
  // single-threaded, through prepare_batch, multi_inserted, PSWF
  // set/release and the destruction of the superseded map, over a copy of
  // the current version, and reports each stage's cost.
  void replay(double batch, Report& rep) {
    const std::size_t bsz =
        std::max<std::size_t>(1, static_cast<std::size_t>(batch + 0.5));
    const std::size_t nbatches = std::clamp<std::size_t>(
        (std::size_t{1} << 18) / bsz, 16, 512);
    Map base;
    if constexpr (kSharded) {
      base = map_->snapshot(0).shard_map(0);
    } else {
      base = map_->read_txn(0).map();
    }
    std::vector<std::vector<Entry>> batches(nbatches);
    std::size_t pos = 0;
    std::uint32_t ver = 0x80000000u;
    const auto& ops = in_.streams[0];
    for (auto& b : batches) {
      b.reserve(bsz);
      while (b.size() < bsz) {
        const YcsbOp& op = ops[pos];
        pos = pos + 1 == ops.size() ? 0 : pos + 1;
        if (op.type != YcsbOp::kUpdate) continue;
        if constexpr (kSharded) {
          if (Sharded::shard_index(op.key, kShards) != 0) continue;
        }
        b.emplace_back(op.key, encode(op.key, ++ver));
      }
    }

    SpanLog log(kClients);
    vm::PswfVersionManager<Map> mgr(1, alloc::create<Map>(std::move(base)));
    long long nodes_freed = 0;
    std::uint64_t op = 0;
    for (auto& b : batches) {
      log.begin_op(++op);
      Scope root(&log, kReplayBatch);
      Map* cur = nullptr;
      {
        Scope s(&log, kVmAcquire);
        cur = mgr.acquire(0);
      }
      {
        Scope s(&log, kFtreePrepare);
        ftree::prepare_batch(b);
      }
      Map next;
      {
        Scope s(&log, kFtreeMultiInsert);
        next = cur->multi_inserted(std::span<const Entry>(b), 1);
      }
      Map* np = nullptr;
      {
        Scope s(&log, kAllocCreate);
        np = alloc::create<Map>(std::move(next));
      }
      std::vector<Map*> dead;
      {
        Scope s(&log, kVmSet);
        dead = mgr.set(0, np);
      }
      {
        Scope s(&log, kVmRelease);
        for (Map* m : mgr.release(0)) dead.push_back(m);
      }
      const long long live0 = ftree::live_nodes();
      {
        Scope s(&log, kFtreeCollect);
        for (Map* m : dead) alloc::destroy(m);
      }
      nodes_freed += live0 - ftree::live_nodes();
    }
    for (Map* m : mgr.shutdown_drain()) alloc::destroy(m);

    const auto& a = log.agg();
    const double ops_total = static_cast<double>(nbatches * bsz);
    const auto per_op = [&](SpanName n) {
      return static_cast<double>(a[n].total_ns) / ops_total;
    };
    rep.add("ftree.prepare_batch_ns_per_op", per_op(kFtreePrepare), "ns");
    rep.add("ftree.multi_insert_ns_per_op", per_op(kFtreeMultiInsert), "ns");
    rep.add("vm.set_ns",
            ratio(static_cast<double>(a[kVmSet].total_ns),
                  static_cast<double>(a[kVmSet].count)),
            "ns", static_cast<std::int64_t>(a[kVmSet].count));
    rep.add("ftree.collect_ns_per_node",
            ratio(static_cast<double>(a[kFtreeCollect].total_ns),
                  static_cast<double>(nodes_freed)),
            "ns");
    const double stage_ns = per_op(kReplayBatch);
    // 1/commit_mops is the wall time per committed op, in us.
    rep.add("replay.stage_share_of_commit",
            stage_ns * commit_mops_ / 1e3, "frac");
    rep.note("replay",
             "{\"batch_ops\": " + std::to_string(bsz) +
                 ", \"batches\": " + std::to_string(nbatches) +
                 ", \"stage_ns_per_op\": " + std::to_string(stage_ns) +
                 ", \"acquire_ns_per_op\": " +
                 std::to_string(per_op(kVmAcquire)) +
                 ", \"create_ns_per_op\": " +
                 std::to_string(per_op(kAllocCreate)) +
                 ", \"release_ns_per_op\": " +
                 std::to_string(per_op(kVmRelease)) +
                 ", \"nodes_freed\": " + std::to_string(nodes_freed) + "}");
    replay_log_ = std::make_unique<SpanLog>(std::move(log));
  }

  // Writes every kept span as CSV: thread,op,id,parent,name,start,end.
  bool write_spans(const std::string& path, std::uint64_t* dropped) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "thread,op,id,parent,name,start_ns,end_ns\n");
    *dropped = 0;
    const auto dump = [&](const SpanLog& log) {
      for (const auto& s : log.kept()) {
        std::fprintf(f, "%d,%llu,%u,%u,%s,%llu,%llu\n", log.thread(),
                     static_cast<unsigned long long>(s.op), s.id, s.parent,
                     kSpanNames[s.name],
                     static_cast<unsigned long long>(s.t0),
                     static_cast<unsigned long long>(s.t1));
      }
      *dropped += log.dropped();
    };
    for (const ClientState& cs : clients_) dump(*cs.log);
    if (replay_log_) dump(*replay_log_);
    return std::fclose(f) == 0;
  }

 private:
  struct RegistryCounts {
    std::uint64_t admission_rejects;
    std::uint64_t stalls;
    std::uint64_t release_frees;
    double sweep_sum;
    std::uint64_t sweeps;
    std::uint64_t depot;
    std::uint64_t tasks;
    std::uint64_t steals;
  };

  static RegistryCounts registry_now() {
    const auto [sweep_sum, sweeps] = reg_hist("vm/freed_per_sweep");
    return {reg_counter("txn/admission_rejects"),
            reg_counter("txn/flattener_stalls"),
            reg_counter("vm/release_frees"),
            sweep_sum,
            sweeps,
            reg_counter("alloc/depot_transfers"),
            reg_counter("exec/tasks"),
            reg_counter("exec/steals")};
  }

  std::uint64_t total_reads() const {
    std::uint64_t n = 0;
    for (const ClientState& cs : clients_) {
      n += cs.reads.load(std::memory_order_relaxed);
    }
    return n;
  }
  std::uint64_t total_ops() const {
    std::uint64_t n = 0;
    for (const ClientState& cs : clients_) {
      n += cs.ops.load(std::memory_order_relaxed);
    }
    return n;
  }
  std::uint64_t snapshots_taken() const {
    if constexpr (kSharded) return map_->snapshots_taken();
    return 0;
  }
  std::uint64_t snapshot_retries() const {
    if constexpr (kSharded) return map_->snapshot_retries();
    return 0;
  }

  V next_value(int c, ClientState& cs, K k) {
    const V v = encode(k, ++cs.ver);
    const K off = k - static_cast<K>(c) * in_.psize;
    if ((off & ((K{1} << kLastShift) - 1)) == 0) cs.last[off >> kLastShift] = v;
    return v;
  }

  // The closed loop of client c: each op is issued after the previous one
  // returned. Op i of the cyclic stream is overridden by the rare ops at
  // fixed cadences; otherwise the stream's read/update coin decides.
  void client(int c) {
    ClientState& cs = clients_[c];
    const auto& ops = in_.streams[static_cast<std::size_t>(c)];
    std::size_t pos = 0;
    std::uint64_t i = 0;
    std::uint64_t reads = 0;
    std::uint64_t nread_ops = 0;
    std::optional<typename Sharded::Snapshot> held;
    for (;;) {
      const int phase = phase_.load(std::memory_order_relaxed);
      if (phase == kStopped) break;
      const bool meas = phase == kMeasuring;
      const YcsbOp& op = ops[pos];
      pos = pos + 1 == ops.size() ? 0 : pos + 1;
      ++i;
      const K k = op.key;
      // Spans are recorded inside the window only, like every metric.
      SpanLog* traced = meas ? cs.log.get() : nullptr;
      SpanLog* sampled = i % kTraceEvery == 0 ? traced : nullptr;
      if (traced) traced->begin_op((i << 1) | static_cast<std::uint64_t>(c));

      if constexpr (kSharded) {
        if (i % spec_.multi_every == 0) {
          multi_write(c, cs, meas, traced, reads);
        } else if (i % spec_.snapshot_every == 0) {
          held.reset();
          held.emplace(take_snapshot(c, cs, meas, traced));
        } else if (op.type == YcsbOp::kRead && held && (i & 7) == 0) {
          Scope root(sampled, kClientHeldRead);
          const V* v = nullptr;
          {
            Scope s(sampled, kFtreeFind);
            v = held->find(k);
          }
          cs.chk.value(k, v);
          ++reads;
        } else if (op.type == YcsbOp::kRead) {
          get(c, cs, k, meas, sampled, ++nread_ops);
          ++reads;
        } else {
          submit(c, cs, k, sampled);
        }
      } else {
        if (i % spec_.sync_every == 0) {
          sync_write(c, cs, k, meas, traced);
          ++reads;  // the read-your-write check is a get
        } else if (op.type == YcsbOp::kRead) {
          if (++nread_ops % kSnapshotReadEvery == 0) {
            snapshot_read(c, cs, k, meas, traced);
          } else {
            get(c, cs, k, meas, sampled, nread_ops);
          }
          ++reads;
        } else {
          submit(c, cs, k, sampled);
        }
      }
      cs.reads.store(reads, std::memory_order_relaxed);
      cs.ops.store(i, std::memory_order_relaxed);
    }
  }

  void submit(int c, ClientState& cs, K k, SpanLog* sampled) {
    Scope root(sampled, kClientSubmit);
    const V v = next_value(c, cs, k);
    Scope s(sampled, kTxnSubmit);
    map_->submit(c, txn::BatchOp::kUpsert, k, v);
  }

  void get(int c, ClientState& cs, K k, bool meas, SpanLog* sampled,
           std::uint64_t nth) {
    Scope root(sampled, kClientGet);
    std::optional<V> got;
    if (sampled != nullptr) {
      Scope s(sampled, kTxnGet);
      got = map_->get(c, k);
    } else if (meas && nth % kReadSampleEvery == 0) {
      Timer t;
      got = map_->get(c, k);
      cs.read_ns.record(t.nanos());
    } else {
      got = map_->get(c, k);
    }
    cs.chk.value(k, got ? &*got : nullptr);
  }

  // Single map: a timed synchronous write, then a get of the same key that
  // must return it. Traced runs issue it as submit + submitted_ticket +
  // wait_committed so the wait is timed on its own.
  void sync_write(int c, ClientState& cs, K k, bool meas, SpanLog* log) {
    if constexpr (!kSharded) {
      Scope root(log, kClientSync);
      const V v = next_value(c, cs, k);
      Timer t;
      if (traced_) {
        {
          Scope s(log, kTxnSubmit);
          map_->submit(c, txn::BatchOp::kUpsert, k, v);
        }
        Scope s(log, kTxnWaitCommitted);
        map_->wait_committed(c, map_->submitted_ticket(c));
      } else {
        map_->upsert_sync(c, k, v);
      }
      if (meas) cs.sync_ns.record(t.nanos());
      std::optional<V> got;
      {
        Scope s(log, kTxnGet);
        got = map_->get(c, k);
      }
      cs.chk.expect(got && *got == v);
    }
  }

  // Single map: a consistent snapshot (read_txn), read once and dropped.
  void snapshot_read(int c, ClientState& cs, K k, bool meas, SpanLog* log) {
    if constexpr (!kSharded) {
      Scope root(log, kClientSnapRead);
      Timer t;
      std::optional<Single::ReadTxn> txn;
      {
        Scope s(log, kVmReadTxn);
        txn.emplace(map_->read_txn(c));
      }
      if (meas) cs.snapshot_ns.record(t.nanos());
      const V* v = nullptr;
      {
        Scope s(log, kFtreeFind);
        v = (*txn)->find(k);
      }
      cs.chk.value(k, v);
    }
  }

  // Sharded: a cross-shard snapshot, checked to see every row whole.
  typename Sharded::Snapshot take_snapshot(int c, ClientState& cs, bool meas,
                                           SpanLog* log) {
    Scope root(log, kClientSnapshot);
    Timer t;
    std::optional<typename Sharded::Snapshot> snap;
    {
      Scope s(log, kTxnSnapshot);
      snap.emplace(map_->snapshot(c));
    }
    if (meas) cs.snapshot_ns.record(t.nanos());
    for (const auto& rows : in_.rows) {
      for (const Row& r : rows) {
        cs.chk.row(r.a, snap->find(r.a), r.b, snap->find(r.b));
      }
    }
    return std::move(*snap);
  }

  // Sharded: the next row of this client, written atomically across both
  // shards, then read back key by key.
  void multi_write(int c, ClientState& cs, bool meas, SpanLog* log,
                   std::uint64_t& reads) {
    if constexpr (kSharded) {
      Scope root(log, kClientMulti);
      const std::size_t r =
          static_cast<std::size_t>(cs.multis++ % cs.row_ver.size());
      const Row& row = in_.rows[c][r];
      const std::uint32_t ver = ++cs.row_ver[r];
      const Entry ops[2] = {{row.a, encode(row.a, ver)},
                            {row.b, encode(row.b, ver)}};
      Timer t;
      {
        Scope s(log, kTxnMultiCommit);
        map_->multi_upsert_sync(c, std::span<const Entry>(ops, 2));
      }
      if (meas) cs.sync_ns.record(t.nanos());
      for (const Entry& e : ops) {
        std::optional<V> got;
        {
          Scope s(log, kTxnGet);
          got = map_->get(c, e.first);
        }
        cs.chk.expect(got && *got == e.second);
        ++reads;
      }
    }
  }

  // After the final flush: each client's sampled keys hold its last write,
  // and every row holds its last version on both keys.
  void final_checks() {
    for (int c = 0; c < kClients; ++c) {
      ClientState& cs = clients_[c];
      const K begin = static_cast<K>(c) * in_.psize;
      for (std::size_t i = 0; i < cs.last.size(); ++i) {
        const K k = begin + (static_cast<K>(i) << kLastShift);
        if (k >= begin + in_.psize) continue;
        const std::optional<V> got = map_->get(0, k);
        cs.chk.expect(got && *got == cs.last[i]);
      }
      for (std::size_t r = 0; r < in_.rows[c].size(); ++r) {
        const Row& row = in_.rows[c][r];
        const std::optional<V> a = map_->get(0, row.a);
        const std::optional<V> b = map_->get(0, row.b);
        cs.chk.expect(a && b && *a == encode(row.a, cs.row_ver[r]) &&
                      *b == encode(row.b, cs.row_ver[r]));
      }
    }
  }

  // Per-layer count, busy and self time, time waited and share of the
  // client's blocking path, from the client threads' span aggregates.
  void layer_report(Report& rep) const {
    std::array<SpanLog::Agg, kNumSpanNames> agg{};
    for (const ClientState& cs : clients_) {
      for (int n = 0; n < kNumSpanNames; ++n) {
        agg[n].count += cs.log->agg()[n].count;
        agg[n].total_ns += cs.log->agg()[n].total_ns;
        agg[n].self_ns += cs.log->agg()[n].self_ns;
      }
    }
    struct Layer {
      const char* name;
      std::uint64_t count = 0, busy = 0, self = 0, waited = 0;
    };
    Layer layers[] = {{"client"}, {"txn"}, {"vm"}, {"ftree"}};
    std::uint64_t client_ops = 0;
    std::uint64_t path_ns = 0;
    for (int n = 0; n < kNumSpanNames; ++n) {
      const std::string_view name = kSpanNames[n];
      for (Layer& l : layers) {
        if (name.substr(0, name.find('.')) != l.name) continue;
        l.count += agg[n].count;
        l.busy += agg[n].total_ns;
        l.self += agg[n].self_ns;
        if (is_wait(static_cast<SpanName>(n))) l.waited += agg[n].total_ns;
      }
      if (name.starts_with("client.")) {
        client_ops += agg[n].count;
        path_ns += agg[n].total_ns;
      }
    }
    std::string js = "{";
    for (const Layer& l : layers) {
      const double share = ratio(static_cast<double>(l.self),
                                 static_cast<double>(path_ns));
      rep.add(std::string(l.name) + ".self_ns_per_op",
              ratio(static_cast<double>(l.self),
                    static_cast<double>(client_ops)),
              "ns", static_cast<std::int64_t>(client_ops));
      rep.add(std::string(l.name) + ".blocking_share", share, "frac");
      js += std::string(js.size() > 1 ? ", " : "") + "\"" + l.name +
            "\": {\"spans\": " + std::to_string(l.count) +
            ", \"busy_ns\": " + std::to_string(l.busy) +
            ", \"self_ns\": " + std::to_string(l.self) +
            ", \"waited_ns\": " + std::to_string(l.waited) + "}";
    }
    js += "}";
    rep.note("layers", js);
  }

  const Spec& spec_;
  Inputs in_;
  const bool traced_;
  std::size_t keys_ = 0;
  std::unique_ptr<M> map_;
  std::array<ClientState, kClients> clients_;
  std::atomic<int> phase_{kWarmup};
  double commit_mops_ = 0;
  std::unique_ptr<SpanLog> replay_log_;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------

// Clears every inherited MVCC_* variable so the library runs at its
// defaults, then pins MVCC_THREADS (and MVCC_STATS for traced runs).
// Must run before the first library call: config() and obs::enabled()
// latch the environment on first use.
std::vector<std::string> reset_env(const Spec& spec, bool traced,
                                   int* threads) {
  std::vector<std::string> cleared;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv = *e;
    if (kv.starts_with("MVCC_")) {
      cleared.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& name : cleared) unsetenv(name.c_str());
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int flatteners = spec.sharded ? kShards : 1;
  // exec/ runs MVCC_THREADS - 1 workers plus the flattener that forks.
  *threads = std::max(1, nproc - kClients - flatteners + 1);
  setenv("MVCC_THREADS", std::to_string(*threads).c_str(), 1);
  if (traced) setenv("MVCC_STATS", "1", 1);
  return cleared;
}

std::string config_json(std::uint64_t seed, bool traced,
                        const std::vector<std::string>& cleared) {
  const Config& cfg = config();
  std::string cl = "[";
  for (const std::string& n : cleared) {
    cl += std::string(cl.size() > 1 ? ", " : "") + "\"" + n + "\"";
  }
  cl += "]";
  return "{\"seed\": " + std::to_string(seed) +
         ", \"traced\": " + (traced ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" MVCCBENCH_BUILD_TYPE "\"" +
         ", \"clients\": " + std::to_string(kClients) +
         ", \"threads\": " + std::to_string(cfg.threads) +
         ", \"grain\": " + std::to_string(cfg.grain) +
         ", \"alloc_pooled\": " + (cfg.alloc_pooled ? "true" : "false") +
         ", \"slab_bytes\": " + std::to_string(cfg.slab_bytes) +
         ", \"shards_config\": " + std::to_string(cfg.shards) +
         ", \"scale\": " + std::to_string(cfg.scale) +
         ", \"stats\": " + (obs::enabled() ? "true" : "false") +
         ", \"bg_reclaim\": " + (vm::bg_reclaim_enabled() ? "true" : "false") +
         ", \"cleared_env\": " + cl + "}";
}

template <class M>
int run_workload(const Spec& spec, std::uint64_t seed, double seconds,
                 bool traced, int setup_reps, const std::string& spans_path,
                 Report& rep) {
  // Set-up = input generation + map construction, repeated so setup_s is
  // a median; each earlier map is torn down before the next is built.
  std::vector<double> setup;
  std::unique_ptr<Run<M>> run;
  for (int r = 0; r < setup_reps; ++r) {
    run.reset();
    Timer t;
    run = std::make_unique<Run<M>>(spec, make_inputs(spec, seed), traced);
    setup.push_back(t.seconds());
  }
  std::sort(setup.begin(), setup.end());
  const double setup_s = setup[setup.size() / 2];

  run->measure(seconds, rep);
  rep.add("setup_s", setup_s, "s", static_cast<std::int64_t>(setup.size()));
  if (!traced) return 0;
  // The mean batch the flattener formed in the window sizes the replay.
  run->replay(rep.value("txn.batch_ops_mean"), rep);
  if (!spans_path.empty()) {
    std::uint64_t dropped = 0;
    if (!run->write_spans(spans_path, &dropped)) {
      std::fprintf(stderr, "mvccbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    rep.note("spans_written", "\"" + spans_path + "\"");
    rep.note("spans_dropped", std::to_string(dropped));
  }
  return 0;
}

// Checks the benchmark's own machinery: the checker counts a wrong value
// and a torn row, and one seed gives identical inputs while another seed
// gives different ones. Runs before every measurement (run.py).
int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::fprintf(stderr, "  %-58s %s\n", what, ok ? "ok" : "FAIL");
    failures += ok ? 0 : 1;
  };

  Checker chk;
  const V right = encode(7, 3);
  const V wrong = encode(8, 3);
  const V row_a = encode(100, 5);
  const V row_b_torn = encode(101, 4);
  const V row_b_whole = encode(101, 5);
  chk.value(7, &right);
  chk.value(7, &wrong);
  chk.value(7, nullptr);
  chk.row(100, &row_a, 101, &row_b_whole);
  chk.row(100, &row_a, 101, &row_b_torn);
  expect(chk.made == 5 && chk.failed == 3,
         "checker counts a wrong value, a missing key, a torn row");

  for (const Spec& full : kSpecs) {
    Spec spec = full;
    spec.log2_keys = std::min(spec.log2_keys, 16u);
    const Inputs a = make_inputs(spec, 42, 4096);
    const Inputs b = make_inputs(spec, 42, 4096);
    const Inputs d = make_inputs(spec, 43, 4096);
    const auto same_ops = [](const Inputs& x, const Inputs& y) {
      for (int c = 0; c < kClients; ++c) {
        const auto& p = x.streams[static_cast<std::size_t>(c)];
        const auto& q = y.streams[static_cast<std::size_t>(c)];
        if (p.size() != q.size()) return false;
        for (std::size_t i = 0; i < p.size(); ++i) {
          if (p[i].type != q[i].type || p[i].key != q[i].key) return false;
        }
      }
      return true;
    };
    std::string what = std::string(full.name) + ": same seed, same streams";
    expect(same_ops(a, b) && a.entries == b.entries, what.c_str());
    what = std::string(full.name) + ": other seed, other streams";
    expect(!same_ops(a, d) && a.entries != d.entries, what.c_str());
    bool partitioned = true;
    for (int c = 0; c < kClients; ++c) {
      for (const YcsbOp& op : a.streams[static_cast<std::size_t>(c)]) {
        partitioned = partitioned && op.key / a.psize ==
                                         static_cast<std::uint64_t>(c);
      }
    }
    what = std::string(full.name) + ": each key has exactly one writer";
    expect(partitioned, what.c_str());
  }
  std::fprintf(stderr, "self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: mvccbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--setup-reps R] [--spans PATH]\n"
               "       mvccbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  int setup_reps = 5;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') return usage();
    } else if (a == "--trace") {
      traced = std::string_view(v) == "1";
    } else if (a == "--setup-reps") {
      setup_reps = std::atoi(v);
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload_name == s.name) spec = &s;
  }
  if (spec == nullptr || !have_seed || !(seconds > 0) || setup_reps < 1 ||
      setup_reps > 9) {
    return usage();
  }

  int threads = 0;
  const std::vector<std::string> cleared = reset_env(*spec, traced, &threads);
  if (obs::enabled() != traced) {
    std::fprintf(stderr, "mvccbench: MVCC_STATS did not take effect\n");
    return 1;
  }

  Report rep;
  rep.note("workload", "\"" + std::string(spec->name) + "\"");
  rep.note("config", config_json(seed, traced, cleared));
  rep.note("histogram_resolution", "0.125");
  const int rc =
      spec->sharded
          ? run_workload<Sharded>(*spec, seed, seconds, traced, setup_reps,
                                  spans_path, rep)
          : run_workload<Single>(*spec, seed, seconds, traced, setup_reps,
                                 spans_path, rep);
  if (rc != 0) return rc;

  std::fprintf(stderr, "%s (%s, seed %llu, %.1f s window)\n", spec->name,
               traced ? "traced" : "untraced",
               static_cast<unsigned long long>(seed), seconds);
  rep.print_human(stderr);
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
