// Environment-variable knobs shared by the library and the experiment
// binaries.
//
// The paper's harnesses are parameterised by machine scale; rather than a
// flag library we use a tiny set of env knobs so the same binary runs on a
// laptop (defaults) and on the paper's 72-core machine (MVCC_* overrides).
//
// The one rule: this header is the only library code that reads a knob.
// Config::from_env() parses every library knob, config() resolves it once,
// at its first call, and it never changes afterwards. Set MVCC_* before the
// first library call (not merely before static initialisation: config() is
// a function-local static, so main() may still set the environment).
// Because the value cannot change, allocate/free always agree on the
// allocation route and every default-sized ShardedMap has the same shard
// count. The obs/ and vm/ run-time switches
// (obs::set_enabled, obs::set_trace_enabled, vm::set_bg_reclaim) are
// seeded from config() at first use; tests flip them, the environment
// does not.
//
// Library knobs (fields of Config):
//
//   MVCC_SCALE    multiplier applied to structure sizes        (default 1.0)
//   MVCC_THREADS  worker-thread count for batch/bulk ops; non-positive
//                 values floor at 1                            (default hw)
//   MVCC_GRAIN    fork-join grain for the bulk tree ops: a recursive
//                 subproblem below this many nodes stays sequential
//                 (see ftree/ops.h bulk_grain); non-positive = default,
//                 below kGrainFloor clamps to it            (default 2048)
//   MVCC_ALLOC    node/tuple allocation policy: "malloc" keeps plain
//                 operator new/delete for A/B comparison, anything else
//                 routes fixed-size blocks through the alloc/ magazine
//                 pool (see alloc/pool.h)                 (default "slab")
//   MVCC_SLAB_BYTES  bytes per slab the alloc/ pool carves blocks from,
//                 clamped to [4096, 16MiB]                 (default 65536)
//   MVCC_SHARDS   shard count of a default-sized ShardedMap
//                 (txn/sharded.h), clamped to [1, 256]         (default 1)
//   MVCC_STATS    nonzero enables the obs/ metrics layer (see
//                 obs/obs.h)                                   (default 0)
//   MVCC_TRACE    output path for the Chrome-trace event dump; tracing
//                 needs MVCC_STATS too (see obs/trace.h)    (default off)
//   MVCC_PERF     nonzero opens perf_event hardware counters per bench
//                 cell under MVCC_STATS (see obs/perf.h; silent no-op
//                 where the syscall is unavailable)            (default 0)
//   MVCC_BG_RECLAIM  nonzero routes the exact freed sets VM operations
//                 return to the exec/ pool's background lane instead of
//                 freeing inline (see vm/base.h reclaim_payloads)
//                                                              (default 0)
//
// A malformed number falls back to the knob's default.
//
// Bench-harness knobs (read by bench/bench_util.h, not by the library):
//
//   MVCC_SECONDS  wall-clock budget per measured cell, seconds (default 0.4)
//   MVCC_READERS  reader-thread count for the Table 2 harness  (default 3)
//   MVCC_WARMUP_SECONDS  steady-state warm-up before each measured
//                 duration-based bench cell                    (default 0.1)
//   MVCC_SAMPLE_MS  footprint sampler period, ms; 0 disables the sampler
//                 thread entirely (see obs/sampler.h)          (default 0)
//   MVCC_SAMPLE_OUT path the benches write the footprint CSV to
//                 when the sampler ran             (default footprint.csv)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace mvcc {

// Reads a long from the environment; returns `def` when unset or malformed.
inline long env_long(const char* name, long def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  return (end == nullptr || *end != '\0') ? def : v;
}

// Reads a double from the environment; returns `def` when unset or malformed.
inline double env_double(const char* name, double def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return (end == nullptr || *end != '\0') ? def : v;
}

// Reads a string from the environment; returns `def` when unset.
inline std::string env_string(const char* name, const char* def = "") {
  const char* s = std::getenv(name);
  return std::string(s != nullptr ? s : def);
}

// Smallest fork-join grain the bulk tree ops accept: below this, the spawn
// cost per subproblem exceeds the node-visit work by orders of magnitude
// and fork-join degrades into per-node task spam.
inline constexpr long kGrainFloor = 64;

namespace detail {

// MVCC_GRAIN with the guard rails: non-positive or malformed values fall
// back to the default (a grain of 0 would fork single-node subproblems),
// and positive-but-absurd values clamp to kGrainFloor — silently accepting
// e.g. MVCC_GRAIN=1 used to turn every bulk op into spawn-bound sludge.
// The clamp logs under MVCC_STATS so a grain sweep that walked off the
// edge is visible rather than mysteriously flat.
inline long parse_grain(bool stats) {
  const long v = env_long("MVCC_GRAIN", 2048);
  if (v <= 0) return 2048;
  if (v < kGrainFloor) {
    if (stats) {
      std::fprintf(stderr,
                   "[mvcc] MVCC_GRAIN=%ld would fork near-single-node "
                   "subproblems; clamped to %ld\n",
                   v, kGrainFloor);
    }
    return kGrainFloor;
  }
  return v;
}

}  // namespace detail

// --- The process-wide runtime configuration --------------------------------
struct Config {
  double scale = 1.0;              // MVCC_SCALE
  int threads = 1;                 // MVCC_THREADS (floored at 1)
  long grain = 2048;               // MVCC_GRAIN (clamped to kGrainFloor)
  bool alloc_pooled = true;        // MVCC_ALLOC ("slab" | "malloc")
  std::size_t slab_bytes = 65536;  // MVCC_SLAB_BYTES
  int shards = 1;                  // MVCC_SHARDS (clamped to [1, 256])
  bool stats = false;              // MVCC_STATS
  bool perf = false;               // MVCC_PERF
  std::string trace_path;          // MVCC_TRACE (empty = no trace)
  bool bg_reclaim = false;         // MVCC_BG_RECLAIM

  // Scales a base structure size by `scale`; never returns less than 1 for
  // a positive base, so the result is always a usable element count.
  long scaled(long base) const {
    const long v = static_cast<long>(static_cast<double>(base) * scale);
    return (base > 0 && v < 1) ? 1 : v;
  }

  static Config from_env() {
    Config c;
    c.stats = env_long("MVCC_STATS", 0) != 0;
    c.perf = env_long("MVCC_PERF", 0) != 0;
    c.trace_path = env_string("MVCC_TRACE");
    c.bg_reclaim = env_long("MVCC_BG_RECLAIM", 0) != 0;
    c.scale = env_double("MVCC_SCALE", 1.0);
    const long hw = static_cast<long>(std::thread::hardware_concurrency());
    const long threads = env_long("MVCC_THREADS", hw > 0 ? hw : 1);
    c.threads = static_cast<int>(threads > 0 ? threads : 1);
    c.grain = detail::parse_grain(c.stats);
    // Any MVCC_ALLOC other than "malloc" selects the slab pool, so a typo
    // fails toward the default policy instead of silently changing it.
    c.alloc_pooled = env_string("MVCC_ALLOC", "slab") != "malloc";
    c.slab_bytes = static_cast<std::size_t>(
        std::clamp(env_long("MVCC_SLAB_BYTES", 1L << 16), 1L << 12, 1L << 24));
    // A shard is a whole flattener thread plus a version manager, so
    // counts beyond a few hundred are a misconfiguration, not a scale-up.
    c.shards =
        static_cast<int>(std::clamp(env_long("MVCC_SHARDS", 1), 1L, 256L));
    return c;
  }
};

// The process-wide configuration, parsed from the environment at the first
// call and immutable afterwards. Never destroyed, so a destructor that
// frees pooled nodes during static teardown can still read it.
inline const Config& config() {
  static const Config* const c = new Config(Config::from_env());
  return *c;
}

}  // namespace mvcc
