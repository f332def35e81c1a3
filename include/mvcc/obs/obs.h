// Umbrella header and master switch of the obs/ metrics layer.
//
// Instrumented hot paths guard every metric touch with obs::enabled():
//
//   if (obs::enabled()) stats().commit_latency.record(t.nanos());
//
// The switch has two layers so instrumentation is zero-cost when off:
//
//   * Compile time: configuring with -DMVCC_STATS=OFF defines
//     MVCC_STATS_DISABLED, making enabled() constexpr false — every guarded
//     block is dead code the compiler deletes outright.
//   * Run time (the default build): enabled() is one relaxed atomic load
//     and a branch, seeded from config().stats (MVCC_STATS; unset/0 =
//     off) at its first call. A predicted-untaken branch per already-expensive
//     operation (node allocation, version retire, batch commit) is below
//     measurement noise — the property the BENCH_6.json trajectory run
//     checks against a stats-off build.
//
// set_enabled() exists for tests, which must flip collection on without
// re-exec'ing under a new environment.
#pragma once

#include <atomic>

#include "mvcc/common/env.h"
#include "mvcc/obs/counter.h"
#include "mvcc/obs/histogram.h"
#include "mvcc/obs/perf.h"
#include "mvcc/obs/registry.h"
#include "mvcc/obs/sampler.h"
#include "mvcc/obs/trace.h"

namespace mvcc::obs {

#if defined(MVCC_STATS_DISABLED)

constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}

#else

namespace detail {
// Seeded from config().stats at the first call, not at static
// initialisation: a program may still set MVCC_STATS in main().
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{config().stats};
  return flag;
}
}  // namespace detail

inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

#endif  // MVCC_STATS_DISABLED

}  // namespace mvcc::obs
