// Lock-free per-thread event tracer with Chrome-trace/Perfetto JSON export.
//
// Aggregate metrics (obs/registry.h) say HOW MUCH; a trace says WHEN.
// Flattener stalls, collect pauses and sweep bursts are invisible in a
// histogram but obvious on a timeline, so the instrumented subsystems emit
// scoped spans (RAII TraceSpan: flattener commits, vm sweeps, ftree
// collects) and instant events (vm retire/acquire, release-frees,
// flattener stalls) that dump as Chrome trace-event JSON loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Recording is lock-free and allocation-free at steady state: each thread
// owns a fixed-capacity ring of events (allocated once, on that thread's
// first event) and emission is two relaxed stores plus a release bump of
// the ring head — no CAS, no sharing, no locks. The ring overwrites oldest,
// so a long run retains the most recent window per thread. The global
// tracer only takes a mutex to register a new thread's ring and to dump.
//
// The gate mirrors obs::enabled()'s two layers: under -DMVCC_STATS=OFF
// trace_on() is constexpr false and every emission site compiles out;
// otherwise it is one relaxed load, seeded from config() at its first call —
// tracing is on iff MVCC_STATS is set AND MVCC_TRACE names an output file.
// set_trace_enabled() exists for tests. With tracing off nothing is
// allocated and no thread is spawned (the tracer has no thread at all; the
// dump runs on the caller).
//
// Dumping is meant for quiescence (workers joined / maps destroyed): a
// thread still emitting while dump_json() runs can tear at most the events
// it is concurrently overwriting, never the dumper's memory safety... but
// the benches only dump after their cells are torn down.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mvcc/common/env.h"

namespace mvcc::obs {

// Nanoseconds since the first call (one steady-clock epoch per process);
// Chrome trace timestamps are derived from this.
inline std::uint64_t trace_now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

#if defined(MVCC_STATS_DISABLED)

constexpr bool trace_on() { return false; }
inline void set_trace_enabled(bool) {}

#else

namespace detail {
// Seeded from config() at the first call, like obs::enabled().
inline std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{config().stats &&
                                !config().trace_path.empty()};
  return flag;
}
}  // namespace detail

inline bool trace_on() {
  return detail::trace_flag().load(std::memory_order_relaxed);
}

inline void set_trace_enabled(bool on) {
  detail::trace_flag().store(on, std::memory_order_relaxed);
}

#endif  // MVCC_STATS_DISABLED

class Tracer {
 public:
  // One trace event. `name` must be a string literal (stored by pointer).
  struct Event {
    const char* name;
    std::uint64_t ts_ns;   // start (spans) or occurrence (instants)
    std::uint64_t dur_ns;  // 0 for instants
    std::uint64_t arg;     // free-form payload (batch size, nodes freed...)
    char ph;               // 'X' complete span, 'i' instant
  };

  static constexpr std::size_t kRingCap = std::size_t{1} << 13;

  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Lock-free fast path: writes into the calling thread's ring. Callers
  // gate on trace_on(); emit itself records unconditionally.
  void emit(const char* name, char ph, std::uint64_t ts_ns,
            std::uint64_t dur_ns, std::uint64_t arg) {
    Ring& r = local_ring();
    const std::uint64_t h = r.head.load(std::memory_order_relaxed);
    r.events[static_cast<std::size_t>(h & (kRingCap - 1))] =
        Event{name, ts_ns, dur_ns, arg, ph};
    r.head.store(h + 1, std::memory_order_release);
  }

  // Events emitted since construction/reset, including ones the rings have
  // overwritten.
  std::uint64_t events_emitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r->head.load(std::memory_order_acquire);
    return n;
  }

  // Chrome trace-event JSON over every thread's retained events. Valid
  // JSON even when empty; ts/dur are microseconds (the Chrome convention).
  std::string dump_json() const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    char buf[256];
    for (const auto& r : rings_) {
      const std::uint64_t head = r->head.load(std::memory_order_acquire);
      const std::uint64_t n = head < kRingCap ? head : kRingCap;
      for (std::uint64_t i = head - n; i < head; ++i) {
        const Event& e =
            r->events[static_cast<std::size_t>(i & (kRingCap - 1))];
        out += first ? "\n" : ",\n";
        first = false;
        if (e.ph == 'X') {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                        "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                        "\"args\": {\"v\": %llu}}",
                        e.name, static_cast<double>(e.ts_ns) / 1e3,
                        static_cast<double>(e.dur_ns) / 1e3, r->tid,
                        static_cast<unsigned long long>(e.arg));
        } else {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
                        "\"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
                        "\"args\": {\"v\": %llu}}",
                        e.name, static_cast<double>(e.ts_ns) / 1e3, r->tid,
                        static_cast<unsigned long long>(e.arg));
        }
        out += buf;
      }
    }
    out += first ? "]}" : "\n]}";
    return out;
  }

  // Writes dump_json() to `path`; false on I/O failure.
  bool dump_json_to_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = dump_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
  }

  // Rewinds every ring (events stay allocated, heads return to zero).
  // Callers must be quiescent — tests only.
  void reset_for_test() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& r : rings_) r->head.store(0, std::memory_order_release);
  }

 private:
  // Singleton-only: local_ring()'s thread_local cache is one pointer per
  // thread, so a second Tracer instance would emit into (or dangle off)
  // whichever instance registered this thread's ring first.
  Tracer() = default;

  struct Ring {
    explicit Ring(std::uint32_t id) : events(new Event[kRingCap]), tid(id) {}
    std::unique_ptr<Event[]> events;
    std::atomic<std::uint64_t> head{0};
    std::uint32_t tid;
  };

  // The calling thread's ring, registered (and its storage allocated) on
  // first use — a thread that never traces never allocates.
  Ring& local_ring() {
    thread_local Ring* tl = nullptr;
    if (tl == nullptr) [[unlikely]] {
      std::lock_guard<std::mutex> lock(mu_);
      rings_.push_back(
          std::make_unique<Ring>(static_cast<std::uint32_t>(rings_.size())));
      tl = rings_.back().get();
    }
    return *tl;
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;  // rings outlive their threads
};

// Scoped span: stamps the start on construction, emits one complete ('X')
// event on destruction. Free when tracing is off (one relaxed load). The
// arg defaults at construction and may be refined once the work is done
// (set_arg: batch size, versions freed...).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::uint64_t arg = 0) {
    if (trace_on()) {
      name_ = name;
      arg_ = arg;
      t0_ = trace_now_ns();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_arg(std::uint64_t arg) { arg_ = arg; }

  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::instance().emit(name_, 'X', t0_, trace_now_ns() - t0_, arg_);
    }
  }

 private:
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::uint64_t arg_ = 0;
};

// Instant ('i') event, thread-scoped on the timeline.
inline void trace_instant(const char* name, std::uint64_t arg = 0) {
  if (trace_on()) {
    Tracer::instance().emit(name, 'i', trace_now_ns(), 0, arg);
  }
}

// Complete event whose start was stamped earlier with trace_now_ns() —
// for spans that cannot be a scope, like flattener batch formation (first
// op drained to commit).
inline void trace_complete_since(const char* name, std::uint64_t t0_ns,
                                 std::uint64_t arg = 0) {
  if (trace_on()) {
    Tracer::instance().emit(name, 'X', t0_ns, trace_now_ns() - t0_ns, arg);
  }
}

}  // namespace mvcc::obs
