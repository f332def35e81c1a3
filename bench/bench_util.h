// Shared helpers for the experiment binaries: table formatting and scale
// knobs. Every bench prints the same rows/series as the paper's table or
// figure it regenerates, at a machine-appropriate default scale
// (MVCC_SCALE, MVCC_SECONDS, MVCC_WARMUP_SECONDS, MVCC_READERS environment
// variables scale up).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/env.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/batching.h"
#include "mvcc/vm/base.h"

namespace mvcc::bench {

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// Prints one row of left-aligned cells. `width` is a minimum: a cell wider
// than it gets its own width plus a separating space, so long values never
// jam into the next column (they may still stagger against other rows —
// use Table when the whole table is known up front).
inline void print_row(const std::vector<std::string>& cells, int width = 12) {
  for (const auto& c : cells) {
    const int w = std::max(width, static_cast<int>(c.size()) + 1);
    std::printf("%-*s", w, c.c_str());
  }
  std::printf("\n");
}

// Collects a header plus rows and prints them with every column as wide as
// its widest cell — the alignment print_row cannot guarantee row by row.
class Table {
 public:
  explicit Table(std::vector<std::string> header, int min_width = 12)
      : min_width_(min_width) {
    rows_.push_back(std::move(header));
  }

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<int> widths;
    for (const auto& row : rows_) {
      if (widths.size() < row.size()) widths.resize(row.size(), min_width_);
      for (std::size_t i = 0; i < row.size(); ++i) {
        widths[i] =
            std::max(widths[i], static_cast<int>(row[i].size()) + 2);
      }
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s", widths[i], row[i].c_str());
      }
      std::printf("\n");
    }
  }

 private:
  int min_width_;
  std::vector<std::vector<std::string>> rows_;
};

// Fixed-precision double formatting with no truncation: the buffer is
// sized by a measuring pass, so any magnitude round-trips intact.
inline std::string fmt(double v, int precision = 3) {
  const int n = std::snprintf(nullptr, 0, "%.*f", precision, v);
  std::string s(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::snprintf(s.data(), s.size() + 1, "%.*f", precision, v);
  return s;
}

inline std::string fmt_int(long long v) { return std::to_string(v); }

// Benchmark wall-clock budget per measured cell, seconds.
inline double cell_seconds() { return env_double("MVCC_SECONDS", 0.4); }

// Warm-up run before each measured cell of a duration-based steady-state
// bench (ScaleStore-driver style): threads run the full workload, nothing
// is recorded until the warm-up elapses.
inline double warmup_seconds() {
  return env_double("MVCC_WARMUP_SECONDS", 0.1);
}

// Reader thread count for the Table 2 / Figure 6 harness (paper: 140).
inline int reader_threads() {
  return static_cast<int>(env_long("MVCC_READERS", 3));
}

// Per-process observability session for the experiment binaries: construct
// one in main() around the measured work. Under MVCC_STATS=1 it registers
// every subsystem's footprint probes and, when MVCC_SAMPLE_MS > 0, starts
// the background sampler; on destruction it stops the sampler, writes the
// footprint CSV (MVCC_SAMPLE_OUT, default footprint.csv), and dumps the
// event trace to MVCC_TRACE when tracing is active. Stats off: all no-ops —
// no threads, no files.
class ObsSession {
 public:
  ObsSession() {
    if (!obs::enabled()) return;
    alloc::register_alloc_probes();
    ftree::register_footprint_probes();
    vm::register_vm_probes();
    txn::register_txn_probes();
    const long period_ms = env_long("MVCC_SAMPLE_MS", 0);
    if (period_ms > 0) {
      sampling_ = obs::Sampler::instance().start(period_ms);
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    if (sampling_) {
      auto& sampler = obs::Sampler::instance();
      sampler.stop();
      const std::string out = env_string("MVCC_SAMPLE_OUT", "footprint.csv");
      if (sampler.dump_csv_to_file(out)) {
        std::fprintf(stderr, "[obs] footprint samples (%zu rows) -> %s\n",
                     sampler.rows().size(), out.c_str());
      }
    }
    const std::string& trace_path = config().trace_path;
    if (obs::trace_on() && !trace_path.empty()) {
      auto& tracer = obs::Tracer::instance();
      if (tracer.dump_json_to_file(trace_path)) {
        std::fprintf(stderr, "[obs] trace (%llu events) -> %s\n",
                     static_cast<unsigned long long>(tracer.events_emitted()),
                     trace_path.c_str());
      }
    }
  }

 private:
  bool sampling_ = false;
};

}  // namespace mvcc::bench
