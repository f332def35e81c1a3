// Reproduces TABLE 2 of the paper: query throughput (Mop/s), update
// throughput (Mop/s) and the maximum number of live (uncollected) versions,
// for each Version Maintenance algorithm (Base / PSWF / PSLF / HP / EP /
// RCU) under the single-writer multi-reader range-sum workload, at query
// granularity nq and update granularity nu in {10, 1000}^2.
//
// Paper setup: 72-core machine, 140 reader threads, initial tree 1e8, 15 s
// per cell. Defaults here are laptop-scale; scale with:
//   MVCC_READERS=140 MVCC_SCALE=1000 MVCC_SECONDS=15 ./bench_table2
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "mvcc/vm/base.h"
#include "mvcc/vm/ep.h"
#include "mvcc/vm/hp.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/vm/rcu.h"
#include "mvcc/workload/range_workload.h"

namespace {

using namespace mvcc;
using bench::fmt;
using bench::fmt_int;

struct CellResult {
  double query_mops;
  double update_mops;
  std::int64_t max_versions;
};

template <template <typename> class VMImpl>
CellResult run_cell(int nq, int nu) {
  workload::RangeWorkloadConfig cfg;
  cfg.readers = bench::reader_threads();
  cfg.initial_size = static_cast<std::uint64_t>(config().scaled(100000));
  cfg.nq = nq;
  cfg.nu = nu;
  cfg.duration_sec = bench::cell_seconds();
  auto r = workload::run_range_workload<VMImpl>(cfg);
  return {r.query_mops(), r.update_mops(), r.max_live_versions};
}

struct RowSet {
  CellResult base, pswf, pslf, hp, ep, rcu;
};

RowSet run_setting(int nq, int nu) {
  RowSet rs;
  rs.base = run_cell<vm::BaseVersionManager>(nq, nu);
  rs.pswf = run_cell<vm::PswfVersionManager>(nq, nu);
  rs.pslf = run_cell<vm::PslfVersionManager>(nq, nu);
  rs.hp = run_cell<vm::HpVersionManager>(nq, nu);
  rs.ep = run_cell<vm::EpVersionManager>(nq, nu);
  rs.rcu = run_cell<vm::RcuVersionManager>(nq, nu);
  return rs;
}

}  // namespace

int main() {
  const int settings[4][2] = {{10, 10}, {10, 1000}, {1000, 10}, {1000, 1000}};
  RowSet rows[4];
  for (int i = 0; i < 4; ++i) {
    std::fprintf(stderr, "table2: running setting nq=%d nu=%d...\n",
                 settings[i][0], settings[i][1]);
    rows[i] = run_setting(settings[i][0], settings[i][1]);
  }

  bench::print_header(
      "Table 2: query/update throughput and live versions per VM algorithm");
  std::printf("(readers=%d, scale=%g, %gs per cell; paper: 140 readers, "
              "1e8 keys, 15s)\n",
              mvcc::bench::reader_threads(), mvcc::config().scale,
              mvcc::bench::cell_seconds());

  bench::print_row({"nq", "nu", "Base", "PSWF", "PSLF", "HP", "EP", "RCU"});
  std::printf("--- Query Throughput (Mop/s)\n");
  for (int i = 0; i < 4; ++i) {
    bench::print_row({fmt_int(settings[i][0]), fmt_int(settings[i][1]),
                      fmt(rows[i].base.query_mops), fmt(rows[i].pswf.query_mops),
                      fmt(rows[i].pslf.query_mops), fmt(rows[i].hp.query_mops),
                      fmt(rows[i].ep.query_mops), fmt(rows[i].rcu.query_mops)});
  }
  std::printf("--- Update Throughput (Mop/s)\n");
  for (int i = 0; i < 4; ++i) {
    bench::print_row(
        {fmt_int(settings[i][0]), fmt_int(settings[i][1]),
         fmt(rows[i].base.update_mops), fmt(rows[i].pswf.update_mops),
         fmt(rows[i].pslf.update_mops), fmt(rows[i].hp.update_mops),
         fmt(rows[i].ep.update_mops), fmt(rows[i].rcu.update_mops)});
  }
  std::printf("--- Max # Versions\n");
  for (int i = 0; i < 4; ++i) {
    bench::print_row(
        {fmt_int(settings[i][0]), fmt_int(settings[i][1]), "-",
         fmt_int(rows[i].pswf.max_versions), fmt_int(rows[i].pslf.max_versions),
         fmt_int(rows[i].hp.max_versions), fmt_int(rows[i].ep.max_versions),
         fmt_int(rows[i].rcu.max_versions)});
  }
  return 0;
}
