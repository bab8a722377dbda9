// SEC4 — Section 4 reproduction: the combined algorithm (k sessions,
// shared dynamic total bandwidth, per-session delay + aggregate
// utilization).
//
// Sweep (k, B_O) and report the two change families the section bounds:
//   * global changes (transitions of the reserved total 4 B_on + 2 B_O)
//     per global stage — bounded by the B_on ladder length log2(2 B_O) + 1;
//   * local (per-session) changes per local stage — the O(k) regime.
// Plus the guarantees: delay and aggregate utilization.
#include <algorithm>
#include <iostream>

#include "analysis/table.h"
#include "core/combined.h"
#include "reporter.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"
#include "util/power_of_two.h"

namespace {
using namespace bwalloc;

constexpr Time kDo = 8;
constexpr Time kHorizon = 8000;

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("sec4", &argc, argv);
  const Time horizon = rep.quick() ? 2000 : kHorizon;
  const std::vector<std::int64_t> ks =
      rep.quick() ? std::vector<std::int64_t>{2, 4}
                  : std::vector<std::int64_t>{2, 4, 8, 16};
  const std::vector<Bits> bos = rep.quick()
                                    ? std::vector<Bits>{64}
                                    : std::vector<Bits>{64, 256};
  Table table({"k", "B_O", "inner", "glob chg/stage", "ladder bound",
               "loc chg/stage", "O(k) scale", "max delay", "3 D_O",
               "global util", "local util"});

  {
  ScopedTimer timer(rep.profile(), "sweep");
  for (const std::int64_t k : ks) {
    for (const Bits bo : bos) {
      for (const bool continuous : {false, true}) {
      CombinedParams p;
      p.sessions = k;
      p.offline_bandwidth = bo;
      p.offline_delay = kDo;
      p.offline_utilization = Ratio(1, 2);
      p.window = 8;
      p.continuous_inner = continuous;

      const auto traces = MultiSessionWorkload(
          MultiWorkloadKind::kRotatingHotspot, k, bo, kDo, horizon,
          static_cast<std::uint64_t>(300 + k) ^
              static_cast<std::uint64_t>(bo));
      CombinedOnline sys(p);
      MultiEngineOptions opt;
      opt.drain_slots = 8 * kDo;
      opt.utilization_scan_window = p.window + 5 * kDo;
      const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
      rep.CountWork(horizon, 1);

      const double glob_per_stage =
          static_cast<double>(r.global_changes) /
          static_cast<double>(std::max<std::int64_t>(1, r.global_stages + 1));
      const double loc_per_stage =
          static_cast<double>(r.local_changes) /
          static_cast<double>(std::max<std::int64_t>(1, r.stages + 1));

      table.AddRow({Table::Num(k), Table::Num(bo),
                    continuous ? "continuous" : "phased",
                    Table::Num(glob_per_stage, 1),
                    Table::Num(CeilLog2(2 * bo) + 1),
                    Table::Num(loc_per_stage, 1),
                    Table::Num(loc_per_stage / static_cast<double>(k), 2),
                    Table::Num(r.delay.max_delay()), Table::Num(3 * kDo),
                    Table::Num(r.global_utilization, 3),
                    Table::Num(r.worst_best_window_utilization, 3)});
      const std::string label = "k=" + Table::Num(k) +
                                ",B_O=" + Table::Num(bo) + "," +
                                (continuous ? "continuous" : "phased");
      rep.RowMax(label, "glob_chg_per_stage", glob_per_stage,
                 static_cast<double>(CeilLog2(2 * bo) + 1));
      rep.RowMax(label, "max_delay",
                 static_cast<double>(r.delay.max_delay()),
                 static_cast<double>(3 * kDo));
      rep.RowInfo(label, "loc_chg_per_stage_over_k",
                  loc_per_stage / static_cast<double>(k));
      rep.RowInfo(label, "global_util", r.global_utilization);
      }
    }
  }
  }

  std::printf("== SEC4: combined algorithm — global x local stages ==\n");
  std::printf("rotating-hotspot workload, D_O=%lld, U_O=1/2, W=8, %lld "
              "slots\n\n",
              static_cast<long long>(kDo),
              static_cast<long long>(horizon));
  table.PrintAscii(std::cout);
  rep.Save("sec4_combined", table);
  std::printf(
      "\nExpected shape (Section 4): global changes per global stage within "
      "the B_on\nladder bound (log2(2 B_O) + 1, growing with B_O, flat in "
      "k); local changes per\nlocal stage in the O(k) regime ('O(k) scale' "
      "roughly constant down the k column);\ndelay within our slotted 3 D_O "
      "bound (the paper's sketch claims 2 D_O; see DESIGN.md).\n");
  return rep.Finish();
}
