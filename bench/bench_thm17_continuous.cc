// THM17 — Theorem 17 reproduction: the continuous multi-session algorithm
// is a (5 B_O, 2 D_O)-algorithm with at most 3k times the offline changes —
// head-to-head with the phased algorithm on the same inputs (the paper
// presents continuous as "more natural to implement" at the price of one
// extra B_O of overflow headroom).
//
// The (k, algorithm) cells plus the per-k offline references run sharded
// on the batch runner (--jobs=N); rows emit in sweep order for every N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "analysis/table.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "offline/offline_multi.h"
#include "reporter.h"
#include "runner/batch_runner.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace {
using namespace bwalloc;

constexpr Time kDo = 8;
constexpr Time kHorizon = 8000;

const std::vector<std::int64_t> kSessionCounts = {2, 4, 8, 16, 32};

std::vector<std::vector<Bits>> TracesFor(std::int64_t k, Time horizon) {
  return MultiSessionWorkload(MultiWorkloadKind::kRotatingHotspot, k, 16 * k,
                              kDo, horizon,
                              static_cast<std::uint64_t>(200 + k));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("thm17", &argc, argv);
  const Time horizon = rep.quick() ? 2000 : kHorizon;
  const std::vector<std::int64_t> ks =
      rep.quick() ? std::vector<std::int64_t>{2, 4, 8} : kSessionCounts;
  BatchRunner runner(BatchOptions{rep.jobs(), 0});
  const auto n = static_cast<std::int64_t>(ks.size());

  const auto start = std::chrono::steady_clock::now();
  BatchResult<std::int64_t> offline;
  BatchResult<MultiRunResult> online;
  {
    ScopedTimer timer(rep.profile(), "sweep");
    // Stage 1: the greedy offline reference, one cell per k.
    offline = runner.Map<std::int64_t>(
        "thm17-offline", n, [&](const TaskContext& ctx) {
          const std::int64_t k = ks[static_cast<std::size_t>(ctx.key.index)];
          const MultiOfflineSchedule s =
              GreedyMultiSchedule(TracesFor(k, horizon), 16 * k, kDo);
          return s.feasible ? std::max<std::int64_t>(1, s.local_changes())
                            : std::int64_t{1};
        });
    // Stage 2: the online cells — index = k_idx * 2 + (continuous ? 1 : 0).
    online = runner.Map<MultiRunResult>(
        "thm17-online", 2 * n, [&](const TaskContext& ctx) {
          const std::int64_t k =
              ks[static_cast<std::size_t>(ctx.key.index / 2)];
          const bool continuous = (ctx.key.index % 2) != 0;
          MultiSessionParams p;
          p.sessions = k;
          p.offline_bandwidth = 16 * k;
          p.offline_delay = kDo;
          MultiEngineOptions opt;
          opt.drain_slots = 4 * kDo;
          const auto traces = TracesFor(k, horizon);
          if (continuous) {
            ContinuousMulti sys(p);
            return RunMultiSessionEvent(traces, sys, opt);
          }
          PhasedMulti sys(p);
          return RunMultiSessionEvent(traces, sys, opt);
        });
  }
  rep.CountWork(3 * n * horizon, 3 * n);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!offline.ok() || !online.ok()) {
    std::fprintf(stderr, "thm17: %s%s\n",
                 FormatErrors(offline.errors).c_str(),
                 FormatErrors(online.errors).c_str());
    return 1;
  }

  Table table({"k", "algo", "chg/stage", "ratio vs offline",
               "max delay (<=16)", "mean delay", "peak ovf/B_O",
               "budget"});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t k = ks[static_cast<std::size_t>(i)];
    const Bits bo = 16 * k;
    const std::int64_t off_changes =
        *offline.results[static_cast<std::size_t>(i)];
    for (const bool continuous : {false, true}) {
      const MultiRunResult& r = *online.results[static_cast<std::size_t>(
          2 * i + (continuous ? 1 : 0))];
      const double per_stage =
          static_cast<double>(r.local_changes) /
          static_cast<double>(std::max<std::int64_t>(1, r.stages + 1));
      const double ovf_over_bo =
          r.peak_overflow_allocation.ToDouble() / static_cast<double>(bo);
      table.AddRow(
          {Table::Num(k), continuous ? "continuous" : "phased",
           Table::Num(per_stage, 1),
           Table::Num(static_cast<double>(r.local_changes) /
                          static_cast<double>(off_changes),
                      2),
           Table::Num(r.delay.max_delay()),
           Table::Num(r.delay.MeanDelay(), 2),
           Table::Num(ovf_over_bo, 2),
           continuous ? "5 B_O" : "4 B_O"});
      const std::string label = "k=" + Table::Num(k) + "," +
                                (continuous ? "continuous" : "phased");
      rep.RowMax(label, "max_delay",
                 static_cast<double>(r.delay.max_delay()),
                 static_cast<double>(2 * kDo));
      // Lemma 10 (phased) vs Lemma 16 (continuous) overflow headroom.
      rep.RowMax(label, "peak_ovf_over_bo", ovf_over_bo,
                 continuous ? 3.0 : 2.0);
      // Our per-variable counting of the paper's 3k per-stage events; the
      // continuous variant pays one extra k for its rolling stage ends.
      rep.RowMax(label, "chg_per_stage", per_stage,
                 static_cast<double>((continuous ? 5 : 4) * k));
      rep.RowInfo(label, "ratio_vs_offline",
                  static_cast<double>(r.local_changes) /
                      static_cast<double>(off_changes));
    }
  }

  std::printf("== THM17: continuous vs phased multi-session ==\n");
  std::printf("rotating-hotspot workload, B_O = 16k, D_O=%lld, %lld slots\n\n",
              static_cast<long long>(kDo),
              static_cast<long long>(horizon));
  table.PrintAscii(std::cout);
  rep.Save("thm17_continuous", table);
  std::printf(
      "\nExpected shape (Theorem 17): both algorithms live in the O(k) "
      "changes-per-stage\nregime and meet delay 2 D_O = 16; the continuous "
      "variant's overflow channel may\nreach 3 B_O (Lemma 16) where the "
      "phased stays within 2 B_O (Lemma 10).\n");
  std::fprintf(stderr, "[thm17] %lld cells, %d jobs, %.2fs wall\n",
               static_cast<long long>(3 * n), runner.jobs(), secs);
  return rep.Finish();
}
