// FAULTS-MULTI — unreliable control plane erosion grid for the
// multi-session algorithms (extension of bench_faults; the paper's
// Section 3/4 algorithms renegotiate per session, and every one of those
// renegotiations crosses the same fallible switch software).
//
// Sweep (per-hop loss rate, per-hop denial rate) x algorithm. Every cell
// runs the chosen multi-session system twice over the same per-session
// traces behind the same 3-hop path: once through a fault-free
// RobustMultiSessionAdapter (the Theorem 14/17 baseline at that latency)
// and once through a fault-injected one, with each session on its own
// seed-derived fault lane. The table reports the measured erosion — extra
// delay, lost utilization, extra local changes — next to the merged
// per-session degraded-mode counters.
//
// The (level x algo x kind x seed) grid runs sharded on the batch runner;
// pass --jobs=N (default: hardware concurrency). Results reduce in
// task-index order, so stdout is byte-identical for every N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.h"
#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "net/multi_faults.h"
#include "reporter.h"
#include "runner/batch_runner.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace {
using namespace bwalloc;

constexpr std::int64_t kSessions = 4;
constexpr Bits kBoPerSession = 16;  // B_O = 64
constexpr Time kDo = 8;
constexpr std::int64_t kHops = 3;
constexpr Time kHorizon = 5000;
// Shortened by --quick before the sweep starts; read-only afterwards.
Time g_horizon = kHorizon;

struct FaultLevel {
  double loss;
  double denial;
  Time jitter;
};

const std::vector<FaultLevel> kLevels = {
    {0.00, 0.00, 0}, {0.10, 0.00, 2}, {0.25, 0.00, 2},
    {0.00, 0.10, 2}, {0.10, 0.10, 2},
};
const std::vector<std::string> kAlgos = {"phased", "continuous", "combined"};
const std::vector<MultiWorkloadKind> kKinds = {
    MultiWorkloadKind::kRotatingHotspot, MultiWorkloadKind::kChurn};
const std::vector<std::uint64_t> kSeeds = {31, 32};

Bits DeclaredTotal(const std::string& algo) {
  const Bits bo = kBoPerSession * kSessions;
  return (algo == "phased" ? 4 : algo == "continuous" ? 5 : 7) * bo;
}

std::unique_ptr<MultiSessionSystem> MakeSystem(const std::string& algo) {
  const Bits bo = kBoPerSession * kSessions;
  if (algo == "combined") {
    CombinedParams p;
    p.sessions = kSessions;
    p.offline_bandwidth = bo;
    p.offline_delay = kDo;
    p.offline_utilization = Ratio(1, 2);
    p.window = 2 * kDo;
    return std::make_unique<CombinedOnline>(p);
  }
  MultiSessionParams p;
  p.sessions = kSessions;
  p.offline_bandwidth = bo;
  p.offline_delay = kDo;
  if (algo == "phased") return std::make_unique<PhasedMulti>(p);
  return std::make_unique<ContinuousMulti>(p);
}

struct CellOut {
  Time base_delay = 0;
  Time fault_delay = 0;
  double base_util = 0;
  double fault_util = 0;
  std::int64_t base_changes = 0;
  std::int64_t fault_changes = 0;
  Bits final_queue = 0;
  bool conserved = false;
  bool capped = false;
  FaultStats faults;
};

MultiRunResult RunOne(const std::vector<std::vector<Bits>>& traces,
                      const std::string& algo, const FaultPlan& plan) {
  RobustOptions mopts;
  mopts.fallback_bandwidth = DeclaredTotal(algo);
  RobustMultiSessionAdapter adapter(MakeSystem(algo),
                                    NetworkPath::Uniform(kHops, 1, 1.0), plan,
                                    mopts);
  MultiEngineOptions opt;
  opt.drain_slots =
      mopts.Slack(kHops, plan.max_jitter, 8 * kDo).degraded_delay_slack;
  MultiRunResult r = RunMultiSessionEvent(traces, adapter, opt);
  r.faults = adapter.fault_stats();
  r.per_session_faults = adapter.per_session_fault_stats();
  return r;
}

CellOut RunCell(const TaskContext& ctx) {
  const std::int64_t per_level = static_cast<std::int64_t>(
      kAlgos.size() * kKinds.size() * kSeeds.size());
  const std::int64_t per_algo =
      static_cast<std::int64_t>(kKinds.size() * kSeeds.size());
  const std::int64_t i = ctx.key.index;
  const FaultLevel& level = kLevels[static_cast<std::size_t>(i / per_level)];
  const std::string& algo =
      kAlgos[static_cast<std::size_t>((i % per_level) / per_algo)];
  const MultiWorkloadKind kind = kKinds[static_cast<std::size_t>(
      (i % per_algo) / static_cast<std::int64_t>(kSeeds.size()))];
  const std::uint64_t seed =
      kSeeds[static_cast<std::size_t>(i %
                                      static_cast<std::int64_t>(kSeeds.size()))];

  const auto traces = MultiSessionWorkload(kind, kSessions,
                                           kBoPerSession * kSessions, kDo,
                                           g_horizon, seed);

  FaultPlan plan;
  plan.loss_rate = level.loss;
  plan.denial_rate = level.denial;
  plan.max_jitter = level.jitter;
  plan.seed = ctx.seed;

  const MultiRunResult base = RunOne(traces, algo, FaultPlan{});
  const MultiRunResult faulty = RunOne(traces, algo, plan);

  CellOut out;
  out.base_delay = base.delay.max_delay();
  out.fault_delay = faulty.delay.max_delay();
  out.base_util = base.global_utilization;
  out.fault_util = faulty.global_utilization;
  out.base_changes = base.local_changes;
  out.fault_changes = faulty.local_changes;
  out.final_queue = faulty.final_queue;
  out.conserved =
      faulty.total_arrivals == faulty.total_delivered + faulty.final_queue;
  // Stale per-lane commits mix intents from different control-model slots
  // and a fallback lane drains at the declared total, so the sound cap is
  // k times the declared total, not the Theorem 14/17 cap itself.
  out.capped = faulty.peak_total_allocation <=
               Bandwidth::FromBitsPerSlot(kSessions * DeclaredTotal(algo));
  out.faults = faulty.faults;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("faults_multi", &argc, argv);
  if (rep.quick()) g_horizon = 1500;
  BatchRunner runner(BatchOptions{rep.jobs(), 0});

  const std::int64_t per_level = static_cast<std::int64_t>(
      kAlgos.size() * kKinds.size() * kSeeds.size());
  const std::int64_t cells =
      static_cast<std::int64_t>(kLevels.size()) * per_level;

  const auto start = std::chrono::steady_clock::now();
  BatchResult<CellOut> batch;
  {
    ScopedTimer timer(rep.profile(), "sweep");
    batch = runner.Map<CellOut>("faults_multi", cells, [](const TaskContext& ctx) {
      return RunCell(ctx);
    });
  }
  rep.CountWork(2 * cells * g_horizon * kSessions, cells);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!batch.ok()) {
    std::fprintf(stderr, "faults_multi: %s\n",
                 FormatErrors(batch.errors).c_str());
    return 1;
  }

  Table table({"loss/hop", "denial/hop", "algo", "max delay", "delay+",
               "util", "util-", "chg", "chg+", "losses", "denials",
               "timeouts", "retries", "fallbacks", "leftover"});
  bool all_conserved = true;
  bool all_capped = true;
  // Reduce grouped by (level, algo) in task-index order.
  for (std::size_t l = 0; l < kLevels.size(); ++l) {
    for (std::size_t a = 0; a < kAlgos.size(); ++a) {
      const std::int64_t per_algo =
          static_cast<std::int64_t>(kKinds.size() * kSeeds.size());
      Time worst_delay = 0;
      Time worst_erosion = 0;
      double min_util = 1.0;
      double worst_util_loss = 0;
      std::int64_t changes = 0;
      std::int64_t extra_changes = 0;
      Bits leftover = 0;
      FaultStats group;
      const std::int64_t first =
          static_cast<std::int64_t>(l) * per_level +
          static_cast<std::int64_t>(a) * per_algo;
      for (std::int64_t i = first; i < first + per_algo; ++i) {
        const CellOut& c = *batch.results[static_cast<std::size_t>(i)];
        worst_delay = std::max(worst_delay, c.fault_delay);
        worst_erosion = std::max(worst_erosion, c.fault_delay - c.base_delay);
        min_util = std::min(min_util, c.fault_util);
        worst_util_loss =
            std::max(worst_util_loss, c.base_util - c.fault_util);
        changes += c.fault_changes;
        extra_changes += c.fault_changes - c.base_changes;
        leftover += c.final_queue;
        group.Merge(c.faults);
        all_conserved = all_conserved && c.conserved;
        all_capped = all_capped && c.capped;
      }
      table.AddRow({Table::Num(kLevels[l].loss, 2),
                    Table::Num(kLevels[l].denial, 2), kAlgos[a],
                    Table::Num(worst_delay), Table::Num(worst_erosion),
                    Table::Num(min_util, 3), Table::Num(worst_util_loss, 3),
                    Table::Num(changes), Table::Num(extra_changes),
                    Table::Num(group.losses), Table::Num(group.denials),
                    Table::Num(group.timeouts), Table::Num(group.retries),
                    Table::Num(group.fallbacks), Table::Num(leftover)});
      const std::string label = "loss=" + Table::Num(kLevels[l].loss, 2) +
                                ",denial=" + Table::Num(kLevels[l].denial, 2) +
                                "," + kAlgos[a];
      rep.RowInfo(label, "max_delay", static_cast<double>(worst_delay));
      rep.RowInfo(label, "delay_erosion", static_cast<double>(worst_erosion));
      rep.RowInfo(label, "util_loss", worst_util_loss);
      rep.RowInfo(label, "leftover_bits", static_cast<double>(leftover));
    }
  }
  // The two hard invariants (per-session graceful degradation never loses
  // bits; committed totals stay within the stale-commit-sound cap) double
  // as the bench's machine-readable pass criteria.
  rep.RowMax("all", "unconserved_cells", all_conserved ? 0.0 : 1.0, 0.0);
  rep.RowMax("all", "cap_violations", all_capped ? 0.0 : 1.0, 0.0);

  std::printf("== FAULTS-MULTI: per-session control-plane degradation ==\n");
  std::printf("k=%lld B_O=%lld D_O=%lld hops=%lld; %zu kinds x %zu seeds, "
              "%lld slots; erosion vs the fault-free adapter on the same "
              "path\n\n",
              static_cast<long long>(kSessions),
              static_cast<long long>(kBoPerSession * kSessions),
              static_cast<long long>(kDo), static_cast<long long>(kHops),
              kKinds.size(), kSeeds.size(), static_cast<long long>(g_horizon));
  table.PrintAscii(std::cout);
  rep.Save("fault_degradation_multi", table);
  std::printf("\ninvariants: bits conserved %s, committed totals bounded "
              "%s\n",
              all_conserved ? "yes" : "NO", all_capped ? "yes" : "NO");
  std::printf(
      "Expected shape: delay and utilization erode smoothly with the fault "
      "rate\nfor all three algorithms (each session keeps serving at its "
      "last committed\nallocation); denial-heavy rows lean on per-session "
      "fallback drains to keep\n'leftover' at 0; no row loses bits.\n");
  std::fprintf(stderr, "[faults_multi] %lld cells, %d jobs, %.2fs wall\n",
               static_cast<long long>(cells), runner.jobs(), secs);
  return rep.Finish();
}
