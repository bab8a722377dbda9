// FAULTS — unreliable control plane degradation sweep (extension; the
// paper's Section 1 premise is that renegotiation invokes software in
// every switch on the path — software that can drop the request, deny the
// admission, or answer late).
//
// Sweep (per-hop loss rate, per-hop denial rate) x path length. Every cell
// runs the Fig. 3 algorithm twice over the same trace behind the same
// path: once through a fault-free RobustSignalingAdapter (the Theorem 6
// baseline at that latency) and once through a fault-injected one. The
// table reports the measured erosion — extra delay, lost utilization,
// extra changes — next to the degraded-mode counters (losses, denials,
// timeouts, retries, fallback drains).
//
// The (faults x hops x workload x seed) grid runs sharded on the batch
// runner; pass --jobs=N (default: hardware concurrency). Results reduce
// in task-index order, so stdout is byte-identical for every N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>

#include "analysis/table.h"
#include "core/single_session.h"
#include "net/faults.h"
#include "reporter.h"
#include "runner/batch_runner.h"
#include "sim/engine_single.h"
#include "traffic/workload_suite.h"

namespace {
using namespace bwalloc;

constexpr Bits kBa = 64;
constexpr Time kDa = 16;  // D_O = 8
constexpr Time kW = 16;
constexpr Time kHorizon = 6000;
// Shortened by --quick before the sweep starts; read-only afterwards.
Time g_horizon = kHorizon;

struct FaultLevel {
  double loss;
  double denial;
  Time jitter;
};

const std::vector<FaultLevel> kLevels = {
    {0.00, 0.00, 0}, {0.10, 0.00, 2}, {0.25, 0.00, 2}, {0.00, 0.10, 2},
    {0.00, 0.25, 2}, {0.10, 0.10, 2}, {0.25, 0.25, 2},
};
const std::vector<std::int64_t> kHops = {2, 6};
const std::vector<std::string> kWorkloads = {"onoff", "mixed"};
const std::vector<std::uint64_t> kSeeds = {21, 22};

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

SingleRunResult RunOne(const std::vector<Bits>& trace, std::int64_t hops,
                       const FaultPlan& plan, FaultStats* stats) {
  SingleSessionParams p;
  p.max_bandwidth = kBa;
  p.max_delay = kDa;
  p.min_utilization = Ratio(1, 6);
  p.window = kW;
  RobustOptions ropts;
  ropts.fallback_bandwidth = kBa;
  RobustSignalingAdapter adapter(std::make_unique<SingleSessionOnline>(p),
                                 NetworkPath::Uniform(hops, 1, 1.0), plan,
                                 ropts);
  SingleEngineOptions opt;
  opt.drain_slots =
      ropts.Slack(hops, plan.max_jitter, 4 * kDa).degraded_delay_slack;
  SingleRunResult r = RunSingleSession(trace, adapter, opt);
  r.faults = adapter.fault_stats();
  if (stats != nullptr) *stats = r.faults;
  return r;
}

CellOut RunCell(const TaskContext& ctx) {
  const std::int64_t per_level = static_cast<std::int64_t>(
      kHops.size() * kWorkloads.size() * kSeeds.size());
  const std::int64_t per_hop =
      static_cast<std::int64_t>(kWorkloads.size() * kSeeds.size());
  const std::int64_t i = ctx.key.index;
  const FaultLevel& level = kLevels[static_cast<std::size_t>(i / per_level)];
  const std::int64_t hops =
      kHops[static_cast<std::size_t>((i % per_level) / per_hop)];
  const std::string& workload = kWorkloads[static_cast<std::size_t>(
      (i % per_hop) / static_cast<std::int64_t>(kSeeds.size()))];
  const std::uint64_t seed =
      kSeeds[static_cast<std::size_t>(i %
                                      static_cast<std::int64_t>(kSeeds.size()))];

  const auto trace =
      SingleSessionWorkload(workload, kBa, kDa / 2, g_horizon, seed);

  FaultPlan plan;
  plan.loss_rate = level.loss;
  plan.denial_rate = level.denial;
  plan.max_jitter = level.jitter;
  plan.seed = ctx.seed;

  const SingleRunResult base = RunOne(trace, hops, FaultPlan{}, nullptr);
  FaultStats stats;
  const SingleRunResult faulty = RunOne(trace, hops, plan, &stats);

  CellOut out;
  out.base_delay = base.delay.max_delay();
  out.fault_delay = faulty.delay.max_delay();
  out.base_util = base.global_utilization;
  out.fault_util = faulty.global_utilization;
  out.base_changes = base.changes;
  out.fault_changes = faulty.changes;
  out.final_queue = faulty.final_queue;
  out.conserved =
      faulty.total_arrivals == faulty.total_delivered + faulty.final_queue;
  out.capped = faulty.peak_allocation <= Bandwidth::FromBitsPerSlot(kBa);
  out.faults = stats;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("faults", &argc, argv);
  if (rep.quick()) g_horizon = 1500;
  BatchRunner runner(BatchOptions{rep.jobs(), 0});

  const std::int64_t per_level = static_cast<std::int64_t>(
      kHops.size() * kWorkloads.size() * kSeeds.size());
  const std::int64_t cells =
      static_cast<std::int64_t>(kLevels.size()) * per_level;

  const auto start = std::chrono::steady_clock::now();
  BatchResult<CellOut> batch;
  {
    ScopedTimer timer(rep.profile(), "sweep");
    batch = runner.Map<CellOut>(
        "faults", cells, [](const TaskContext& ctx) { return RunCell(ctx); });
  }
  rep.CountWork(2 * cells * g_horizon, cells);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!batch.ok()) {
    std::fprintf(stderr, "faults: %s\n", FormatErrors(batch.errors).c_str());
    return 1;
  }

  Table table({"loss/hop", "denial/hop", "hops", "max delay", "delay+",
               "util", "util-", "chg", "chg+", "losses", "denials",
               "timeouts", "retries", "fallbacks", "leftover"});
  bool all_conserved = true;
  bool all_capped = true;
  // Reduce grouped by (level, hops) in task-index order.
  for (std::size_t l = 0; l < kLevels.size(); ++l) {
    for (std::size_t h = 0; h < kHops.size(); ++h) {
      const std::int64_t per_hop =
          static_cast<std::int64_t>(kWorkloads.size() * kSeeds.size());
      Time worst_delay = 0;
      Time worst_erosion = 0;
      double min_util = 1.0;
      double worst_util_loss = 0;
      std::int64_t changes = 0;
      std::int64_t extra_changes = 0;
      Bits leftover = 0;
      FaultStats group;
      const std::int64_t first =
          static_cast<std::int64_t>(l) * static_cast<std::int64_t>(
              kHops.size()) * per_hop +
          static_cast<std::int64_t>(h) * per_hop;
      for (std::int64_t i = first; i < first + per_hop; ++i) {
        const CellOut& c = *batch.results[static_cast<std::size_t>(i)];
        worst_delay = std::max(worst_delay, c.fault_delay);
        worst_erosion =
            std::max(worst_erosion, c.fault_delay - c.base_delay);
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
                    Table::Num(kLevels[l].denial, 2), Table::Num(kHops[h]),
                    Table::Num(worst_delay), Table::Num(worst_erosion),
                    Table::Num(min_util, 3), Table::Num(worst_util_loss, 3),
                    Table::Num(changes), Table::Num(extra_changes),
                    Table::Num(group.losses), Table::Num(group.denials),
                    Table::Num(group.timeouts), Table::Num(group.retries),
                    Table::Num(group.fallbacks), Table::Num(leftover)});
      const std::string label = "loss=" + Table::Num(kLevels[l].loss, 2) +
                                ",denial=" + Table::Num(kLevels[l].denial, 2) +
                                ",hops=" + Table::Num(kHops[h]);
      rep.RowInfo(label, "max_delay", static_cast<double>(worst_delay));
      rep.RowInfo(label, "delay_erosion",
                  static_cast<double>(worst_erosion));
      rep.RowInfo(label, "util_loss", worst_util_loss);
      rep.RowInfo(label, "leftover_bits", static_cast<double>(leftover));
    }
  }
  // The two hard invariants (graceful degradation never loses bits or
  // exceeds B_A) double as the bench's machine-readable pass criteria.
  rep.RowMax("all", "unconserved_cells", all_conserved ? 0.0 : 1.0, 0.0);
  rep.RowMax("all", "cap_violations", all_capped ? 0.0 : 1.0, 0.0);

  std::printf("== FAULTS: control-plane loss/denial degradation ==\n");
  std::printf("B_A=%lld D_A=%lld U_A=1/6 W=%lld; %s x %zu seeds, %lld "
              "slots; erosion vs the fault-free adapter on the same path\n\n",
              static_cast<long long>(kBa), static_cast<long long>(kDa),
              static_cast<long long>(kW), "onoff+mixed", kSeeds.size(),
              static_cast<long long>(g_horizon));
  table.PrintAscii(std::cout);
  rep.Save("fault_degradation", table);
  std::printf("\ninvariants: bits conserved %s, allocation cap respected "
              "%s\n",
              all_conserved ? "yes" : "NO", all_capped ? "yes" : "NO");
  std::printf(
      "Expected shape: delay and utilization erode smoothly with the fault "
      "rate\n(graceful degradation — the session keeps serving at the last "
      "committed\nallocation); denial-heavy rows show fallback drains "
      "keeping 'leftover' at 0;\nno row loses bits or exceeds B_A.\n");
  std::fprintf(stderr, "[faults] %lld cells, %d jobs, %.2fs wall\n",
               static_cast<long long>(cells), runner.jobs(), secs);
  return rep.Finish();
}
