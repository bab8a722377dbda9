// ISP gateway scenario (Section 3's motivation): "an IP provider that,
// given a fixed amount of bandwidth, needs to serve many sessions providing
// them with a bounded latency."
//
// Eight customers share one B_O = 128 bits/slot uplink; the hot customer
// rotates as office hours move around. Compare the phased (Fig. 4) and
// continuous (Fig. 5) multi-session algorithms against the clairvoyant
// offline re-allocator.
#include <cstdio>
#include <iostream>

#include "analysis/fairness.h"
#include "analysis/sla.h"
#include "analysis/table.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "offline/offline_multi.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

using namespace bwalloc;

int main() {
  const std::int64_t customers = 8;
  const Bits uplink = 128;   // B_O
  const Time sla_delay = 10;  // D_O: the provider's internal target

  const auto traffic = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, customers, uplink, sla_delay,
      /*horizon=*/20000, /*seed=*/42);

  MultiSessionParams params;
  params.sessions = customers;
  params.offline_bandwidth = uplink;
  params.offline_delay = sla_delay;

  MultiEngineOptions options;
  options.drain_slots = 4 * sla_delay;

  Table table({"allocator", "bandwidth pool", "max delay", "p99 delay",
               "per-customer changes", "stages", "delay fairness",
               "SLA"});

  SlaContract sla;
  sla.max_delay = 2 * sla_delay;
  sla.p99_delay = 2 * sla_delay;

  {
    PhasedMulti phased(params, ServiceDiscipline::kFifoCombined);
    const MultiRunResult r = RunMultiSessionEvent(traffic, phased, options);
    table.AddRow({"phased (Fig.4)", "4 B_O",
                  Table::Num(r.delay.max_delay()),
                  Table::Num(r.delay.Percentile(0.99)),
                  Table::Num(r.local_changes), Table::Num(r.stages),
                  Table::Num(DelayFairness(r), 3),
                  EvaluateSla(r, sla).Conformant() ? "pass" : "FAIL"});
  }
  {
    ContinuousMulti continuous(params, ServiceDiscipline::kFifoCombined);
    const MultiRunResult r = RunMultiSessionEvent(traffic, continuous, options);
    table.AddRow({"continuous (Fig.5)", "5 B_O",
                  Table::Num(r.delay.max_delay()),
                  Table::Num(r.delay.Percentile(0.99)),
                  Table::Num(r.local_changes), Table::Num(r.stages),
                  Table::Num(DelayFairness(r), 3),
                  EvaluateSla(r, sla).Conformant() ? "pass" : "FAIL"});
  }
  {
    const MultiOfflineSchedule offline =
        GreedyMultiSchedule(traffic, uplink, sla_delay);
    if (offline.feasible) {
      const MultiScheduleCheck check =
          ValidateMultiSchedule(traffic, offline, uplink);
      table.AddRow({"offline (clairvoyant)", "1 B_O",
                    Table::Num(check.max_delay), "-",
                    Table::Num(offline.local_changes()),
                    Table::Num(offline.segments()), "-", "-"});
    }
  }

  std::printf("ISP gateway: %lld customers on a %lld bits/slot uplink, "
              "delay SLA %lld slots (online: %lld)\n\n",
              static_cast<long long>(customers),
              static_cast<long long>(uplink),
              static_cast<long long>(sla_delay),
              static_cast<long long>(2 * sla_delay));
  table.PrintAscii(std::cout);
  std::printf(
      "\nThe online allocators meet the 2 D_O SLA without clairvoyance, at "
      "O(k) times\nthe offline's re-allocations (Theorems 14/17) and a "
      "constant-factor bandwidth\npremium — the price of not knowing which "
      "customer gets hot next.\n");
  return 0;
}
