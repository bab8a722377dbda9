// The umbrella header compiles standalone and exposes the whole public
// surface — the "does a downstream user's first include work" test.
#include "bwalloc.h"

#include <gtest/gtest.h>

namespace bwalloc {
namespace {

TEST(PublicApi, EndToEndThroughTheUmbrellaHeaderOnly) {
  // Generate traffic, run the paper's algorithm, compare offline, price it
  // — using nothing but bwalloc.h.
  SingleSessionParams params;
  params.max_bandwidth = 64;
  params.max_delay = 16;
  params.min_utilization = Ratio(1, 6);
  params.window = 16;

  const auto trace = SingleSessionWorkload(
      "onoff", params.offline_bandwidth(), params.offline_delay(), 2000, 8);

  SingleSessionOnline algorithm(params);
  SingleEngineOptions options;
  options.drain_slots = 32;
  options.record_allocation_trace = true;
  const SingleRunResult run = RunSingleSession(trace, algorithm, options);
  EXPECT_LE(run.delay.max_delay(), params.max_delay);

  OfflineParams offline;
  offline.max_bandwidth = params.offline_bandwidth();
  offline.delay = params.offline_delay();
  offline.utilization = params.offline_utilization();
  offline.window = params.window;
  const OfflineSchedule schedule = GreedyMinChangeSchedule(trace, offline);
  EXPECT_TRUE(schedule.feasible);

  const CostModel pricing{1.0, 500.0};
  EXPECT_GT(pricing.Cost(run), 0.0);

  const HoldingTimeStats holdings(run.allocation_trace);
  EXPECT_EQ(holdings.holdings(), run.changes + 1);

  SlaContract contract;
  contract.max_delay = params.max_delay;
  EXPECT_TRUE(EvaluateSla(run, contract).Conformant());
}

TEST(PublicApi, MultiSessionSurfaceIsComplete) {
  MultiSessionParams p;
  p.sessions = 3;
  p.offline_bandwidth = 48;
  p.offline_delay = 8;
  PhasedMulti phased(p);
  ContinuousMulti continuous(p);
  const auto traces = MultiSessionWorkload(MultiWorkloadKind::kBalanced, 3,
                                           48, 8, 500, 9);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  EXPECT_EQ(RunMultiSessionEvent(traces, phased, opt).final_queue, 0);
  EXPECT_EQ(RunMultiSessionEvent(traces, continuous, opt).final_queue, 0);
}

}  // namespace
}  // namespace bwalloc
