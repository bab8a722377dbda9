#include "core/combined.h"

#include <gtest/gtest.h>

#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

CombinedParams TestParams() {
  CombinedParams p;
  p.sessions = 4;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  p.offline_utilization = Ratio(1, 2);
  p.window = 8;
  return p;
}

TEST(CombinedParams, DerivedQuantities) {
  const CombinedParams p = TestParams();
  EXPECT_EQ(p.online_bandwidth(), 7 * 64);
  EXPECT_EQ(p.online_delay(), 16);
  EXPECT_EQ(p.online_utilization(), Ratio(1, 6));
  EXPECT_NO_THROW(p.Validate());
}

TEST(CombinedParams, ValidateRejectsBadInputs) {
  CombinedParams p = TestParams();
  p.offline_bandwidth = 65;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = TestParams();
  p.offline_utilization = Ratio(3, 2);
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = TestParams();
  p.window = 2;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(CombinedOnline, BonTracksAggregateDemand) {
  const CombinedParams p = TestParams();
  CombinedOnline sys(p);
  // Aggregate 32 bits/slot across 4 sessions: B_on should climb to the
  // smallest power of two >= ~32 and stop there.
  std::vector<Bits> arrivals(4, 8);
  for (Time t = 0; t < 200; ++t) sys.Step(t, arrivals);
  EXPECT_GE(sys.b_on(), 32);
  EXPECT_LE(sys.b_on(), 64);
}

TEST(CombinedOnline, SilenceAfterLoadTriggersGlobalReset) {
  const CombinedParams p = TestParams();
  CombinedOnline sys(p);
  std::vector<Bits> busy(4, 8);
  std::vector<Bits> quiet(4, 0);
  Time t = 0;
  for (; t < 100; ++t) sys.Step(t, busy);
  for (; t < 200; ++t) sys.Step(t, quiet);
  EXPECT_GE(sys.global_stages(), 1);
  // After the reset the global overflow queue drained.
  EXPECT_EQ(sys.ExtraQueuedBits(), 0);
}

TEST(CombinedOnline, DeclaredTotalWithinSevenBo) {
  const CombinedParams p = TestParams();
  CombinedOnline sys(p);
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, 4, 64, 8, 4000, 41);
  MultiEngineOptions opt;
  opt.drain_slots = 64;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  // B_on <= 2 B_O on feasible input, so 4 B_on + 2 B_O <= 10 B_O in the
  // worst transient; in steady state it stays within B_A = 7 B_O. Check
  // the declared reservation never exceeded 4*2B_O + 2B_O.
  EXPECT_LE(sys.DeclaredTotalBandwidth().ToDouble(),
            (4.0 * 2 + 2) * 64 + 1e-6);
  EXPECT_EQ(r.final_queue, 0);
  EXPECT_EQ(r.total_arrivals, r.total_delivered);
}

TEST(CombinedOnline, DelayBoundedOnSuiteWorkloads) {
  for (const MultiWorkloadKind kind :
       {MultiWorkloadKind::kBalanced, MultiWorkloadKind::kRotatingHotspot,
        MultiWorkloadKind::kChurn, MultiWorkloadKind::kSkewed}) {
    SCOPED_TRACE(ToString(kind));
    const CombinedParams p = TestParams();
    CombinedOnline sys(p);
    const auto traces = MultiSessionWorkload(kind, 4, 64, 8, 4000, 42);
    MultiEngineOptions opt;
    opt.drain_slots = 64;
    const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
    // Section 4 claims D_A = 2 D_O; our slotted realization re-times
    // overflow drains on local-stage restarts, so allow one extra D_O.
    EXPECT_LE(r.delay.max_delay(), 3 * p.offline_delay);
    EXPECT_EQ(r.final_queue, 0);
  }
}

TEST(CombinedOnline, ContinuousInnerMeetsSameGuarantees) {
  for (const MultiWorkloadKind kind :
       {MultiWorkloadKind::kRotatingHotspot, MultiWorkloadKind::kChurn}) {
    SCOPED_TRACE(ToString(kind));
    CombinedParams p = TestParams();
    p.continuous_inner = true;
    EXPECT_EQ(p.online_bandwidth(), 8 * 64);
    CombinedOnline sys(p);
    const auto traces = MultiSessionWorkload(kind, 4, 64, 8, 4000, 45);
    MultiEngineOptions opt;
    opt.drain_slots = 64;
    const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
    EXPECT_LE(r.delay.max_delay(), 3 * p.offline_delay);
    EXPECT_EQ(r.final_queue, 0);
    EXPECT_EQ(r.total_arrivals, r.total_delivered);
  }
}

TEST(CombinedOnline, ContinuousInnerReactsWithoutPhaseBoundaries) {
  CombinedParams p = TestParams();
  p.continuous_inner = true;
  CombinedOnline continuous(p);
  CombinedOnline phased(TestParams());
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, 4, 64, 8, 4000, 46);
  MultiEngineOptions opt;
  opt.drain_slots = 64;
  const MultiRunResult rc = RunMultiSessionEvent(traces, continuous, opt);
  const MultiRunResult rp = RunMultiSessionEvent(traces, phased, opt);
  // Reacting per arrival instead of per D_O boundary buys lower typical
  // delay (the Fig. 5 pitch), at a bandwidth budget of 8 B_O vs 7 B_O.
  EXPECT_LE(rc.delay.MeanDelay(), rp.delay.MeanDelay() + 0.5);
}

TEST(CombinedOnline, GlobalChangesTrackBonLadder) {
  const CombinedParams p = TestParams();
  CombinedOnline sys(p);
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, 4, 64, 8, 6000, 43);
  MultiEngineOptions opt;
  opt.drain_slots = 64;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  // Global changes are transitions of 4*B_on + 2*B_O: at most
  // log2(2 B_O) + 1 per global stage.
  const double per_stage = 8.0;  // log2(128) + 1
  EXPECT_LE(static_cast<double>(r.global_changes),
            per_stage * static_cast<double>(r.global_stages + 1));
}

}  // namespace
}  // namespace bwalloc
