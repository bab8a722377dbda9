#include "core/multi_phased.h"

#include <gtest/gtest.h>

#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

MultiSessionParams TestParams() {
  MultiSessionParams p;
  p.sessions = 4;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  return p;
}

TEST(MultiSessionParams, ValidateRejectsBadInputs) {
  MultiSessionParams p = TestParams();
  p.sessions = 1;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = TestParams();
  p.offline_bandwidth = 0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = TestParams();
  p.offline_delay = 0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  EXPECT_NO_THROW(TestParams().Validate());
}

TEST(PhasedMulti, InitialAllocationIsEqualSplit) {
  const MultiSessionParams p = TestParams();
  PhasedMulti sys(p);
  std::vector<Bits> arrivals(4, 0);
  sys.Step(0, arrivals);
  const Bandwidth share = Bandwidth::FromBitsPerSlot(64) / 4;
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sys.channels().regular_bw(i), share);
    EXPECT_TRUE(sys.channels().overflow_bw(i).is_zero());
  }
  EXPECT_EQ(sys.DeclaredTotalBandwidth(), Bandwidth::FromBitsPerSlot(4 * 64));
}

TEST(PhasedMulti, BalancedLoadNeedsNoStageEnd) {
  const MultiSessionParams p = TestParams();
  PhasedMulti sys(p);
  const auto traces = MultiSessionWorkload(MultiWorkloadKind::kBalanced, 4,
                                           64, 8, 3000, 21);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  // A static offline split serves balanced load, so the online should not
  // exceed the 2 B_O regular budget: zero completed stages.
  EXPECT_EQ(r.stages, 0);
  EXPECT_LE(r.delay.max_delay(), 16);
  EXPECT_EQ(r.final_queue, 0);
}

TEST(PhasedMulti, RotatingHotspotForcesStagesButBoundsHold) {
  const MultiSessionParams p = TestParams();
  PhasedMulti sys(p);
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, 4, 64, 8, 6000, 22);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_LE(r.delay.max_delay(), 16);   // D_A = 2 D_O (Lemma 11)
  EXPECT_EQ(r.final_queue, 0);
  // Resource bounds: regular <= 2 B_O (+ the k increments of the boundary
  // slot before the reset fires), overflow <= 2 B_O (Lemma 10), total <=
  // 4 B_O with the same transient.
  EXPECT_LE(r.peak_regular_allocation.ToDouble(), 2.0 * 64 + 64 + 1e-6);
  EXPECT_LE(r.peak_overflow_allocation.ToDouble(), 2.0 * 64 + 1e-6);
  EXPECT_GE(r.stages, 1) << "rotating hotspot must defeat a static split";
  // Lemma 12's 3k counts the paper's change events; our per-variable
  // transition counter additionally sees the k per-stage regular resets and
  // the overflow zeroings, so the per-stage budget is 4k + O(1).
  const double budget = (4.0 * 4 + 6.0) * static_cast<double>(r.stages + 1);
  EXPECT_LE(static_cast<double>(r.local_changes), budget);
  EXPECT_EQ(r.global_changes, 0) << "declared total bandwidth is constant";
}

TEST(PhasedMulti, OverflowDrainsWithinOnePhase) {
  const MultiSessionParams p = TestParams();
  PhasedMulti sys(p);
  // One session slams its share; after the first phase boundary its backlog
  // moves to the overflow channel sized to drain within D_O slots.
  std::vector<std::vector<Bits>> traces(
      4, std::vector<Bits>(static_cast<std::size_t>(3 * p.offline_delay), 0));
  for (Time t = 0; t < p.offline_delay; ++t) {
    traces[0][static_cast<std::size_t>(t)] = 30;  // >> share*D_O = 16*8/8
  }
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_EQ(r.final_queue, 0);
  EXPECT_LE(r.delay.max_delay(), 16);
}

TEST(PhasedMulti, FifoDisciplineKeepsDelayBound) {
  const MultiSessionParams p = TestParams();
  PhasedMulti sys(p, ServiceDiscipline::kFifoCombined);
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, 4, 64, 8, 4000, 23);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  // The Remark after Theorem 14: FIFO never worsens the worst-case delay.
  EXPECT_LE(r.delay.max_delay(), 16);
  EXPECT_EQ(r.final_queue, 0);
}

TEST(PhasedMulti, StepRejectsWrongArity) {
  PhasedMulti sys(TestParams());
  std::vector<Bits> wrong(3, 0);
  EXPECT_THROW(sys.Step(0, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace bwalloc
