#include "core/multi_continuous.h"

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

TEST(ContinuousMulti, DeclaredTotalIsFiveBo) {
  ContinuousMulti sys(TestParams());
  EXPECT_EQ(sys.DeclaredTotalBandwidth(), Bandwidth::FromBitsPerSlot(5 * 64));
}

TEST(ContinuousMulti, TestFiresOnArrivalNotOnPhase) {
  const MultiSessionParams p = TestParams();
  ContinuousMulti sys(p);
  std::vector<Bits> arrivals(4, 0);
  // Slam session 0 in slot 0: the overload test runs immediately.
  arrivals[0] = 200;  // share * D_O = 16 * 8 = 128 < 200: overloaded
  sys.Step(0, arrivals);
  EXPECT_GT(sys.channels().regular_bw(0),
            Bandwidth::FromBitsPerSlot(64) / 4);
  EXPECT_GT(sys.channels().overflow_bw(0), Bandwidth::Zero());
  // The backlog moved to the overflow queue.
  EXPECT_EQ(sys.channels().regular_queue_size(0), 0);
}

TEST(ContinuousMulti, ReduceReturnsTheLeaseAfterDo) {
  const MultiSessionParams p = TestParams();
  ContinuousMulti sys(p);
  std::vector<Bits> arrivals(4, 0);
  arrivals[0] = 200;
  sys.Step(0, arrivals);
  const Bandwidth leased = sys.channels().overflow_bw(0);
  EXPECT_GT(leased, Bandwidth::Zero());
  std::vector<Bits> quiet(4, 0);
  for (Time t = 1; t < p.offline_delay; ++t) sys.Step(t, quiet);
  EXPECT_EQ(sys.channels().overflow_bw(0), leased) << "lease ended early";
  sys.Step(p.offline_delay, quiet);
  EXPECT_TRUE(sys.channels().overflow_bw(0).is_zero())
      << "REDUCE did not fire after D_O slots";
  // The shunted bits drained within the lease.
  EXPECT_EQ(sys.channels().overflow_queue_size(0), 0);
}

TEST(ContinuousMulti, RotatingHotspotBoundsHold) {
  const MultiSessionParams p = TestParams();
  ContinuousMulti sys(p);
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, 4, 64, 8, 6000, 31);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_LE(r.delay.max_delay(), 16);  // D_A = 2 D_O (Lemma 15)
  EXPECT_EQ(r.final_queue, 0);
  // Lemma 16: overflow channel <= 3 B_O; regular <= 2 B_O (+transient).
  EXPECT_LE(r.peak_overflow_allocation.ToDouble(), 3.0 * 64 + 1e-6);
  EXPECT_LE(r.peak_regular_allocation.ToDouble(), 2.0 * 64 + 64 + 1e-6);
  EXPECT_EQ(r.global_changes, 0);
}

TEST(ContinuousMulti, ChurnWorkloadConservesBits) {
  ContinuousMulti sys(TestParams());
  const auto traces =
      MultiSessionWorkload(MultiWorkloadKind::kChurn, 4, 64, 8, 4000, 32);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_EQ(r.total_arrivals, r.total_delivered);
  EXPECT_LE(r.delay.max_delay(), 16);
}

TEST(ContinuousMulti, FifoDisciplineKeepsDelayBound) {
  ContinuousMulti sys(TestParams(), ServiceDiscipline::kFifoCombined);
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, 4, 64, 8, 4000, 33);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_LE(r.delay.max_delay(), 16);
  EXPECT_EQ(r.final_queue, 0);
}

}  // namespace
}  // namespace bwalloc
