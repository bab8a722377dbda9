#include "analysis/fairness.h"

#include <gtest/gtest.h>

#include "core/multi_phased.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

TEST(JainIndex, KnownVectors) {
  EXPECT_DOUBLE_EQ(JainIndex({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({1, 0, 0, 0}), 0.25);
  EXPECT_NEAR(JainIndex({4, 2}), 36.0 / (2 * 20.0), 1e-12);
  EXPECT_DOUBLE_EQ(JainIndex({0, 0}), 1.0);
  EXPECT_THROW(JainIndex({}), std::invalid_argument);
  EXPECT_THROW(JainIndex({-1.0}), std::invalid_argument);
}

TEST(Fairness, BalancedLoadIsNearPerfectlyFair) {
  MultiSessionParams p;
  p.sessions = 4;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  PhasedMulti sys(p);
  const auto traces =
      MultiSessionWorkload(MultiWorkloadKind::kBalanced, 4, 64, 8, 4000, 21);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_GT(ThroughputFairness(r), 0.95);
  EXPECT_GT(DelayFairness(r), 0.9);
}

TEST(Fairness, SkewedLoadHasSkewedThroughputButFairDelay) {
  MultiSessionParams p;
  p.sessions = 4;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  PhasedMulti sys(p);
  const auto traces =
      MultiSessionWorkload(MultiWorkloadKind::kSkewed, 4, 64, 8, 4000, 22);
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  // Demand itself is Zipf, so throughput fairness is low by construction…
  EXPECT_LT(ThroughputFairness(r), 0.9);
  // …but the algorithm keeps DELAY fair: every session gets its bound.
  EXPECT_GT(DelayFairness(r), 0.8);
}

}  // namespace
}  // namespace bwalloc
