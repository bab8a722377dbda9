// Weighted session shares (extension): known-skewed tenants get base
// allocations proportional to integer weights instead of the paper's
// uniform B_O/k, keeping every Theorem 14/17 guarantee.
#include <gtest/gtest.h>

#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

MultiSessionParams WeightedParams() {
  MultiSessionParams p;
  p.sessions = 4;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  // Zipf-ish: matches the kSkewed workload's 1/i demand profile.
  p.weights = {12, 6, 4, 3};
  return p;
}

TEST(WeightedMulti, ValidateRejectsBadWeights) {
  MultiSessionParams p = WeightedParams();
  p.weights = {1, 2, 3};  // wrong arity
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = WeightedParams();
  p.weights = {1, 2, 3, 0};  // zero weight
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  EXPECT_NO_THROW(WeightedParams().Validate());
}

TEST(WeightedMulti, SharesAreProportional) {
  const MultiSessionParams p = WeightedParams();
  // Sum of weights = 25; B_O = 64.
  EXPECT_EQ(p.Share(0).raw(), Bandwidth::FromBitsPerSlot(64).raw() / 25 * 12);
  EXPECT_EQ(p.Share(3).raw(), Bandwidth::FromBitsPerSlot(64).raw() / 25 * 3);
  // Total never exceeds B_O.
  Bandwidth sum;
  for (std::int64_t i = 0; i < 4; ++i) sum += p.Share(i);
  EXPECT_LE(sum, Bandwidth::FromBitsPerSlot(64));
}

TEST(WeightedMulti, InitialAllocationFollowsWeights) {
  PhasedMulti sys(WeightedParams());
  std::vector<Bits> zero(4, 0);
  sys.Step(0, zero);
  EXPECT_GT(sys.channels().regular_bw(0), sys.channels().regular_bw(1));
  EXPECT_GT(sys.channels().regular_bw(1), sys.channels().regular_bw(3));
}

TEST(WeightedMulti, GuaranteesHoldOnSkewedLoad) {
  const auto traces =
      MultiSessionWorkload(MultiWorkloadKind::kSkewed, 4, 64, 8, 6000, 97);
  for (const bool continuous : {false, true}) {
    SCOPED_TRACE(continuous ? "continuous" : "phased");
    MultiEngineOptions opt;
    opt.drain_slots = 32;
    MultiRunResult r;
    if (continuous) {
      ContinuousMulti sys(WeightedParams());
      r = RunMultiSessionEvent(traces, sys, opt);
    } else {
      PhasedMulti sys(WeightedParams());
      r = RunMultiSessionEvent(traces, sys, opt);
    }
    EXPECT_LE(r.delay.max_delay(), 16);
    EXPECT_EQ(r.final_queue, 0);
    EXPECT_LE(r.peak_regular_allocation.ToDouble(), 2.0 * 64 + 64 + 1e-6);
  }
}

TEST(WeightedMulti, MatchedWeightsNeedFewerChangesThanUniform) {
  // On a persistently skewed load, weights matching the demand profile
  // should trigger fewer overload increments than uniform shares.
  const auto traces =
      MultiSessionWorkload(MultiWorkloadKind::kSkewed, 4, 64, 8, 8000, 98);
  MultiEngineOptions opt;
  opt.drain_slots = 32;

  PhasedMulti weighted(WeightedParams());
  const MultiRunResult rw = RunMultiSessionEvent(traces, weighted, opt);

  MultiSessionParams uniform = WeightedParams();
  uniform.weights.clear();
  PhasedMulti plain(uniform);
  const MultiRunResult ru = RunMultiSessionEvent(traces, plain, opt);

  EXPECT_LE(rw.local_changes, ru.local_changes);
}

}  // namespace
}  // namespace bwalloc
