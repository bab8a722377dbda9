// Failure-injection / robustness: the theorems assume feasible inputs, but
// a production library must degrade gracefully on anything — unshaped
// heavy-tailed bursts that violate the Claim 9 envelope, all-or-nothing
// load, and randomized fuzz. No crashes, no lost bits, caps respected; the
// delay bound is allowed to break (the input broke the contract first).
#include <gtest/gtest.h>

#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "core/single_session.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "traffic/sources.h"
#include "util/rng.h"

namespace bwalloc {
namespace {

std::vector<Bits> UnshapedBursts(std::uint64_t seed, Time horizon) {
  // Raw Pareto bursts, NOT token-bucket shaped: single slots can carry far
  // more than (1 + D_O) * B_O.
  ParetoBurstSource src(seed, 15.0, 1.3, 400.0);
  return src.Generate(horizon);
}

SingleSessionParams Params() {
  SingleSessionParams p;
  p.max_bandwidth = 64;
  p.max_delay = 16;
  p.min_utilization = Ratio(1, 6);
  p.window = 8;
  return p;
}

TEST(Robustness, SingleSessionSurvivesUnshapedInput) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE(seed);
    const auto trace = UnshapedBursts(seed, 4000);
    SingleSessionOnline alg(Params());
    SingleEngineOptions opt;
    opt.drain_slots = 4000;  // infeasible backlogs need long drains
    const SingleRunResult r = RunSingleSession(trace, alg, opt);
    // No loss, cap respected; delay may exceed D_A — the contract was
    // broken by the input, not the algorithm.
    EXPECT_EQ(r.total_arrivals, r.total_delivered + r.final_queue);
    EXPECT_EQ(r.final_queue, 0);
    EXPECT_LE(r.peak_allocation, Bandwidth::FromBitsPerSlot(64));
  }
}

TEST(Robustness, MultiSessionSurvivesUnshapedInput) {
  const std::int64_t k = 4;
  std::vector<std::vector<Bits>> traces;
  for (std::int64_t i = 0; i < k; ++i) {
    traces.push_back(UnshapedBursts(10 + static_cast<std::uint64_t>(i),
                                    3000));
  }
  MultiSessionParams p;
  p.sessions = k;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  for (const bool continuous : {false, true}) {
    SCOPED_TRACE(continuous ? "continuous" : "phased");
    MultiEngineOptions opt;
    opt.drain_slots = 6000;
    MultiRunResult r;
    if (continuous) {
      ContinuousMulti sys(p);
      r = RunMultiSessionEvent(traces, sys, opt);
    } else {
      PhasedMulti sys(p);
      r = RunMultiSessionEvent(traces, sys, opt);
    }
    EXPECT_EQ(r.total_arrivals, r.total_delivered + r.final_queue);
    EXPECT_EQ(r.final_queue, 0);
  }
}

TEST(Robustness, CombinedSurvivesUnshapedInput) {
  const std::int64_t k = 4;
  std::vector<std::vector<Bits>> traces;
  for (std::int64_t i = 0; i < k; ++i) {
    traces.push_back(UnshapedBursts(20 + static_cast<std::uint64_t>(i),
                                    3000));
  }
  CombinedParams p;
  p.sessions = k;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  p.offline_utilization = Ratio(1, 2);
  p.window = 8;
  CombinedOnline sys(p);
  MultiEngineOptions opt;
  opt.drain_slots = 8000;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_EQ(r.total_arrivals, r.total_delivered + r.final_queue);
  EXPECT_EQ(r.final_queue, 0);
}

TEST(Robustness, AllOrNothingLoad) {
  // Alternate between total silence and a solid wall at B_A.
  std::vector<Bits> trace;
  for (int c = 0; c < 20; ++c) {
    trace.insert(trace.end(), 50, 0);
    trace.insert(trace.end(), 50, 64);
  }
  SingleSessionOnline alg(Params());
  SingleEngineOptions opt;
  opt.drain_slots = 200;
  const SingleRunResult r = RunSingleSession(trace, alg, opt);
  EXPECT_EQ(r.final_queue, 0);
  EXPECT_LE(r.delay.max_delay(), 16) << "walls at B_A are feasible";
}

TEST(Robustness, FuzzedParametersAndTraffic) {
  Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    SingleSessionParams p;
    p.max_bandwidth = std::int64_t{1} << rng.UniformInt(2, 10);
    p.max_delay = 2 * rng.UniformInt(1, 12);
    p.min_utilization = Ratio(1, rng.UniformInt(3, 24));
    p.window = p.max_delay / 2 + rng.UniformInt(0, 16);
    SingleSessionOnline alg(p);

    std::vector<Bits> trace;
    const Time len = rng.UniformInt(50, 400);
    for (Time t = 0; t < len; ++t) {
      trace.push_back(rng.Bernoulli(0.4)
                          ? rng.UniformInt(0, 2 * p.max_bandwidth)
                          : 0);
    }
    SingleEngineOptions opt;
    opt.drain_slots = 4 * len;
    const SingleRunResult r = RunSingleSession(trace, alg, opt);
    ASSERT_EQ(r.total_arrivals, r.total_delivered + r.final_queue)
        << "round " << round;
    ASSERT_EQ(r.final_queue, 0) << "round " << round;
    ASSERT_LE(r.peak_allocation,
              Bandwidth::FromBitsPerSlot(p.max_bandwidth))
        << "round " << round;
  }
}

}  // namespace
}  // namespace bwalloc
