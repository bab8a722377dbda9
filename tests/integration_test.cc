// End-to-end integration: the full pipeline (workload -> engine ->
// algorithm -> offline comparators -> report row) with the exact accounting
// each theorem uses.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/competitive.h"
#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "core/single_session.h"
#include "offline/offline_multi.h"
#include "offline/offline_single.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "traffic/workload_suite.h"
#include "util/power_of_two.h"

namespace bwalloc {
namespace {

SingleSessionParams SingleParams(Bits ba) {
  SingleSessionParams p;
  p.max_bandwidth = ba;
  p.max_delay = 16;
  p.min_utilization = Ratio(1, 6);
  p.window = 8;
  return p;
}

// Theorem 6's accounting: the online algorithm pays at most l_A changes per
// stage, and every completed stage certifies one offline change — so
// changes / max(1, stages) is the per-certificate price, bounded by l_A
// (+3 for the transition-counting convention, see single_session tests).
TEST(Integration, Theorem6AccountingAcrossSuite) {
  const SingleSessionParams p = SingleParams(64);
  for (const NamedTrace& w :
       SingleSessionSuite(p.offline_bandwidth(), p.offline_delay(), 4000,
                          81)) {
    SCOPED_TRACE(w.name);
    SingleSessionOnline alg(p);
    SingleEngineOptions opt;
    opt.drain_slots = 32;
    const SingleRunResult r = RunSingleSession(w.trace, alg, opt);
    const double per_stage =
        static_cast<double>(r.changes) /
        static_cast<double>(std::max<std::int64_t>(1, r.stages + 1));
    EXPECT_LE(per_stage, static_cast<double>(p.levels() + 3));
    EXPECT_LE(r.delay.max_delay(), p.max_delay);
  }
}

// The modified algorithm's per-stage price is O(log 1/U_O), independent of
// B_A: blowing B_A up by 16x should leave it flat while the base
// algorithm's ladder grows.
TEST(Integration, Theorem7PriceIndependentOfBandwidth) {
  std::int64_t modified_small = 0;
  std::int64_t modified_large = 0;
  for (const Bits ba : {Bits{64}, Bits{1024}}) {
    const SingleSessionParams p = SingleParams(ba);
    const auto trace = SingleSessionWorkload(
        "mixed", p.offline_bandwidth(), p.offline_delay(), 6000, 82);
    SingleSessionOnline alg(p, SingleSessionOnline::Variant::kModified);
    SingleEngineOptions opt;
    opt.drain_slots = 32;
    RunSingleSession(trace, alg, opt);
    (ba == 64 ? modified_small : modified_large) =
        alg.max_changes_in_any_stage();
  }
  // log2(1/U_O) + O(1) with U_O = 1/2 is a handful of changes; crucially it
  // must NOT scale with log2(B_A).
  EXPECT_LE(modified_large, modified_small + 2);
}

// Theorems 14/17 head-to-head on one workload: both algorithms meet the
// delay bound; the offline comparator needs changes too (the ratio is the
// quantity the bench reports).
TEST(Integration, MultiSessionOfflineComparison) {
  const std::int64_t k = 4;
  const Bits bo = 64;
  const Time d_o = 8;
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, k, bo, d_o, 6000, 83);

  MultiSessionParams p;
  p.sessions = k;
  p.offline_bandwidth = bo;
  p.offline_delay = d_o;

  PhasedMulti phased(p);
  ContinuousMulti continuous(p);
  MultiEngineOptions opt;
  opt.drain_slots = 4 * d_o;
  const MultiRunResult rp = RunMultiSessionEvent(traces, phased, opt);
  const MultiRunResult rc = RunMultiSessionEvent(traces, continuous, opt);

  const MultiOfflineSchedule offline = GreedyMultiSchedule(traces, bo, d_o);
  ASSERT_TRUE(offline.feasible);
  EXPECT_GE(offline.local_changes(), 1);

  for (const MultiRunResult* r : {&rp, &rc}) {
    EXPECT_LE(r->delay.max_delay(), 2 * d_o);
    EXPECT_EQ(r->final_queue, 0);
    // Theorem 14/17 shape: online changes within O(k) x offline changes.
    const double ratio = static_cast<double>(r->local_changes) /
                         static_cast<double>(offline.local_changes());
    EXPECT_LE(ratio, 6.0 * static_cast<double>(k))
        << "competitive ratio far outside the 3k regime";
  }
}

// The combined algorithm on the same input as phased/continuous: strictly
// more constraints (utilization), so more changes, but the delay bound and
// conservation still hold.
TEST(Integration, CombinedVersusPlainMulti) {
  const std::int64_t k = 4;
  const auto traces = MultiSessionWorkload(
      MultiWorkloadKind::kRotatingHotspot, k, 64, 8, 5000, 84);

  CombinedParams cp;
  cp.sessions = k;
  cp.offline_bandwidth = 64;
  cp.offline_delay = 8;
  cp.offline_utilization = Ratio(1, 2);
  cp.window = 8;
  CombinedOnline combined(cp);
  MultiEngineOptions opt;
  opt.drain_slots = 64;
  const MultiRunResult r = RunMultiSessionEvent(traces, combined, opt);
  EXPECT_LE(r.delay.max_delay(), 3 * cp.offline_delay);
  EXPECT_EQ(r.total_arrivals, r.total_delivered);
  EXPECT_GE(r.global_stages, 0);
  EXPECT_GT(r.global_utilization, 0.0);
}

// Determinism: identical seeds give bit-identical results end to end.
TEST(Integration, EndToEndDeterminism) {
  const SingleSessionParams p = SingleParams(64);
  SingleRunResult results[2];
  for (int i = 0; i < 2; ++i) {
    const auto trace = SingleSessionWorkload(
        "pareto", p.offline_bandwidth(), p.offline_delay(), 3000, 85);
    SingleSessionOnline alg(p);
    SingleEngineOptions opt;
    opt.drain_slots = 32;
    results[i] = RunSingleSession(trace, alg, opt);
  }
  EXPECT_EQ(results[0].changes, results[1].changes);
  EXPECT_EQ(results[0].stages, results[1].stages);
  EXPECT_EQ(results[0].total_delivered, results[1].total_delivered);
  EXPECT_EQ(results[0].delay.max_delay(), results[1].delay.max_delay());
}

}  // namespace
}  // namespace bwalloc
