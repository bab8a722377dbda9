// Property sweep for Theorems 14 and 17: across workload kinds, session
// counts, disciplines and both algorithms, the multi-session guarantees
// must hold — delay <= 2 D_O, resource budgets, conservation, and the
// stage-normalized change budget.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "runner/parallel_sweep.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

// (algorithm, workload kind, k, fifo)
using ParamTuple = std::tuple<std::string, MultiWorkloadKind, std::int64_t,
                              bool>;

class MultiProperty : public ::testing::TestWithParam<ParamTuple> {};

TEST_P(MultiProperty, GuaranteesHold) {
  const auto& [algo, kind, k, fifo] = GetParam();
  MultiSessionParams p;
  p.sessions = k;
  p.offline_bandwidth = 16 * k;  // keep per-session share constant
  p.offline_delay = 8;

  const ServiceDiscipline discipline = fifo
                                           ? ServiceDiscipline::kFifoCombined
                                           : ServiceDiscipline::kTwoChannel;
  std::unique_ptr<MultiSessionSystem> sys;
  double overflow_budget = 0;
  if (algo == "phased") {
    sys = std::make_unique<PhasedMulti>(p, discipline);
    overflow_budget = 2.0 * static_cast<double>(p.offline_bandwidth);
  } else {
    sys = std::make_unique<ContinuousMulti>(p, discipline);
    overflow_budget = 3.0 * static_cast<double>(p.offline_bandwidth);
  }

  const auto traces = MultiSessionWorkload(kind, k, p.offline_bandwidth,
                                           p.offline_delay, 4000,
                                           17 + static_cast<std::uint64_t>(k));
  MultiEngineOptions opt;
  opt.drain_slots = 4 * p.offline_delay;
  const MultiRunResult r = RunMultiSessionEvent(traces, *sys, opt);

  // Conservation.
  EXPECT_EQ(r.total_arrivals, r.total_delivered + r.final_queue);
  EXPECT_EQ(r.final_queue, 0);

  // Lemma 11 / Lemma 15: delay <= D_A = 2 D_O.
  EXPECT_LE(r.delay.max_delay(), 2 * p.offline_delay);

  // Resource budgets (regular channel may transiently hold the boundary
  // slot's k increments before the reset fires).
  EXPECT_LE(r.peak_regular_allocation.ToDouble(),
            2.0 * static_cast<double>(p.offline_bandwidth) +
                static_cast<double>(p.offline_bandwidth) + 1e-6);
  EXPECT_LE(r.peak_overflow_allocation.ToDouble(), overflow_budget + 1e-6);

  // Declared total bandwidth never changes (Theorem 14/17 count only the
  // per-session changes).
  EXPECT_EQ(r.global_changes, 0);

  // Change budget: O(k) per stage.
  const double per_stage = 4.0 * static_cast<double>(k) + 6.0;
  EXPECT_LE(static_cast<double>(r.local_changes),
            per_stage * static_cast<double>(r.stages + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiProperty,
    ::testing::Combine(
        ::testing::Values("phased", "continuous"),
        ::testing::Values(MultiWorkloadKind::kBalanced,
                          MultiWorkloadKind::kRotatingHotspot,
                          MultiWorkloadKind::kChurn,
                          MultiWorkloadKind::kSkewed),
        ::testing::Values<std::int64_t>(2, 5, 8),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<ParamTuple>& pinfo) {
      std::string kind = ToString(std::get<1>(pinfo.param));
      for (char& c : kind) {
        if (c == '-') c = '_';
      }
      return std::get<0>(pinfo.param) + "_" + kind + "_k" +
             std::to_string(std::get<2>(pinfo.param)) +
             (std::get<3>(pinfo.param) ? "_fifo" : "_twochannel");
    });

// Widened grid via the sharded sweep: 3 derived seed streams per
// (algorithm, kind, k) beyond the fixed-seed suite above — 72 more cells
// with thread-count-independent results.
TEST(MultiPropertyWide, GuaranteesHoldAcrossDerivedStreams) {
  const std::vector<std::string> algos = {"phased", "continuous"};
  const std::vector<MultiWorkloadKind> kinds = {
      MultiWorkloadKind::kBalanced, MultiWorkloadKind::kRotatingHotspot,
      MultiWorkloadKind::kChurn, MultiWorkloadKind::kSkewed};
  const std::vector<std::int64_t> session_counts = {3, 6, 9};
  constexpr std::int64_t kStreams = 3;
  const std::int64_t cells = static_cast<std::int64_t>(
      algos.size() * kinds.size() * session_counts.size() * kStreams);

  const SweepResult sweep = ParallelSweep(
      "multi-property", cells, [&](const TaskContext& ctx) -> std::string {
        std::int64_t i = ctx.key.index;
        i /= kStreams;
        const std::int64_t k = session_counts[static_cast<std::size_t>(
            i % static_cast<std::int64_t>(session_counts.size()))];
        i /= static_cast<std::int64_t>(session_counts.size());
        const MultiWorkloadKind kind =
            kinds[static_cast<std::size_t>(
                i % static_cast<std::int64_t>(kinds.size()))];
        const std::string& algo = algos[static_cast<std::size_t>(
            i / static_cast<std::int64_t>(kinds.size()))];
        const std::string label = algo + "/" + ToString(kind) + "/k=" +
                                  std::to_string(k) + ": ";

        MultiSessionParams p;
        p.sessions = k;
        p.offline_bandwidth = 16 * k;
        p.offline_delay = 8;
        std::unique_ptr<MultiSessionSystem> sys;
        double overflow_budget = 0;
        if (algo == "phased") {
          sys = std::make_unique<PhasedMulti>(p);
          overflow_budget = 2.0 * static_cast<double>(p.offline_bandwidth);
        } else {
          sys = std::make_unique<ContinuousMulti>(p);
          overflow_budget = 3.0 * static_cast<double>(p.offline_bandwidth);
        }

        const auto traces =
            MultiSessionWorkload(kind, k, p.offline_bandwidth,
                                 p.offline_delay, 3000, ctx.seed);
        MultiEngineOptions opt;
        opt.drain_slots = 4 * p.offline_delay;
        const MultiRunResult r = RunMultiSessionEvent(traces, *sys, opt);

        if (r.total_arrivals != r.total_delivered + r.final_queue ||
            r.final_queue != 0) {
          return label + "conservation violated";
        }
        if (r.delay.max_delay() > 2 * p.offline_delay) {
          return label + "delay " + std::to_string(r.delay.max_delay()) +
                 " > 2 D_O";
        }
        if (r.peak_regular_allocation.ToDouble() >
            3.0 * static_cast<double>(p.offline_bandwidth) + 1e-6) {
          return label + "regular channel budget exceeded";
        }
        if (r.peak_overflow_allocation.ToDouble() > overflow_budget + 1e-6) {
          return label + "overflow channel budget exceeded";
        }
        if (r.global_changes != 0) return label + "declared total changed";
        const double per_stage = 4.0 * static_cast<double>(k) + 6.0;
        if (static_cast<double>(r.local_changes) >
            per_stage * static_cast<double>(r.stages + 1)) {
          return label + "per-stage change budget exceeded";
        }
        return "";
      });
  EXPECT_TRUE(sweep.ok()) << sweep.Summary();
}

}  // namespace
}  // namespace bwalloc
