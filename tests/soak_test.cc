// Long-horizon soak: half a million slots through every engine. Guards
// against slow leaks of state (the low-envelope hull, reduction timers,
// stage bookkeeping) and asymptotic regressions — the whole run must stay
// well inside CI time, which only holds if the per-slot cost is O(log).
//
// Each engine soaks 4 independent seed streams via ParallelSweep (keys
// derived from the (suite, index) task key, deterministic at any thread
// count). The per-stream horizon keeps the total slot budget of the old
// single-seed runs, so serial runtime is unchanged and multi-core hardware
// finishes in 1/jobs of it.
#include <gtest/gtest.h>

#include <sstream>

#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/single_session.h"
#include "runner/parallel_sweep.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

constexpr std::int64_t kStreams = 4;   // 4x the old single-seed coverage
constexpr Time kLong = 500000 / kStreams;

// gtest-free check helpers: sweep bodies run off the main thread, so they
// report violations as strings and the test asserts once on the summary.
template <typename T>
std::string ExpectEq(const char* what, const T& want, const T& got) {
  if (want == got) return "";
  std::ostringstream os;
  os << what << ": expected " << want << ", got " << got;
  return os.str();
}

template <typename T>
std::string ExpectLe(const char* what, const T& got, const T& bound) {
  if (got <= bound) return "";
  std::ostringstream os;
  os << what << ": " << got << " exceeds " << bound;
  return os.str();
}

TEST(Soak, SingleSessionHalfMillionSlots) {
  const SweepResult sweep = ParallelSweep(
      "soak-single", kStreams, [](const TaskContext& ctx) -> std::string {
        SingleSessionParams p;
        p.max_bandwidth = 256;
        p.max_delay = 16;
        p.min_utilization = Ratio(1, 6);
        p.window = 8;
        SingleSessionOnline alg(p);
        const auto trace =
            SingleSessionWorkload("mixed", 256, 8, kLong, ctx.seed);
        SingleEngineOptions opt;
        opt.drain_slots = 64;
        const SingleRunResult r = RunSingleSession(trace, alg, opt);
        std::string err;
        if (err.empty())
          err = ExpectEq("conservation", r.total_arrivals, r.total_delivered);
        if (err.empty()) err = ExpectLe<Time>("delay", r.delay.max_delay(), 16);
        if (err.empty() && r.stages <= 25) {
          err = "long runs should cycle many stages, got " +
                std::to_string(r.stages);
        }
        if (err.empty()) {
          err = ExpectLe<std::int64_t>("changes/stage",
                                       alg.max_changes_in_any_stage(),
                                       p.levels() + 3);
        }
        return err;
      });
  EXPECT_TRUE(sweep.ok()) << sweep.Summary();
}

TEST(Soak, ContinuousMultiQuarterMillionSlots) {
  const SweepResult sweep = ParallelSweep(
      "soak-continuous", kStreams, [](const TaskContext& ctx) -> std::string {
        MultiSessionParams p;
        p.sessions = 8;
        p.offline_bandwidth = 128;
        p.offline_delay = 8;
        ContinuousMulti sys(p);
        const auto traces = MultiSessionWorkload(
            MultiWorkloadKind::kRotatingHotspot, 8, 128, 8, kLong / 2,
            ctx.seed);
        MultiEngineOptions opt;
        opt.drain_slots = 64;
        const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
        std::string err =
            ExpectEq("conservation", r.total_arrivals, r.total_delivered);
        if (err.empty()) err = ExpectLe<Time>("delay", r.delay.max_delay(), 16);
        if (err.empty()) {
          err = ExpectLe("peak overflow", r.peak_overflow_allocation.ToDouble(),
                         3.0 * 128 + 1e-6);
        }
        return err;
      });
  EXPECT_TRUE(sweep.ok()) << sweep.Summary();
}

TEST(Soak, CombinedQuarterMillionSlots) {
  const SweepResult sweep = ParallelSweep(
      "soak-combined", kStreams, [](const TaskContext& ctx) -> std::string {
        CombinedParams p;
        p.sessions = 8;
        p.offline_bandwidth = 128;
        p.offline_delay = 8;
        p.offline_utilization = Ratio(1, 2);
        p.window = 8;
        CombinedOnline sys(p);
        const auto traces = MultiSessionWorkload(MultiWorkloadKind::kChurn, 8,
                                                 128, 8, kLong / 2, ctx.seed);
        MultiEngineOptions opt;
        opt.drain_slots = 128;
        const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
        std::string err =
            ExpectEq("conservation", r.total_arrivals, r.total_delivered);
        if (err.empty()) {
          err = ExpectLe<Time>("delay", r.delay.max_delay(),
                               3 * p.offline_delay);
        }
        if (err.empty()) err = ExpectEq<Bits>("final queue", 0, r.final_queue);
        return err;
      });
  EXPECT_TRUE(sweep.ok()) << sweep.Summary();
}

}  // namespace
}  // namespace bwalloc
