// Unit + property tests for the batch runner's reduction layer:
// AggregateStats is an associative monoid with the default value as
// identity, and per-task failures surface the failing task's key instead
// of aborting the batch.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "core/single_session.h"
#include "runner/batch_runner.h"
#include "runner/merge.h"
#include "runner/parallel_sweep.h"
#include "runner/suite.h"
#include "sim/engine_single.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

SingleRunResult RunOne(const std::string& workload, std::uint64_t seed) {
  SingleSessionParams p;
  p.max_bandwidth = 64;
  p.max_delay = 16;
  p.min_utilization = Ratio(1, 6);
  p.window = 8;
  const auto trace = SingleSessionWorkload(
      workload, p.offline_bandwidth(), p.offline_delay(), 800, seed);
  SingleSessionOnline alg(p);
  SingleEngineOptions opt;
  opt.drain_slots = 32;
  opt.utilization_scan_window = 8 + 5 * p.offline_delay();
  return RunSingleSession(trace, alg, opt);
}

TEST(AggregateStats, DefaultIsMergeIdentity) {
  AggregateStats a;
  a.Add(RunOne("mixed", 3));
  AggregateStats left = a;
  left.Merge(AggregateStats{});  // a ⊕ e
  EXPECT_TRUE(left == a);

  AggregateStats right;  // e ⊕ a
  right.Merge(a);
  EXPECT_TRUE(right == a);
}

TEST(AggregateStats, MergeIsAssociative) {
  AggregateStats a, b, c;
  a.Add(RunOne("cbr", 1));
  b.Add(RunOne("pareto", 2));
  c.Add(RunOne("mixed", 3));

  AggregateStats ab = a;
  ab.Merge(b);
  AggregateStats ab_c = ab;
  ab_c.Merge(c);  // (a ⊕ b) ⊕ c

  AggregateStats bc = b;
  bc.Merge(c);
  AggregateStats a_bc = a;
  a_bc.Merge(bc);  // a ⊕ (b ⊕ c)

  EXPECT_TRUE(ab_c == a_bc);
  EXPECT_EQ(ab_c.GlobalUtilization(), a_bc.GlobalUtilization());
  EXPECT_EQ(ab_c.ChangesPerStage(), a_bc.ChangesPerStage());
}

TEST(AggregateStats, ShardedReductionMatchesSerial) {
  // Property: any parenthesization over any shard boundaries equals the
  // serial left fold — the invariant the thread-count determinism rests on.
  std::vector<SingleRunResult> runs;
  const std::vector<std::string> workloads = {"cbr", "onoff", "pareto",
                                              "mmpp", "mixed"};
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    runs.push_back(RunOne(workloads[i], 10 + i));
  }

  AggregateStats serial;
  for (const SingleRunResult& r : runs) serial.Add(r);

  for (std::size_t split = 0; split <= runs.size(); ++split) {
    AggregateStats lo, hi;
    for (std::size_t i = 0; i < split; ++i) lo.Add(runs[i]);
    for (std::size_t i = split; i < runs.size(); ++i) hi.Add(runs[i]);
    lo.Merge(hi);
    EXPECT_TRUE(lo == serial) << "diverged at split " << split;
  }
}

TEST(AggregateStats, TreeShapedMergesMatchSerialFold) {
  // A work-stealing reduction merges whatever subtrees finished first; any
  // binary tree over the task range must equal the serial left fold.
  constexpr std::int64_t kN = 6;
  std::vector<AggregateStats> parts;
  const std::vector<std::string> workloads = {"cbr",  "onoff", "pareto",
                                              "mmpp", "mixed", "cbr"};
  for (std::int64_t i = 0; i < kN; ++i) {
    AggregateStats a;
    a.Add(RunOne(workloads[static_cast<std::size_t>(i)],
                 20 + static_cast<std::uint64_t>(i)));
    parts.push_back(std::move(a));
  }

  AggregateStats serial;
  for (const AggregateStats& p : parts) serial.Merge(p);

  // Every binary tree shape over [lo, hi): recurse on each pivot choice.
  // Catalan(5) = 42 shapes for 6 leaves — exhaustive at this size.
  std::function<std::vector<AggregateStats>(std::size_t, std::size_t)> trees =
      [&](std::size_t lo, std::size_t hi) {
        std::vector<AggregateStats> out;
        if (hi - lo == 1) {
          out.push_back(parts[lo]);
          return out;
        }
        for (std::size_t mid = lo + 1; mid < hi; ++mid) {
          for (const AggregateStats& left : trees(lo, mid)) {
            for (const AggregateStats& right : trees(mid, hi)) {
              AggregateStats combined = left;
              combined.Merge(right);
              out.push_back(std::move(combined));
            }
          }
        }
        return out;
      };
  const std::vector<AggregateStats> all = trees(0, parts.size());
  EXPECT_EQ(all.size(), 42u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_TRUE(all[i] == serial) << "tree shape " << i << " diverged";
  }
}

TEST(AggregateStats, EmptyBatchIsWellDefined) {
  const AggregateStats empty;
  EXPECT_EQ(empty.tasks, 0);
  EXPECT_EQ(empty.total_arrivals, 0);
  EXPECT_EQ(empty.max_delay, 0);
  EXPECT_TRUE(empty.GlobalUtilization().is_zero());
  EXPECT_TRUE(empty.ChangesPerStage().is_zero());
  EXPECT_EQ(empty.delay.total_bits(), 0);

  // RunSuite on a zero-cell spec: no rows, identity aggregate, no errors.
  SuiteSpec spec;
  spec.name = "empty";
  spec.workloads.clear();
  BatchRunner runner(BatchOptions{2, 0});
  const SuiteReport report = RunSuite(spec, runner);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cells.rows(), 0u);
  EXPECT_TRUE(report.aggregate == empty);
}

TEST(BatchRunner, FailingTaskSurfacesItsKeyAndSparesTheRest) {
  BatchRunner runner(BatchOptions{3, 0});
  const auto batch =
      runner.Map<std::int64_t>("flaky", 9, [](const TaskContext& ctx) {
        if (ctx.key.index == 4) throw std::runtime_error("injected fault");
        return ctx.key.index * 10;
      });

  EXPECT_FALSE(batch.ok());
  ASSERT_EQ(batch.errors.size(), 1u);
  EXPECT_EQ(batch.errors[0].key.suite, "flaky");
  EXPECT_EQ(batch.errors[0].key.index, 4);
  EXPECT_EQ(batch.errors[0].message, "injected fault");
  EXPECT_EQ(FormatErrors(batch.errors), "task flaky[4]: injected fault");

  // Every other task completed and kept its slot.
  EXPECT_FALSE(batch.results[4].has_value());
  for (std::int64_t i = 0; i < 9; ++i) {
    if (i == 4) continue;
    ASSERT_TRUE(batch.results[static_cast<std::size_t>(i)].has_value());
    EXPECT_EQ(*batch.results[static_cast<std::size_t>(i)], i * 10);
  }

  // The flattened view refuses to compact out the failed slot: a caller
  // reducing Values() in index order while ignoring `errors` would be
  // silently misaligned from task 4 onward.
  EXPECT_THROW(batch.Values(), std::logic_error);
}

TEST(BatchRunner, ValuesReturnsEverySlotOnCleanBatch) {
  BatchRunner runner(BatchOptions{2, 0});
  const auto batch = runner.Map<std::int64_t>(
      "clean", 6, [](const TaskContext& ctx) { return ctx.key.index * 3; });
  ASSERT_TRUE(batch.ok());
  const std::vector<std::int64_t> values = batch.Values();
  ASSERT_EQ(values.size(), 6u);
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)], i * 3);
  }
}

TEST(BatchRunner, MultipleFailuresReportInIndexOrder) {
  BatchRunner runner(BatchOptions{4, 0});
  const auto batch =
      runner.Map<int>("flaky", 12, [](const TaskContext& ctx) {
        if (ctx.key.index % 3 == 1) {
          throw std::runtime_error("fault " + std::to_string(ctx.key.index));
        }
        return 0;
      });
  ASSERT_EQ(batch.errors.size(), 4u);
  for (std::size_t i = 0; i < batch.errors.size(); ++i) {
    EXPECT_EQ(batch.errors[i].key.index, static_cast<std::int64_t>(3 * i + 1));
  }
}

TEST(ParallelSweep, CollectsViolationsWithoutAborting) {
  const SweepResult r = ParallelSweep(
      "sweep", 10,
      [](const TaskContext& ctx) -> std::string {
        if (ctx.key.index == 2) return "bound violated";
        if (ctx.key.index == 7) throw std::runtime_error("crashed");
        return "";
      },
      SweepOptions{3, 0});
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.failures.size(), 2u);
  EXPECT_EQ(r.failures[0].key.index, 2);
  EXPECT_EQ(r.failures[0].message, "bound violated");
  EXPECT_EQ(r.failures[1].key.index, 7);
  EXPECT_EQ(r.failures[1].message, "crashed");

  const SweepResult ok = ParallelSweep(
      "sweep", 4, [](const TaskContext&) { return std::string(); },
      SweepOptions{2, 0});
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.Summary(), "all 4 sweep tasks passed");
}

}  // namespace
}  // namespace bwalloc
