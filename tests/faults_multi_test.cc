// Unreliable control plane for the multi-session algorithms:
// PerSessionPlan / RobustMultiSessionAdapter. The per-session contract
// mirrors the single-session one — no bits lost, queues drain, bitwise
// replay — with one extra twist: session i's fault lane is a pure
// function of (plan seed, i), independent of how many sessions exist.
#include "net/multi_faults.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/json.h"
#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "net/path.h"
#include "runner/merge.h"
#include "runner/parallel_sweep.h"
#include "runner/suite.h"
#include "sim/engine_multi.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

constexpr std::int64_t kSessions = 4;
constexpr Bits kBo = 64;  // B_O
constexpr Time kDo = 8;

MultiSessionParams Params(std::int64_t k = kSessions) {
  MultiSessionParams p;
  p.sessions = k;
  p.offline_bandwidth = kBo;
  p.offline_delay = kDo;
  return p;
}

RobustOptions Opts(Bits fallback) {
  RobustOptions o;
  o.fallback_bandwidth = fallback;
  return o;
}

std::unique_ptr<MultiSessionSystem> MakeSystem(const std::string& algo,
                                               std::int64_t k = kSessions) {
  if (algo == "combined") {
    CombinedParams p;
    p.sessions = k;
    p.offline_bandwidth = kBo;
    p.offline_delay = kDo;
    p.offline_utilization = Ratio(1, 2);
    p.window = 2 * kDo;
    return std::make_unique<CombinedOnline>(p);
  }
  if (algo == "phased") return std::make_unique<PhasedMulti>(Params(k));
  return std::make_unique<ContinuousMulti>(Params(k));
}

Bits DeclaredTotal(const std::string& algo) {
  return (algo == "phased" ? 4 : algo == "continuous" ? 5 : 7) * kBo;
}

TEST(PerSessionPlan, DerivesDistinctStreamsFromOneSeed) {
  FaultPlan plan;
  plan.loss_rate = 0.2;
  plan.denial_rate = 0.1;
  plan.max_jitter = 2;
  plan.seed = 12345;
  std::vector<std::uint64_t> seeds;
  for (std::int64_t i = 0; i < 16; ++i) {
    const FaultPlan p = PerSessionPlan(plan, i);
    EXPECT_EQ(p.loss_rate, plan.loss_rate);
    EXPECT_EQ(p.denial_rate, plan.denial_rate);
    EXPECT_EQ(p.max_jitter, plan.max_jitter);
    for (const std::uint64_t s : seeds) EXPECT_NE(p.seed, s) << i;
    seeds.push_back(p.seed);
  }
}

// Session i's fault stream must not depend on the session count: the lane
// seed is a pure function of (plan seed, i), and a channel driven from it
// replays bitwise. ParallelSweep keys the per-cell request pattern to the
// task seed, so the property is exercised at any thread count.
TEST(PerSessionPlan, SessionStreamIndependentOfSessionCount) {
  const SweepResult sweep = ParallelSweep(
      "per-session-plan", 24, [](const TaskContext& ctx) -> std::string {
        const std::int64_t i = ctx.key.index % 8;
        FaultPlan plan;
        plan.loss_rate = 0.3;
        plan.denial_rate = 0.2;
        plan.max_jitter = 3;
        plan.seed = 999 + static_cast<std::uint64_t>(ctx.key.index / 8);
        // Derive session i's plan as if the system had i+1, 8, and 64
        // sessions; all three must agree because only (seed, i) matter.
        const FaultPlan direct = PerSessionPlan(plan, i);
        for (const std::int64_t k : {i + 1, std::int64_t{8},
                                     std::int64_t{64}}) {
          std::vector<FaultPlan> lanes;
          for (std::int64_t s = 0; s < k; ++s) {
            lanes.push_back(PerSessionPlan(plan, s));
          }
          if (lanes[static_cast<std::size_t>(i)].seed != direct.seed) {
            return "lane seed depends on session count k=" +
                   std::to_string(k);
          }
        }
        // And the derived stream replays bitwise through a channel.
        const NetworkPath path = NetworkPath::Uniform(3, 1, 1.0);
        FaultySignalingChannel a(path, direct);
        FaultySignalingChannel b(path, direct);
        Rng pattern(ctx.seed);
        for (Time t = 0; t < 300; ++t) {
          if (pattern.UniformInt(0, 4) == 0) {
            const auto bw =
                Bandwidth::FromBitsPerSlot(pattern.UniformInt(1, 32));
            a.Request(t, bw);
            b.Request(t, bw);
          }
          if (a.Effective(t) != b.Effective(t)) return "replay diverged";
        }
        if (!(a.stats() == b.stats())) return "stats diverged";
        return "";
      });
  EXPECT_TRUE(sweep.ok()) << sweep.Summary();
}

TEST(RobustMultiSessionAdapter, RejectsProgressImpossiblePlan) {
  FaultPlan plan;
  plan.loss_rate = 1.0;
  EXPECT_THROW(RobustMultiSessionAdapter(MakeSystem("phased"), NetworkPath(),
                                         plan, Opts(4 * kBo)),
               std::invalid_argument);
  plan.loss_rate = 0.0;
  plan.denial_rate = 1.0;
  EXPECT_THROW(RobustMultiSessionAdapter(MakeSystem("phased"), NetworkPath(),
                                         plan, Opts(4 * kBo)),
               std::invalid_argument);
}

TEST(RobustMultiSessionAdapter, TrivialPlanZeroLatencyMatchesBare) {
  const auto traces = MultiSessionWorkload(MultiWorkloadKind::kRotatingHotspot,
                                           kSessions, kBo, kDo, 3000, 55);
  MultiEngineOptions opt;
  opt.drain_slots = 8 * kDo;

  auto bare = MakeSystem("phased");
  const MultiRunResult rb = RunMultiSessionEvent(traces, *bare, opt);

  RobustMultiSessionAdapter wrapped(MakeSystem("phased"), NetworkPath(),
                                    FaultPlan{}, Opts(4 * kBo));
  const MultiRunResult rw = RunMultiSessionEvent(traces, wrapped, opt);

  // Zero latency + a trivial plan: every per-session request commits in
  // the same slot it was issued, so the served schedule matches the bare
  // system's bit for bit.
  EXPECT_EQ(rb.total_delivered, rw.total_delivered);
  EXPECT_EQ(rb.final_queue, rw.final_queue);
  const FaultStats s = wrapped.fault_stats();
  EXPECT_EQ(s.losses, 0);
  EXPECT_EQ(s.denials, 0);
  EXPECT_EQ(s.timeouts, 0);
  EXPECT_EQ(s.fallbacks, 0);
  EXPECT_EQ(s.requests, s.commits);
}

TEST(RobustMultiSessionAdapter, MergedStatsAreExactSumOfLanes) {
  const auto traces = MultiSessionWorkload(MultiWorkloadKind::kChurn,
                                           kSessions, kBo, kDo, 2500, 56);
  FaultPlan plan;
  plan.loss_rate = 0.25;
  plan.denial_rate = 0.15;
  plan.max_jitter = 2;
  plan.seed = 77;
  RobustMultiSessionAdapter adapter(MakeSystem("continuous"),
                                    NetworkPath::Uniform(3, 1, 1.0), plan,
                                    Opts(5 * kBo));
  MultiEngineOptions opt;
  opt.drain_slots = 8 * kDo + 64 * 3;
  const MultiRunResult r = RunMultiSessionEvent(traces, adapter, opt);
  EXPECT_EQ(r.total_arrivals, r.total_delivered + r.final_queue);

  const std::vector<FaultStats> lanes = adapter.per_session_fault_stats();
  ASSERT_EQ(static_cast<std::int64_t>(lanes.size()), kSessions);
  FaultStats sum;
  bool lanes_differ = false;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    sum.Merge(lanes[i]);
    if (i > 0 && !(lanes[i] == lanes[0])) lanes_differ = true;
  }
  EXPECT_TRUE(sum == adapter.fault_stats());
  EXPECT_TRUE(lanes_differ)
      << "independent per-session seeds must fault differently";
  EXPECT_GT(sum.losses, 0);
}

// The acceptance sweep: all three algorithms, per-hop loss+denial storms,
// every cell conserves bits, drains, keeps committed totals inside the
// stale-commit-sound bound, and replays bitwise at any thread count.
TEST(RobustMultiSessionAdapter, DegradationSweepHoldsInvariants) {
  const std::vector<std::string> algos = {"phased", "continuous", "combined"};
  const std::vector<std::pair<double, double>> rates = {
      {0.0, 0.0}, {0.25, 0.0}, {0.0, 0.25}, {0.25, 0.25}};
  const std::int64_t cells =
      static_cast<std::int64_t>(algos.size() * rates.size() * 2);
  const SweepResult sweep = ParallelSweep(
      "multi-fault-sweep", cells, [&](const TaskContext& ctx) -> std::string {
        const std::int64_t i = ctx.key.index;
        const std::string& algo =
            algos[static_cast<std::size_t>(i) % algos.size()];
        const auto& [loss, denial] =
            rates[static_cast<std::size_t>(i / 3) % rates.size()];
        FaultPlan plan;
        plan.loss_rate = loss;
        plan.denial_rate = denial;
        plan.partial_grant_rate = 0.1;
        plan.max_jitter = 2;
        plan.seed = ctx.seed;
        const auto traces = MultiSessionWorkload(
            i % 2 == 0 ? MultiWorkloadKind::kRotatingHotspot
                       : MultiWorkloadKind::kChurn,
            kSessions, kBo, kDo, 2000, ctx.seed);
        MultiEngineOptions opt;
        opt.drain_slots = 4000;
        auto run = [&]() {
          RobustMultiSessionAdapter adapter(
              MakeSystem(algo), NetworkPath::Uniform(3, 1, 1.0), plan,
              Opts(DeclaredTotal(algo)));
          MultiRunResult r = RunMultiSessionEvent(traces, adapter, opt);
          r.faults = adapter.fault_stats();
          return r;
        };
        const MultiRunResult r = run();
        if (r.total_arrivals != r.total_delivered + r.final_queue) {
          return algo + ": bits lost";
        }
        if (r.final_queue != 0) return algo + ": queue not drained";
        if (r.peak_total_allocation >
            Bandwidth::FromBitsPerSlot(kSessions * DeclaredTotal(algo))) {
          return algo + ": committed total above the stale-commit bound";
        }
        const MultiRunResult again = run();
        if (!(again.faults == r.faults) ||
            again.total_delivered != r.total_delivered) {
          return algo + ": replay diverged";
        }
        return "";
      });
  EXPECT_TRUE(sweep.ok()) << sweep.Summary();
}

TEST(AggregateStats, MergesMultiFaultCountersExactly) {
  MultiRunResult r1;
  r1.faults.requests = 6;
  r1.faults.losses = 2;
  r1.faults.fallbacks = 1;
  MultiRunResult r2;
  r2.faults.requests = 3;
  r2.faults.denials = 4;

  AggregateStats a;
  a.Add(r1);
  a.Add(r2);
  EXPECT_EQ(a.faults.requests, 9);
  EXPECT_EQ(a.faults.losses, 2);
  EXPECT_EQ(a.faults.denials, 4);
  EXPECT_EQ(a.faults.fallbacks, 1);
}

TEST(MultiRunResultJson, CarriesFaultCounters) {
  MultiRunResult r;
  r.sessions = 2;
  r.faults.requests = 5;
  r.faults.commits = 4;
  r.per_session_faults.resize(2);
  r.per_session_faults[0].requests = 3;
  r.per_session_faults[1].requests = 2;
  const std::string json = ToJson(r);
  EXPECT_NE(json.find("\"faults\":{\"requests\":5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"per_session_faults\":[{\"requests\":3"),
            std::string::npos)
      << json;

  MultiRunResult bare;
  EXPECT_EQ(ToJson(bare).find("per_session_faults"), std::string::npos)
      << "fault-free runs must not grow a per-session fault array";
}

// The acceptance criterion at the suite level: a fault-enabled multi grid
// formats to the same bytes at --jobs=1 and --jobs=4.
TEST(MultiFaultSuite, ReportIsThreadCountInvariant) {
  SuiteSpec spec;
  spec.name = "multi-fault-detsuite";
  spec.kind = SuiteSpec::Kind::kMulti;
  spec.kinds = {"rotating-hotspot", "churn"};
  spec.session_counts = {2, 4};
  spec.multi_algo = "phased";
  spec.seeds = 2;
  spec.horizon = 1200;
  spec.fault_hops = 3;
  spec.fault_loss = 0.2;
  spec.fault_denial = 0.2;
  spec.fault_jitter = 2;

  BatchRunner serial(BatchOptions{1, 0});
  const SuiteReport a = RunSuite(spec, serial);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.aggregate.faults.any());

  BatchRunner sharded(BatchOptions{4, 0});
  const SuiteReport b = RunSuite(spec, sharded);
  ASSERT_TRUE(b.ok());

  EXPECT_TRUE(a.aggregate == b.aggregate);
  EXPECT_EQ(FormatReport(spec, a, false), FormatReport(spec, b, false));
  EXPECT_EQ(FormatReport(spec, a, true), FormatReport(spec, b, true));
}

}  // namespace
}  // namespace bwalloc
