// Differential harness gating the multi-session engine's pruning.
//
// The engine (RunMultiSessionEvent + the algorithms' hot sets and the
// channels' dirty/active lists) touches only the sessions that can change
// in a slot. It promises *byte identity* with the full-sweep reference —
// the same run with MultiSessionSystem::FullSweepForTest() armed, where
// every session is swept, scored and served every slot: same NDJSON
// trace, same auditor report, same MultiRunResult — not "statistically
// close", identical. This file is that gate. Each cell of a property grid
// runs the same workload pruned and full-sweep with full tracing and a
// live auditor, then compares the three artifacts byte for byte. Grids
// cover all three algorithms (plus the combined algorithm's continuous
// inner variant), every multi-session workload shape, fault-free and
// faulted control planes, and multiple ParallelSweep --jobs values. The
// full-sweep runs also re-check the channel aggregates and bit
// conservation against a recount every slot (in the engine).
//
// The negative control proves the gate has teeth: a run whose scheduled
// wakeups (phase boundaries, REDUCE leases) fire one slot late — armed
// via PerturbEventWakeupsForTest() — must produce *different* bytes on a
// workload that exercises those wakeups. If the perturbed run ever
// compares equal, the harness has gone blind and the test fails.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "core/params.h"
#include "net/multi_faults.h"
#include "net/path.h"
#include "obs/audit/auditor.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "runner/parallel_sweep.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "traffic/arrivals.h"
#include "traffic/sparse_bursts.h"
#include "traffic/workload_suite.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {
namespace {

enum class Mode { kFullSweep, kPruned, kPrunedPerturbed };

struct RunSpec {
  std::string algo = "phased";  // phased|continuous|combined|combined-continuous
  MultiWorkloadKind kind = MultiWorkloadKind::kRotatingHotspot;
  std::int64_t k = 4;
  Bits bo = 64;  // total offline bandwidth B_O
  Time d_o = 8;
  Time horizon = 500;
  std::uint64_t seed = 1;
  std::int64_t hops = 0;  // > 0 wraps the fault-lane adapter
  FaultPlan plan;
  // Heavy-tail sparse bursts (SparseBurstTrace) instead of `kind`.
  bool bursts = false;

  // Session churn: when `churned`, the workload comes from a generated
  // ChurnPlan (k is overwritten by the plan's channel count) and the run
  // goes through an AdmissionController + ChurnDriver, exactly like
  // `bwsim multi --arrivals`.
  bool churned = false;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  AdmissionPolicyKind admission = AdmissionPolicyKind::kGreedy;
  double churn_rate = 0.25;
  Time book_ahead = 0;
  std::int64_t max_pending = 0;

  std::string Label() const {
    std::string s = algo + "/" + (bursts ? "bursts" : ToString(kind)) +
                    "/k=" + std::to_string(k) + "/seed=" + std::to_string(seed);
    if (hops > 0) s += "/hops=" + std::to_string(hops);
    if (churned) {
      s += std::string("/churn=") + ToString(arrivals) + "+" +
           ToString(admission);
    }
    return s;
  }
};

struct RunArtifacts {
  MultiRunResult result;
  std::string trace_ndjson;
  std::string audit_json;
  EventEngineStats stats;
};

Bits DeclaredTotal(const RunSpec& spec) {
  const std::int64_t mult = spec.algo == "phased"       ? 4
                            : spec.algo == "continuous" ? 5
                            : spec.algo == "combined"   ? 7
                                                        : 8;
  return mult * spec.bo;
}

std::unique_ptr<MultiSessionSystem> MakeSystem(const RunSpec& spec) {
  if (spec.algo == "phased" || spec.algo == "continuous") {
    MultiSessionParams p;
    p.sessions = spec.k;
    p.offline_bandwidth = spec.bo;
    p.offline_delay = spec.d_o;
    if (spec.algo == "phased") return std::make_unique<PhasedMulti>(p);
    return std::make_unique<ContinuousMulti>(p);
  }
  CombinedParams p;
  p.sessions = spec.k;
  p.offline_bandwidth = spec.bo;
  p.offline_delay = spec.d_o;
  p.offline_utilization = Ratio(1, 2);
  p.window = 2 * spec.d_o;
  p.continuous_inner = spec.algo == "combined-continuous";
  return std::make_unique<CombinedOnline>(p);
}

// Mirrors `bwsim multi --audit` so the harness certifies the exact
// configuration users run.
AuditConfig MakeAuditConfig(const RunSpec& spec) {
  AuditConfig cfg =
      MultiAuditConfig(spec.k, spec.bo, spec.d_o, spec.algo == "phased");
  const bool combined =
      spec.algo == "combined" || spec.algo == "combined-continuous";
  if (combined) {
    cfg.phased = false;
    cfg.max_total_bandwidth = DeclaredTotal(spec);
    cfg.max_overflow_bandwidth = 0;
    cfg.loose_stages = true;
  }
  if (spec.hops > 0) {
    const RobustOptions::AuditSlack slack =
        RobustOptions{}.Slack(spec.hops, spec.plan.max_jitter, 8 * spec.d_o);
    cfg.delay_slack = slack.delay_slack;
    cfg.degraded_delay_slack = slack.degraded_delay_slack;
    cfg.fault_recovery_bound = slack.fault_recovery_bound;
    if (combined) cfg.max_delay = 0;
  }
  return cfg;
}

RunArtifacts RunOne(const RunSpec& spec_in, Mode mode) {
  RunSpec spec = spec_in;
  // The plan, policy, and driver live here so they outlive the engine call;
  // each RunOne builds fresh ones (the driver and policy are stateful).
  ChurnPlan plan;
  std::optional<AdmissionController> policy;
  std::optional<ChurnDriver> driver;
  SparseMultiTrace sparse;
  if (spec.bursts) {
    SparseBurstParams bp;
    bp.sessions = spec.k;
    bp.horizon = spec.horizon;
    bp.bursts_per_slot = static_cast<double>(spec.k) / 256.0;
    bp.burst_scale = 32;
    bp.tail_cap = 6;
    bp.seed = spec.seed;
    sparse = SparseBurstTrace(bp);
  } else if (spec.churned) {
    ArrivalParams ap;
    ap.horizon = spec.horizon;
    ap.offline_bandwidth = spec.bo;
    ap.offline_delay = spec.d_o;
    ap.arrival_rate = spec.churn_rate;
    ap.max_book_ahead = spec.book_ahead;
    ap.seed = spec.seed;
    plan = GenerateArrivals(spec.arrivals, ap);
    spec.k = plan.sessions;
    sparse = SparseMultiTrace::FromDense(plan.MaterializeTraces());
    AdmissionConfig ac;
    ac.policy = spec.admission;
    ac.capacity = spec.bo;
    ac.horizon = spec.horizon;
    ac.Validate();
    policy.emplace(ac);
    driver.emplace(plan, *policy, spec.max_pending);
  } else {
    sparse = SparseMultiTrace::FromDense(MultiSessionWorkload(
        spec.kind, spec.k, spec.bo, spec.d_o, spec.horizon, spec.seed));
  }

  std::unique_ptr<MultiSessionSystem> sys = MakeSystem(spec);
  RobustMultiSessionAdapter* robust = nullptr;
  if (spec.hops > 0) {
    RobustOptions mopts;
    mopts.fallback_bandwidth = DeclaredTotal(spec);
    auto adapter = std::make_unique<RobustMultiSessionAdapter>(
        std::move(sys), NetworkPath::Uniform(spec.hops, 1, 1.0), spec.plan,
        mopts);
    robust = adapter.get();
    sys = std::move(adapter);
  }

  MultiEngineOptions opt;
  opt.drain_slots = 8 * spec.d_o + (spec.hops > 0 ? 64 * spec.hops : 0);
  if (driver.has_value()) opt.churn = &*driver;
  BufferTraceSink sink;
  Auditor auditor(MakeAuditConfig(spec));
  AuditingSink audit_sink(&auditor, &sink);
  opt.tracer = Tracer(&audit_sink, kAllEvents, {"eq", 0});

  RunArtifacts out;
  opt.event_stats = &out.stats;
  if (mode == Mode::kFullSweep) sys->FullSweepForTest();
  if (mode == Mode::kPrunedPerturbed) sys->PerturbEventWakeupsForTest();
  out.result = RunMultiSessionEvent(sparse, *sys, opt);
  if (robust != nullptr) {
    out.result.faults = robust->fault_stats();
    out.result.per_session_faults = robust->per_session_fault_stats();
  }
  auditor.Finish();
  out.trace_ndjson = sink.ToNdjson();
  out.audit_json = auditor.ReportJson();
  return out;
}

// Index (1-based line number) of the first NDJSON line where a and b
// disagree, with both lines, for an actionable failure message.
std::string DescribeFirstDiff(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  std::size_t ai = 0;
  std::size_t bi = 0;
  while (ai < a.size() && bi < b.size()) {
    const std::size_t ae = a.find('\n', ai);
    const std::size_t be = b.find('\n', bi);
    const std::string la = a.substr(ai, ae == std::string::npos ? a.size() - ai
                                                                : ae - ai);
    const std::string lb = b.substr(bi, be == std::string::npos ? b.size() - bi
                                                                : be - bi);
    if (la != lb) {
      return "line " + std::to_string(line) + ": full-sweep=" + la +
             " pruned=" + lb;
    }
    if (ae == std::string::npos || be == std::string::npos) break;
    ai = ae + 1;
    bi = be + 1;
    ++line;
  }
  return "line " + std::to_string(line) +
         ": one trace ends early (full-sweep " + std::to_string(a.size()) +
         " bytes, pruned " + std::to_string(b.size()) + " bytes)";
}

// "" when the pruned run reproduced the full-sweep reference byte for byte.
std::string CompareToFullSweep(const RunSpec& spec) {
  const RunArtifacts full = RunOne(spec, Mode::kFullSweep);
  const RunArtifacts pruned = RunOne(spec, Mode::kPruned);
  // The reference must really have swept: every session scored every slot.
  if (full.stats.touched_session_slots !=
      full.result.sessions * full.result.horizon) {
    return spec.Label() + ": full-sweep run did not touch every session "
           "every slot";
  }
  if (full.trace_ndjson != pruned.trace_ndjson) {
    return spec.Label() +
           ": trace diverges at " +
           DescribeFirstDiff(full.trace_ndjson, pruned.trace_ndjson);
  }
  if (full.audit_json != pruned.audit_json) {
    return spec.Label() + ": audit reports differ: full-sweep=" +
           full.audit_json + " pruned=" + pruned.audit_json;
  }
  if (!(full.result == pruned.result)) {
    return spec.Label() + ": MultiRunResult differs (traces identical — "
           "engine-side aggregation bug)";
  }
  return "";
}

const std::vector<std::string> kAlgos = {"phased", "continuous", "combined",
                                         "combined-continuous"};
const std::vector<MultiWorkloadKind> kKinds = {
    MultiWorkloadKind::kBalanced, MultiWorkloadKind::kRotatingHotspot,
    MultiWorkloadKind::kChurn, MultiWorkloadKind::kSkewed};

// algos x kinds x k x seeds, fault-free, at --jobs 4. The k grid spans the
// smallest legal session count through a share that does not divide B_O
// evenly (k = 3: Q16 rounding paths).
TEST(EngineEquivalence, FaultFreeGridIsByteIdentical) {
  const std::vector<std::int64_t> ks = {2, 3, 8};
  const std::int64_t count =
      static_cast<std::int64_t>(kAlgos.size() * kKinds.size() * ks.size() * 2);
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "engine-eq-fault-free", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        RunSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        spec.kind = kKinds[static_cast<std::size_t>(idx) % kKinds.size()];
        idx /= static_cast<std::int64_t>(kKinds.size());
        spec.k = ks[static_cast<std::size_t>(idx) % ks.size()];
        idx /= static_cast<std::int64_t>(ks.size());
        spec.seed = static_cast<std::uint64_t>(idx + 1);
        spec.bo = 64;  // B_O must be a power of two; k = 3 still splits it
        spec.d_o = 8;
        spec.horizon = 500;
        return CompareToFullSweep(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// The same property holds with a serial runner: equivalence (and the
// sweep verdict) cannot depend on the thread count.
TEST(EngineEquivalence, FaultFreeGridIsByteIdenticalSingleJob) {
  const std::int64_t count =
      static_cast<std::int64_t>(kAlgos.size() * kKinds.size());
  SweepOptions sweep;
  sweep.jobs = 1;
  const SweepResult r = ParallelSweep(
      "engine-eq-fault-free-j1", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        RunSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        spec.kind = kKinds[static_cast<std::size_t>(idx) % kKinds.size()];
        spec.k = 5;
        spec.seed = 7;
        spec.bo = 64;
        spec.horizon = 400;
        return CompareToFullSweep(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// Heavy-tail sparse bursts (the bench_frontier scale-cell shape, scaled
// down): sessions sit idle for long stretches between bursts, so the hot
// sets shed and re-admit sessions constantly and boosted sessions go quiet
// before their RESET — the pruning decisions the dense workloads above,
// whose sessions send almost every slot, exercise least.
TEST(EngineEquivalence, SparseBurstGridIsByteIdentical) {
  const std::vector<std::int64_t> ks = {64, 256};
  const std::int64_t count =
      static_cast<std::int64_t>(kAlgos.size() * ks.size() * 2);
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "engine-eq-bursts", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        RunSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        spec.k = ks[static_cast<std::size_t>(idx) % ks.size()];
        idx /= static_cast<std::int64_t>(ks.size());
        spec.seed = static_cast<std::uint64_t>(idx + 1);
        spec.bursts = true;
        // Two bits/slot per session: nearly every burst overloads its
        // share, so stages end (and RESET) several times per run. A power
        // of two for these k.
        spec.bo = 2 * spec.k;
        spec.d_o = 16;
        spec.horizon = 1200;
        return CompareToFullSweep(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// Faulted control plane: the adapter steps its control model and its real
// channels sparsely while every lane still runs its retry state machine —
// the lossy/denying/jittery lanes must see identical request streams and
// the whole run (trace, audit, fault stats) stays byte-identical.
TEST(EngineEquivalence, FaultedGridIsByteIdentical) {
  struct Lane {
    double loss, denial, partial;
    Time jitter;
  };
  const std::vector<Lane> lanes = {{0.05, 0.0, 0.0, 0},
                                   {0.0, 0.1, 0.05, 1}};
  const std::vector<std::int64_t> ks = {2, 4};
  const std::int64_t count = static_cast<std::int64_t>(
      kAlgos.size() * lanes.size() * ks.size());
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "engine-eq-faulted", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        RunSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        const Lane& lane = lanes[static_cast<std::size_t>(idx) % lanes.size()];
        idx /= static_cast<std::int64_t>(lanes.size());
        spec.k = ks[static_cast<std::size_t>(idx) % ks.size()];
        spec.kind = MultiWorkloadKind::kRotatingHotspot;
        spec.seed = 3;
        spec.bo = 64;
        spec.horizon = 400;
        spec.hops = 2;
        spec.plan.loss_rate = lane.loss;
        spec.plan.denial_rate = lane.denial;
        spec.plan.partial_grant_rate = lane.partial;
        spec.plan.max_jitter = lane.jitter;
        spec.plan.seed = 0xFA1157ULL + static_cast<std::uint64_t>(ctx.key.index);
        return CompareToFullSweep(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// Negative control: a pruned run whose wakeups fire one slot late must
// NOT survive the byte-identity gate. One cell per algorithm family so
// both wakeup kinds are covered — phase boundaries (phased, combined) and
// REDUCE leases (continuous, combined-continuous).
TEST(EngineEquivalence, PerturbedWakeupsAreCaught) {
  for (const std::string& algo : kAlgos) {
    RunSpec spec;
    spec.algo = algo;
    spec.kind = MultiWorkloadKind::kRotatingHotspot;
    spec.k = 4;
    spec.bo = 64;
    spec.horizon = 500;
    spec.seed = 2;
    const RunArtifacts full = RunOne(spec, Mode::kFullSweep);
    const RunArtifacts bad = RunOne(spec, Mode::kPrunedPerturbed);
    EXPECT_NE(full.trace_ndjson, bad.trace_ndjson)
        << spec.Label()
        << ": off-by-one wakeups went undetected — the differential gate is "
           "blind on this configuration";
  }
}

// Soak (release mode; the same filter runs under TSan via
// tools/check.sh engine-eq): the faulted grid is byte-identical across
// seeds AND the *sweep artifacts* are identical across --jobs values, so
// the harness itself is schedule-independent.
TEST(EngineEquivalenceSoak, FaultedGridStableAcrossJobs) {
  const std::vector<std::string> algos = {"phased", "continuous",
                                          "combined-continuous"};
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  const std::int64_t count =
      static_cast<std::int64_t>(algos.size() * seeds.size());
  const std::vector<int> jobs_grid = {1, 2, 4};

  std::vector<std::vector<std::string>> digests;
  for (const int jobs : jobs_grid) {
    std::vector<std::string> digest(static_cast<std::size_t>(count));
    SweepOptions sweep;
    sweep.jobs = jobs;
    const SweepResult r = ParallelSweep(
        "engine-eq-soak", count,
        [&](const TaskContext& ctx) {
          std::int64_t idx = ctx.key.index;
          RunSpec spec;
          spec.algo = algos[static_cast<std::size_t>(idx) % algos.size()];
          idx /= static_cast<std::int64_t>(algos.size());
          spec.seed = seeds[static_cast<std::size_t>(idx) % seeds.size()];
          spec.kind = MultiWorkloadKind::kChurn;
          spec.k = 4;
          spec.bo = 64;
          spec.horizon = 400;
          spec.hops = 1;
          spec.plan.loss_rate = 0.05;
          spec.plan.denial_rate = 0.05;
          spec.plan.max_jitter = 1;
          spec.plan.seed = spec.seed * 977;
          const std::string verdict = CompareToFullSweep(spec);
          if (!verdict.empty()) return verdict;
          // Tasks write disjoint indices; safe under any jobs value.
          const RunArtifacts a = RunOne(spec, Mode::kPruned);
          digest[static_cast<std::size_t>(ctx.key.index)] =
              a.trace_ndjson + "\n---\n" + a.audit_json;
          return std::string();
        },
        sweep);
    ASSERT_TRUE(r.ok()) << "jobs=" << jobs << ": " << r.Summary();
    digests.push_back(std::move(digest));
  }
  for (std::size_t j = 1; j < digests.size(); ++j) {
    EXPECT_EQ(digests[0], digests[j])
        << "sweep artifacts differ between jobs=" << jobs_grid[0]
        << " and jobs=" << jobs_grid[j];
  }
}

// Session churn: dynamic arrivals through the shared ChurnDriver must
// keep the byte-identity gate — every lifecycle transition (admit,
// activate, depart, shed) lands at the same point in the pruned and
// full-sweep traces. Grid: all four algorithm variants x all three
// arrival processes, admission policies and book-ahead rotated through
// the cells, at --jobs 4.
TEST(EngineEquivalence, ChurnedGridIsByteIdentical) {
  const std::vector<ArrivalProcess> procs = {ArrivalProcess::kPoisson,
                                             ArrivalProcess::kMmpp,
                                             ArrivalProcess::kAdversarial};
  const std::vector<AdmissionPolicyKind> policies = {
      AdmissionPolicyKind::kGreedy, AdmissionPolicyKind::kThreshold,
      AdmissionPolicyKind::kLedger};
  const std::int64_t count =
      static_cast<std::int64_t>(kAlgos.size() * procs.size() * 2);
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "engine-eq-churn", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        RunSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        spec.churned = true;
        spec.arrivals = procs[static_cast<std::size_t>(idx) % procs.size()];
        idx /= static_cast<std::int64_t>(procs.size());
        spec.seed = static_cast<std::uint64_t>(idx + 1);
        spec.admission =
            policies[static_cast<std::size_t>(ctx.key.index) % policies.size()];
        spec.book_ahead = (ctx.key.index % 2 == 0) ? 0 : 5;
        spec.max_pending = (ctx.key.index % 3 == 0) ? 0 : 6;
        spec.bo = 64;
        spec.d_o = 8;
        spec.horizon = 400;
        return CompareToFullSweep(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// Churn on top of a degraded control plane: lanes join and leave while
// requests are lost, denied, and jittered; the whole run must still be
// byte-identical.
TEST(EngineEquivalence, ChurnedFaultedGridIsByteIdentical) {
  const std::int64_t count = static_cast<std::int64_t>(kAlgos.size() * 2);
  SweepOptions sweep;
  sweep.jobs = 2;
  const SweepResult r = ParallelSweep(
      "engine-eq-churn-faulted", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        RunSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        spec.seed = static_cast<std::uint64_t>(idx + 1);
        spec.churned = true;
        spec.arrivals = ArrivalProcess::kPoisson;
        spec.admission = AdmissionPolicyKind::kThreshold;
        spec.book_ahead = 4;
        spec.max_pending = 8;
        spec.bo = 64;
        spec.d_o = 8;
        spec.horizon = 400;
        spec.hops = 2;
        spec.plan.loss_rate = 0.1;
        spec.plan.denial_rate = 0.1;
        spec.plan.max_jitter = 1;
        spec.plan.seed = 7;
        return CompareToFullSweep(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// The churned gate cannot depend on the sweep's thread count.
TEST(EngineEquivalence, ChurnedGridIsByteIdenticalSingleJob) {
  SweepOptions sweep;
  sweep.jobs = 1;
  const SweepResult r = ParallelSweep(
      "engine-eq-churn-serial", static_cast<std::int64_t>(kAlgos.size()),
      [&](const TaskContext& ctx) {
        RunSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(ctx.key.index)];
        spec.churned = true;
        spec.arrivals = ArrivalProcess::kAdversarial;
        spec.admission = AdmissionPolicyKind::kGreedy;
        spec.seed = 3;
        spec.bo = 64;
        spec.d_o = 8;
        spec.horizon = 400;
        return CompareToFullSweep(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// The pruning's reason to exist: on a churn workload (sessions go silent
// in epochs) the engine must touch strictly fewer session-slots than a
// full sweep's k * (horizon + drain), and it must count every sparse
// arrival it was fed.
TEST(EngineEquivalence, EventEngineActuallySparse) {
  RunSpec spec;
  spec.algo = "phased";
  spec.kind = MultiWorkloadKind::kChurn;
  spec.k = 32;
  spec.bo = 512;
  spec.horizon = 600;
  spec.seed = 5;
  const std::vector<std::vector<Bits>> traces = MultiSessionWorkload(
      spec.kind, spec.k, spec.bo, spec.d_o, spec.horizon, spec.seed);
  const SparseMultiTrace sparse = SparseMultiTrace::FromDense(traces);

  const RunArtifacts a = RunOne(spec, Mode::kPruned);
  EXPECT_EQ(a.stats.arrival_events,
            static_cast<std::int64_t>(sparse.arrivals.size()));
  const std::int64_t dense_total =
      spec.k * (spec.horizon + 8 * spec.d_o);
  EXPECT_LT(a.stats.touched_session_slots, dense_total)
      << "engine touched every session every slot — no sparsity win";
  EXPECT_GT(a.stats.touched_session_slots, 0);
}

TEST(SparseMultiTraceTest, FromDenseDropsZerosExactly) {
  const std::vector<std::vector<Bits>> dense = {
      {0, 3, 0, 7}, {1, 0, 0, 7}, {0, 0, 0, 0}};
  const SparseMultiTrace sparse = SparseMultiTrace::FromDense(dense);
  sparse.Validate();
  EXPECT_EQ(sparse.sessions, 3);
  EXPECT_EQ(sparse.horizon, 4);
  ASSERT_EQ(sparse.slot_offsets.size(), 5u);
  EXPECT_EQ(sparse.arrivals.size(), 4u);
  const auto s0 = sparse.Slot(0);
  ASSERT_EQ(s0.size(), 1u);
  EXPECT_EQ(s0[0].session, 1);
  EXPECT_EQ(s0[0].bits, 1);
  const auto s3 = sparse.Slot(3);
  ASSERT_EQ(s3.size(), 2u);
  EXPECT_EQ(s3[0].session, 0);
  EXPECT_EQ(s3[1].session, 1);
  EXPECT_TRUE(sparse.Slot(2).empty());
}

TEST(SparseMultiTraceTest, ValidateRejectsMalformedTraces) {
  SparseMultiTrace t;
  t.sessions = 2;
  t.horizon = 1;
  t.slot_offsets = {0, 1};
  t.arrivals = {{5, 1}};  // session out of range
  EXPECT_THROW(t.Validate(), std::invalid_argument);

  t.arrivals = {{1, -3}};  // negative bits
  EXPECT_THROW(t.Validate(), std::invalid_argument);

  t.slot_offsets = {0, 2};  // offsets don't span arrivals
  t.arrivals = {{0, 1}};
  EXPECT_THROW(t.Validate(), std::invalid_argument);

  t.slot_offsets = {0, 2};  // sessions not ascending within slot
  t.arrivals = {{1, 1}, {0, 1}};
  EXPECT_THROW(t.Validate(), std::invalid_argument);
}

TEST(SparseMultiTraceTest, RaggedDenseTracesRejected) {
  const std::vector<std::vector<Bits>> dense = {{1, 2}, {1}};
  EXPECT_THROW(SparseMultiTrace::FromDense(dense), std::invalid_argument);
}

}  // namespace
}  // namespace bwalloc
