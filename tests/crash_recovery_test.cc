// Differential harness gating checkpoint/restore (the crash-tolerance
// tentpole).
//
// The promise under test: a run that is killed by a deterministic injected
// crash, restored from its last checkpoint, and run to completion produces
// *byte-identical* artifacts to the same run executed straight through —
// the NDJSON trace journal (truncated to the checkpoint's capture point
// and then appended to), the auditor's report, and the result JSON. Not
// "statistically close"; identical.
//
// The recovery protocol each cell exercises is exactly what the CLI
// (`bwsim ... --resume-from`) and the supervised batch runner do:
//   1. run with --checkpoint-every until CrashInjected fires, keeping the
//      last captured blob and the torn trace journal;
//   2. validate the blob, truncate the journal to meta.trace_events;
//   3. replay the surviving prefix into a *fresh* auditor, then feed it
//      the out-of-band kRestore event (which must match the journaled
//      kCheckpoint — the auditor's checkpoint monitor checks this);
//   4. build a fresh system, resume the engine from the blob, and let it
//      append to the truncated journal.
//
// Multi-session cells hold the crashed-and-resumed run — pruned or
// full-sweep (MultiSessionSystem::FullSweepForTest) — to the bytes of the
// straight full-sweep run, so each cell gates restore exactness and
// pruning exactness at once. Grids cover all four multi-session algorithm
// variants, the single-session algorithm, fault-free and faulted control
// planes, crashes before the first checkpoint (cold restart), exactly on a
// checkpoint slot, and mid-interval — swept at several --jobs values to
// pin schedule independence. Negative controls prove the gate has teeth:
// a restore whose state is nudged by one raw unit must diverge, and a blob
// with one flipped bit, a stale envelope version, or the removed naive
// engine's kind must be rejected.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/json.h"
#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "core/params.h"
#include "core/single_session.h"
#include "core/stage_trace.h"
#include "net/faults.h"
#include "net/multi_faults.h"
#include "net/path.h"
#include "obs/audit/auditor.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "runner/batch_runner.h"
#include "runner/crash_plan.h"
#include "core/admission.h"
#include "runner/parallel_sweep.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "state/checkpoint.h"
#include "state/serializer.h"
#include "traffic/arrivals.h"
#include "traffic/workload_suite.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {
namespace {

const TraceContext kCtx{"crash", 0};

enum class Sweep { kPruned, kFull };

// The three artifacts whose bytes must survive a crash.
struct Artifacts {
  std::string trace_ndjson;
  std::string audit_json;
  std::string result_json;

  friend bool operator==(const Artifacts&, const Artifacts&) = default;
};

// Index (1-based line) of the first divergence between two NDJSON traces.
std::string DescribeFirstDiff(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  std::size_t ai = 0;
  std::size_t bi = 0;
  while (ai < a.size() && bi < b.size()) {
    const std::size_t ae = a.find('\n', ai);
    const std::size_t be = b.find('\n', bi);
    const std::string la =
        a.substr(ai, ae == std::string::npos ? a.size() - ai : ae - ai);
    const std::string lb =
        b.substr(bi, be == std::string::npos ? b.size() - bi : be - bi);
    if (la != lb) {
      return "line " + std::to_string(line) + ": straight=" + la +
             " resumed=" + lb;
    }
    if (ae == std::string::npos || be == std::string::npos) break;
    ai = ae + 1;
    bi = be + 1;
    ++line;
  }
  return "line " + std::to_string(line) +
         ": one trace ends early (straight " + std::to_string(a.size()) +
         " bytes, resumed " + std::to_string(b.size()) + " bytes)";
}

std::string CompareArtifacts(const std::string& label, const Artifacts& s,
                             const Artifacts& r) {
  if (s.trace_ndjson != r.trace_ndjson) {
    return label + ": trace diverges at " +
           DescribeFirstDiff(s.trace_ndjson, r.trace_ndjson);
  }
  if (s.audit_json != r.audit_json) {
    return label + ": audit reports differ: straight=" + s.audit_json +
           " resumed=" + r.audit_json;
  }
  if (s.result_json != r.result_json) {
    return label + ": result JSON differs (traces identical — restored "
           "accumulator bug): straight=" + s.result_json +
           " resumed=" + r.result_json;
  }
  return "";
}

// Rebuilds an auditor to the checkpoint's capture point: truncate the torn
// journal, replay the surviving prefix, then feed the out-of-band kRestore
// handshake. Returns the fresh auditor. A crash before the first
// checkpoint (empty blob) is a cold restart: everything truncates to zero
// and no restore event is fed.
Auditor RecoverAuditor(const AuditConfig& cfg, const std::string& blob,
                       BufferTraceSink& sink) {
  std::int64_t keep = 0;
  if (!blob.empty()) {
    const CheckpointMeta meta = ReadCheckpointMeta(blob, "captured blob");
    keep = meta.trace_events;
  }
  sink.Truncate(keep);
  Auditor auditor(cfg);
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    auditor.OnEvent(sink.contexts()[i], sink.events()[i]);
  }
  if (!blob.empty()) {
    const CheckpointMeta meta = ReadCheckpointMeta(blob, "captured blob");
    TraceEvent restore;
    restore.type = TraceEventType::kRestore;
    restore.slot = meta.next_slot - 1;
    restore.session = -1;
    restore.a = meta.committed_total_raw;
    restore.b = meta.next_slot;
    auditor.OnEvent(kCtx, restore);
  }
  return auditor;
}

// ---------------------------------------------------------------------------
// Multi-session harness (mirrors engine_equivalence_test's configuration).
// ---------------------------------------------------------------------------

struct MultiSpec {
  std::string algo = "phased";
  MultiWorkloadKind kind = MultiWorkloadKind::kRotatingHotspot;
  std::int64_t k = 4;
  Bits bo = 64;
  Time d_o = 8;
  Time horizon = 400;
  std::uint64_t seed = 1;
  std::int64_t hops = 0;
  FaultPlan plan;
  Sweep sweep = Sweep::kPruned;
  Time every = 64;
  Time crash_at = 257;

  // Session churn: the workload comes from a generated ChurnPlan and the
  // run goes through an AdmissionController + ChurnDriver whose state
  // rides in the checkpoint's CHN1 section.
  bool churned = false;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  AdmissionPolicyKind admission = AdmissionPolicyKind::kGreedy;
  Time book_ahead = 0;
  std::int64_t max_pending = 0;

  std::string Label() const {
    std::string s = algo + "/" + ToString(kind) + "/k=" + std::to_string(k) +
                    "/seed=" + std::to_string(seed) +
                    (sweep == Sweep::kFull ? "/full-sweep" : "/pruned") +
                    "/crash=" + std::to_string(crash_at);
    if (hops > 0) s += "/hops=" + std::to_string(hops);
    if (churned) {
      s += std::string("/churn=") + ToString(arrivals) + "+" +
           ToString(admission);
    }
    return s;
  }
};

// Per-attempt churn state: the plan is borrowed by the driver, so both
// live side by side for the duration of one engine run.
struct ChurnState {
  ChurnPlan plan;
  std::optional<AdmissionController> policy;
  std::optional<ChurnDriver> driver;
};

// Resolves the offered traces for a spec; for a churned spec this also
// overwrites spec.k with the plan's channel count and builds a fresh
// policy + driver into `churn`.
std::vector<std::vector<Bits>> MultiTraces(MultiSpec& spec,
                                           ChurnState& churn) {
  if (!spec.churned) {
    return MultiSessionWorkload(spec.kind, spec.k, spec.bo, spec.d_o,
                                spec.horizon, spec.seed);
  }
  ArrivalParams ap;
  ap.horizon = spec.horizon;
  ap.offline_bandwidth = spec.bo;
  ap.offline_delay = spec.d_o;
  ap.arrival_rate = 0.3;
  ap.max_book_ahead = spec.book_ahead;
  ap.seed = spec.seed;
  churn.plan = GenerateArrivals(spec.arrivals, ap);
  spec.k = churn.plan.sessions;
  AdmissionConfig ac;
  ac.policy = spec.admission;
  ac.capacity = spec.bo;
  ac.horizon = spec.horizon;
  churn.policy.emplace(ac);
  churn.driver.emplace(churn.plan, *churn.policy, spec.max_pending);
  return churn.plan.MaterializeTraces();
}

Bits DeclaredTotal(const MultiSpec& spec) {
  const std::int64_t mult = spec.algo == "phased"       ? 4
                            : spec.algo == "continuous" ? 5
                            : spec.algo == "combined"   ? 7
                                                        : 8;
  return mult * spec.bo;
}

std::unique_ptr<MultiSessionSystem> MakeSystem(const MultiSpec& spec,
                                               RobustMultiSessionAdapter**
                                                   robust_out) {
  std::unique_ptr<MultiSessionSystem> sys;
  if (spec.algo == "phased" || spec.algo == "continuous") {
    MultiSessionParams p;
    p.sessions = spec.k;
    p.offline_bandwidth = spec.bo;
    p.offline_delay = spec.d_o;
    if (spec.algo == "phased") {
      sys = std::make_unique<PhasedMulti>(p);
    } else {
      sys = std::make_unique<ContinuousMulti>(p);
    }
  } else {
    CombinedParams p;
    p.sessions = spec.k;
    p.offline_bandwidth = spec.bo;
    p.offline_delay = spec.d_o;
    p.offline_utilization = Ratio(1, 2);
    p.window = 2 * spec.d_o;
    p.continuous_inner = spec.algo == "combined-continuous";
    sys = std::make_unique<CombinedOnline>(p);
  }
  *robust_out = nullptr;
  if (spec.hops > 0) {
    RobustOptions mopts;
    mopts.fallback_bandwidth = DeclaredTotal(spec);
    auto adapter = std::make_unique<RobustMultiSessionAdapter>(
        std::move(sys), NetworkPath::Uniform(spec.hops, 1, 1.0), spec.plan,
        mopts);
    *robust_out = adapter.get();
    sys = std::move(adapter);
  }
  if (spec.sweep == Sweep::kFull) sys->FullSweepForTest();
  return sys;
}

AuditConfig MakeAuditConfig(const MultiSpec& spec) {
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

MultiEngineOptions BaseMultiOptions(const MultiSpec& spec) {
  MultiEngineOptions opt;
  opt.drain_slots = 8 * spec.d_o + (spec.hops > 0 ? 64 * spec.hops : 0);
  return opt;
}

Artifacts StraightMulti(const MultiSpec& spec_in) {
  MultiSpec spec = spec_in;
  ChurnState churn;
  const std::vector<std::vector<Bits>> traces = MultiTraces(spec, churn);
  RobustMultiSessionAdapter* robust = nullptr;
  std::unique_ptr<MultiSessionSystem> sys = MakeSystem(spec, &robust);

  BufferTraceSink sink;
  Auditor auditor(MakeAuditConfig(spec));
  AuditingSink audit_sink(&auditor, &sink);
  MultiEngineOptions opt = BaseMultiOptions(spec);
  if (churn.driver.has_value()) opt.churn = &*churn.driver;
  opt.tracer = Tracer(&audit_sink, kAllEvents, kCtx);
  std::string blob;  // straight runs checkpoint too: same journal bytes
  opt.checkpoint.every = spec.every;
  opt.checkpoint.capture = &blob;

  MultiRunResult r = RunMultiSessionEvent(traces, *sys, opt);
  if (robust != nullptr) {
    r.faults = robust->fault_stats();
    r.per_session_faults = robust->per_session_fault_stats();
  }
  auditor.Finish();
  return {sink.ToNdjson(), auditor.ReportJson(), ToJson(r)};
}

Artifacts CrashAndResumeMulti(const MultiSpec& spec_in,
                              bool perturb_restore = false) {
  // Attempt 1: run until the injected crash, keeping the last checkpoint
  // blob and the torn journal. Each attempt regenerates its own (seeded,
  // deterministic) traces and churn state, exactly like a fresh process.
  std::string blob;
  BufferTraceSink sink;
  {
    MultiSpec spec = spec_in;
    ChurnState churn;
    const std::vector<std::vector<Bits>> traces = MultiTraces(spec, churn);
    RobustMultiSessionAdapter* robust = nullptr;
    std::unique_ptr<MultiSessionSystem> sys = MakeSystem(spec, &robust);
    Auditor crash_auditor(MakeAuditConfig(spec));  // dies with the process
    AuditingSink audit_sink(&crash_auditor, &sink);
    MultiEngineOptions opt = BaseMultiOptions(spec);
    if (churn.driver.has_value()) opt.churn = &*churn.driver;
    opt.tracer = Tracer(&audit_sink, kAllEvents, kCtx);
    opt.checkpoint.every = spec.every;
    opt.checkpoint.capture = &blob;
    opt.checkpoint.crash_at = spec.crash_at;
    bool crashed = false;
    try {
      RunMultiSessionEvent(traces, *sys, opt);
    } catch (const CrashInjected&) {
      crashed = true;
    }
    if (!crashed) {
      throw std::runtime_error(spec.Label() +
                               ": crash slot never fired — bad spec");
    }
  }

  // Attempt 2: recover. Fresh auditor rebuilt from the truncated journal,
  // fresh system restored from the blob, journal appended in place. The
  // fresh driver's state (and its admission policy's) loads from the
  // blob's CHN1 section alongside the system state.
  MultiSpec spec = spec_in;
  ChurnState churn;
  const std::vector<std::vector<Bits>> traces = MultiTraces(spec, churn);
  Auditor auditor = RecoverAuditor(MakeAuditConfig(spec), blob, sink);
  RobustMultiSessionAdapter* robust = nullptr;
  std::unique_ptr<MultiSessionSystem> sys = MakeSystem(spec, &robust);
  AuditingSink audit_sink(&auditor, &sink);
  MultiEngineOptions opt = BaseMultiOptions(spec);
  if (churn.driver.has_value()) opt.churn = &*churn.driver;
  opt.tracer = Tracer(&audit_sink, kAllEvents, kCtx);
  opt.checkpoint.every = spec.every;
  std::string blob2;
  opt.checkpoint.capture = &blob2;
  if (!blob.empty()) {
    opt.checkpoint.resume = &blob;
    opt.checkpoint.perturb_restore_for_test = perturb_restore;
  }
  MultiRunResult r = RunMultiSessionEvent(traces, *sys, opt);
  if (robust != nullptr) {
    r.faults = robust->fault_stats();
    r.per_session_faults = robust->per_session_fault_stats();
  }
  auditor.Finish();
  return {sink.ToNdjson(), auditor.ReportJson(), ToJson(r)};
}

// The crashed-and-resumed run (pruned or full-sweep, per spec.sweep)
// against the straight full-sweep reference.
std::string CompareMulti(const MultiSpec& spec) {
  MultiSpec reference = spec;
  reference.sweep = Sweep::kFull;
  return CompareArtifacts(spec.Label(), StraightMulti(reference),
                          CrashAndResumeMulti(spec));
}

// ---------------------------------------------------------------------------
// Single-session harness (mirrors `bwsim single --audit`).
// ---------------------------------------------------------------------------

struct SingleSpec {
  std::string workload = "mixed";
  Bits ba = 64;
  Time da = 24;
  std::int64_t inv_ua = 6;  // U_A = 1/6
  Time w = 12;
  Time horizon = 400;
  std::uint64_t seed = 1;
  std::int64_t hops = 0;
  FaultPlan plan;
  Time every = 64;
  Time crash_at = 257;

  std::string Label() const {
    std::string s = "single/" + workload + "/seed=" + std::to_string(seed) +
                    "/crash=" + std::to_string(crash_at);
    if (hops > 0) s += "/hops=" + std::to_string(hops);
    return s;
  }
};

AuditConfig MakeSingleAuditConfig(const SingleSpec& spec) {
  AuditConfig cfg = SingleAuditConfig(spec.ba, spec.da, spec.inv_ua, spec.w);
  if (spec.hops > 0) {
    cfg.delay_slack = 2 * (spec.hops + spec.plan.max_jitter) + 2;
    cfg.degraded_delay_slack = 4 * spec.da + 64 * spec.hops;
  }
  return cfg;
}

// Runs the single-session algorithm over `trace` with full tracing, the
// stage observer, and the given checkpoint options — the bwsim wiring.
SingleRunResult RunSingleOnce(const SingleSpec& spec,
                              const std::vector<Bits>& trace,
                              Auditor& auditor, BufferTraceSink& sink,
                              const CheckpointOptions& ckpt) {
  AuditingSink audit_sink(&auditor, &sink);
  SingleEngineOptions opt;
  opt.drain_slots = 4 * spec.da + (spec.hops > 0 ? 64 * spec.hops : 0);
  opt.tracer = Tracer(&audit_sink, kAllEvents, kCtx);
  opt.checkpoint = ckpt;

  SingleSessionParams p;
  p.max_bandwidth = spec.ba;
  p.max_delay = spec.da;
  p.min_utilization = Ratio(1, spec.inv_ua);
  p.window = spec.w;
  std::unique_ptr<SingleSessionAllocator> alloc =
      std::make_unique<SingleSessionOnline>(p);
  TracerStageObserver stage_observer(opt.tracer);
  static_cast<SingleSessionOnline*>(alloc.get())
      ->SetObserver(&stage_observer);

  RobustSignalingAdapter* robust = nullptr;
  if (spec.hops > 0) {
    RobustOptions ropts;
    ropts.fallback_bandwidth = spec.ba;
    auto adapter = std::make_unique<RobustSignalingAdapter>(
        std::move(alloc), NetworkPath::Uniform(spec.hops, 1, 1.0), spec.plan,
        ropts);
    robust = adapter.get();
    robust->SetTracer(opt.tracer);
    alloc = std::move(adapter);
  }
  SingleRunResult r = RunSingleSession(trace, *alloc, opt);
  if (robust != nullptr) r.faults = robust->fault_stats();
  return r;
}

Artifacts StraightSingle(const SingleSpec& spec) {
  const std::vector<Bits> trace = SingleSessionWorkload(
      spec.workload, spec.ba, spec.da / 2, spec.horizon, spec.seed);
  BufferTraceSink sink;
  Auditor auditor(MakeSingleAuditConfig(spec));
  CheckpointOptions ckpt;
  ckpt.every = spec.every;
  std::string blob;
  ckpt.capture = &blob;
  const SingleRunResult r = RunSingleOnce(spec, trace, auditor, sink, ckpt);
  auditor.Finish();
  return {sink.ToNdjson(), auditor.ReportJson(), ToJson(r)};
}

Artifacts CrashAndResumeSingle(const SingleSpec& spec,
                               bool perturb_restore = false) {
  const std::vector<Bits> trace = SingleSessionWorkload(
      spec.workload, spec.ba, spec.da / 2, spec.horizon, spec.seed);

  std::string blob;
  BufferTraceSink sink;
  {
    Auditor crash_auditor(MakeSingleAuditConfig(spec));
    CheckpointOptions ckpt;
    ckpt.every = spec.every;
    ckpt.capture = &blob;
    ckpt.crash_at = spec.crash_at;
    bool crashed = false;
    try {
      RunSingleOnce(spec, trace, crash_auditor, sink, ckpt);
    } catch (const CrashInjected&) {
      crashed = true;
    }
    if (!crashed) {
      throw std::runtime_error(spec.Label() +
                               ": crash slot never fired — bad spec");
    }
  }

  Auditor auditor = RecoverAuditor(MakeSingleAuditConfig(spec), blob, sink);
  CheckpointOptions ckpt;
  ckpt.every = spec.every;
  std::string blob2;
  ckpt.capture = &blob2;
  if (!blob.empty()) {
    ckpt.resume = &blob;
    ckpt.perturb_restore_for_test = perturb_restore;
  }
  const SingleRunResult r = RunSingleOnce(spec, trace, auditor, sink, ckpt);
  auditor.Finish();
  return {sink.ToNdjson(), auditor.ReportJson(), ToJson(r)};
}

std::string CompareSingle(const SingleSpec& spec) {
  return CompareArtifacts(spec.Label(), StraightSingle(spec),
                          CrashAndResumeSingle(spec));
}

// ---------------------------------------------------------------------------
// The grids.
// ---------------------------------------------------------------------------

const std::vector<std::string> kAlgos = {"phased", "continuous", "combined",
                                         "combined-continuous"};

// All four multi algorithms x {pruned, full-sweep} x {fault-free, faulted},
// swept at --jobs 4. Crash slot 257 sits mid-interval past four
// checkpoints.
TEST(CrashRecovery, MultiGridIsByteIdentical) {
  const std::int64_t count = static_cast<std::int64_t>(kAlgos.size() * 2 * 2);
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "crash-recovery-multi", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        MultiSpec spec;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        spec.sweep = idx % 2 == 0 ? Sweep::kFull : Sweep::kPruned;
        idx /= 2;
        if (idx % 2 == 1) {
          spec.hops = 2;
          spec.plan.loss_rate = 0.05;
          spec.plan.denial_rate = 0.1;
          spec.plan.partial_grant_rate = 0.05;
          spec.plan.max_jitter = 1;
          spec.plan.seed = 0xC4A5ULL + static_cast<std::uint64_t>(ctx.key.index);
        }
        return CompareMulti(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// Churned runs: the checkpoint additionally carries the ChurnDriver's
// CHN1 section (phase vector, pending set, stats, admission ledger), and
// the resumed attempt must replay departures/admissions/sheds byte-for-
// byte against the straight run. One faulted arm exercises the
// RobustMultiSessionAdapter's departure path under churn.
TEST(CrashRecovery, ChurnedMultiGridIsByteIdentical) {
  const std::int64_t count = static_cast<std::int64_t>(kAlgos.size() * 2 * 2);
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "crash-recovery-churn", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        MultiSpec spec;
        spec.churned = true;
        spec.algo = kAlgos[static_cast<std::size_t>(idx) % kAlgos.size()];
        idx /= static_cast<std::int64_t>(kAlgos.size());
        spec.sweep = idx % 2 == 0 ? Sweep::kFull : Sweep::kPruned;
        idx /= 2;
        if (idx % 2 == 0) {
          // Booked-ahead Poisson arrivals through the slot ledger, with an
          // overload queue that forces sheds.
          spec.arrivals = ArrivalProcess::kPoisson;
          spec.admission = AdmissionPolicyKind::kLedger;
          spec.book_ahead = 6;
          spec.max_pending = 4;
        } else {
          // Adversarial stream through greedy admission, over a lossy
          // 2-hop signalling path: departures race in-flight requests.
          spec.arrivals = ArrivalProcess::kAdversarial;
          spec.admission = AdmissionPolicyKind::kGreedy;
          spec.seed = 3;
          spec.hops = 2;
          spec.plan.loss_rate = 0.05;
          spec.plan.denial_rate = 0.1;
          spec.plan.max_jitter = 1;
          spec.plan.seed = 0xC4A5ULL + static_cast<std::uint64_t>(ctx.key.index);
        }
        return CompareMulti(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// Crash-position sweep on one algorithm per family: before the first
// checkpoint (cold restart), exactly on a checkpoint slot, and on the very
// last pre-drain slot.
TEST(CrashRecovery, CrashPositionsAreByteIdentical) {
  const std::vector<Time> crashes = {62, 255, 399};
  const std::vector<std::string> algos = {"phased", "combined-continuous"};
  const std::int64_t count =
      static_cast<std::int64_t>(crashes.size() * algos.size() * 2);
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "crash-recovery-positions", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        MultiSpec spec;
        spec.crash_at = crashes[static_cast<std::size_t>(idx) % crashes.size()];
        idx /= static_cast<std::int64_t>(crashes.size());
        spec.algo = algos[static_cast<std::size_t>(idx) % algos.size()];
        idx /= static_cast<std::int64_t>(algos.size());
        spec.sweep = idx % 2 == 0 ? Sweep::kFull : Sweep::kPruned;
        spec.kind = MultiWorkloadKind::kChurn;
        spec.seed = 9;
        return CompareMulti(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// Single-session algorithm: workloads x fault lanes x crash positions.
TEST(CrashRecovery, SingleGridIsByteIdentical) {
  const std::vector<std::string> workloads = {"mixed", "onoff"};
  const std::vector<Time> crashes = {62, 257};
  const std::int64_t count =
      static_cast<std::int64_t>(workloads.size() * crashes.size() * 2);
  SweepOptions sweep;
  sweep.jobs = 4;
  const SweepResult r = ParallelSweep(
      "crash-recovery-single", count,
      [&](const TaskContext& ctx) {
        std::int64_t idx = ctx.key.index;
        SingleSpec spec;
        spec.workload =
            workloads[static_cast<std::size_t>(idx) % workloads.size()];
        idx /= static_cast<std::int64_t>(workloads.size());
        spec.crash_at = crashes[static_cast<std::size_t>(idx) % crashes.size()];
        idx /= static_cast<std::int64_t>(crashes.size());
        if (idx % 2 == 1) {
          spec.hops = 2;
          spec.plan.loss_rate = 0.05;
          spec.plan.denial_rate = 0.05;
          spec.plan.max_jitter = 1;
          spec.plan.seed = 0x51ULL + static_cast<std::uint64_t>(ctx.key.index);
        }
        return CompareSingle(spec);
      },
      sweep);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// The sweep artifacts themselves are identical across --jobs values — the
// recovery harness, like the engines, is schedule-independent.
TEST(CrashRecovery, StableAcrossJobs) {
  const std::vector<std::string> algos = {"phased", "continuous"};
  const std::int64_t count = static_cast<std::int64_t>(algos.size() * 2);
  const std::vector<int> jobs_grid = {1, 2, 4};

  std::vector<std::vector<std::string>> digests;
  for (const int jobs : jobs_grid) {
    std::vector<std::string> digest(static_cast<std::size_t>(count));
    SweepOptions sweep;
    sweep.jobs = jobs;
    const SweepResult r = ParallelSweep(
        "crash-recovery-jobs", count,
        [&](const TaskContext& ctx) {
          std::int64_t idx = ctx.key.index;
          MultiSpec spec;
          spec.algo = algos[static_cast<std::size_t>(idx) % algos.size()];
          idx /= static_cast<std::int64_t>(algos.size());
          spec.sweep = idx % 2 == 0 ? Sweep::kFull : Sweep::kPruned;
          spec.seed = 21;
          const std::string verdict = CompareMulti(spec);
          if (!verdict.empty()) return verdict;
          const Artifacts a = CrashAndResumeMulti(spec);
          digest[static_cast<std::size_t>(ctx.key.index)] =
              a.trace_ndjson + "\n---\n" + a.audit_json + "\n---\n" +
              a.result_json;
          return std::string();
        },
        sweep);
    ASSERT_TRUE(r.ok()) << "jobs=" << jobs << ": " << r.Summary();
    digests.push_back(std::move(digest));
  }
  for (std::size_t j = 1; j < digests.size(); ++j) {
    EXPECT_EQ(digests[0], digests[j])
        << "recovery artifacts differ between jobs=" << jobs_grid[0]
        << " and jobs=" << jobs_grid[j];
  }
}

// ---------------------------------------------------------------------------
// Negative controls: the gate must have teeth.
// ---------------------------------------------------------------------------

// A restore whose state is nudged by one raw Q16 unit must NOT survive the
// byte-identity gate — if it does, the harness has gone blind.
TEST(CrashRecovery, PerturbedRestoreIsCaught) {
  for (const std::string& algo : {std::string("phased"),
                                  std::string("combined-continuous")}) {
    MultiSpec spec;
    spec.algo = algo;
    spec.seed = 2;
    const Artifacts straight = StraightMulti(spec);
    const Artifacts bad = CrashAndResumeMulti(spec, /*perturb_restore=*/true);
    EXPECT_NE(straight.trace_ndjson, bad.trace_ndjson)
        << spec.Label()
        << ": a perturbed restore went undetected — the differential gate "
           "is blind on this configuration";
  }
  SingleSpec sspec;
  sspec.seed = 2;
  const Artifacts straight = StraightSingle(sspec);
  const Artifacts bad = CrashAndResumeSingle(sspec, /*perturb_restore=*/true);
  EXPECT_NE(straight.trace_ndjson, bad.trace_ndjson)
      << sspec.Label() << ": a perturbed single-session restore went "
                          "undetected";
}

// The last checkpoint blob of a default multi spec crashed at spec.crash_at.
std::string CaptureMultiBlob(const MultiSpec& spec) {
  const std::vector<std::vector<Bits>> traces = MultiSessionWorkload(
      spec.kind, spec.k, spec.bo, spec.d_o, spec.horizon, spec.seed);
  std::string blob;
  RobustMultiSessionAdapter* robust = nullptr;
  std::unique_ptr<MultiSessionSystem> sys = MakeSystem(spec, &robust);
  MultiEngineOptions opt = BaseMultiOptions(spec);
  opt.checkpoint.every = spec.every;
  opt.checkpoint.capture = &blob;
  opt.checkpoint.crash_at = spec.crash_at;
  EXPECT_THROW(RunMultiSessionEvent(traces, *sys, opt), CrashInjected);
  return blob;
}

void ExpectResumeRejected(const MultiSpec& spec, const std::string& blob) {
  const std::vector<std::vector<Bits>> traces = MultiSessionWorkload(
      spec.kind, spec.k, spec.bo, spec.d_o, spec.horizon, spec.seed);
  RobustMultiSessionAdapter* robust = nullptr;
  std::unique_ptr<MultiSessionSystem> sys = MakeSystem(spec, &robust);
  MultiEngineOptions opt = BaseMultiOptions(spec);
  opt.checkpoint.resume = &blob;
  EXPECT_THROW(RunMultiSessionEvent(traces, *sys, opt), CheckpointError);
}

// A checkpoint blob with one flipped payload bit must be rejected at
// resume time, never silently restored.
TEST(CrashRecovery, CorruptedBlobIsRejectedAtResume) {
  const MultiSpec spec;
  std::string blob = CaptureMultiBlob(spec);
  ASSERT_FALSE(blob.empty());
  blob.back() = static_cast<char>(blob.back() ^ 0x01);
  ExpectResumeRejected(spec, blob);
}

// A blob of the removed naive engine's kind "multi" must not restore, even
// inside a current-version envelope.
TEST(CrashRecovery, KindMismatchIsRejected) {
  const MultiSpec spec;
  const std::string blob = CaptureMultiBlob(spec);
  ASSERT_FALSE(blob.empty());
  const std::string payload = UnwrapCheckpoint(blob, "capture");
  StateReader r(payload);
  CheckpointMeta meta;
  meta.Load(r);
  ASSERT_EQ(meta.kind, kMultiCheckpointKind);
  meta.kind = "multi";
  StateWriter w;
  meta.Save(w);
  ExpectResumeRejected(
      spec, WrapCheckpoint(w.bytes() +
                           payload.substr(payload.size() - r.remaining())));
}

// A version-1 envelope predates the single engine's layout: refused before
// any of it is parsed.
TEST(CrashRecovery, VersionOneBlobIsRejected) {
  const MultiSpec spec;
  std::string blob = CaptureMultiBlob(spec);
  ASSERT_FALSE(blob.empty());
  // The version u32 (little-endian) sits immediately after the magic.
  blob.replace(kCheckpointMagic.size(), 4, std::string("\x01\0\0\0", 4));
  ExpectResumeRejected(spec, blob);
}

// The auditor's checkpoint monitor: a kRestore that does not match the
// last journaled kCheckpoint is a violation.
TEST(CrashRecovery, AuditorFlagsMismatchedRestore) {
  Auditor auditor{AuditConfig{}};
  TraceEvent ckpt;
  ckpt.type = TraceEventType::kCheckpoint;
  ckpt.slot = 63;
  ckpt.a = 1000;  // committed total
  ckpt.b = 64;    // resume slot
  auditor.OnEvent(kCtx, ckpt);
  ASSERT_TRUE(auditor.ok());

  TraceEvent restore;
  restore.type = TraceEventType::kRestore;
  restore.slot = 63;
  restore.a = 999;  // regressed committed total — torn state
  restore.b = 64;
  auditor.OnEvent(kCtx, restore);
  EXPECT_FALSE(auditor.ok());
}

// ... and a checkpoint whose committed total regresses is a violation too
// (checkpoints must never lose committed allocations).
TEST(CrashRecovery, AuditorFlagsRegressedCheckpoint) {
  Auditor auditor{AuditConfig{}};
  TraceEvent a;
  a.type = TraceEventType::kCheckpoint;
  a.slot = 63;
  a.a = 1000;
  a.b = 64;
  auditor.OnEvent(kCtx, a);
  TraceEvent b;
  b.type = TraceEventType::kCheckpoint;
  b.slot = 127;
  b.a = 900;  // total went backwards
  b.b = 128;
  auditor.OnEvent(kCtx, b);
  EXPECT_FALSE(auditor.ok());
}

// ---------------------------------------------------------------------------
// Supervised batch runner: crashed cells restart from their checkpoint and
// the whole batch stays byte-identical to a crash-free run.
// ---------------------------------------------------------------------------

TEST(SupervisedRunner, CrashedCellsRecoverToIdenticalBytes) {
  const std::int64_t count = 6;
  CrashPlan plan;
  plan.seed = 42;
  plan.crash_rate = 0.7;
  plan.min_slot = 32;  // spans cold restarts (< first checkpoint at 63)
  plan.max_slot = 300;

  MultiSpec base;
  base.algo = "phased";
  base.seed = 5;

  // Per-cell crash survivors: the checkpoint blob and the torn journal.
  // Disjoint slots per task index — safe under any jobs value.
  std::vector<std::string> blobs(static_cast<std::size_t>(count));
  std::vector<BufferTraceSink> sinks(static_cast<std::size_t>(count));

  auto run_cell = [&](const TaskContext& ctx, std::int64_t attempt,
                      bool supervised) {
    const auto i = static_cast<std::size_t>(ctx.key.index);
    MultiSpec spec = base;
    spec.seed = base.seed + static_cast<std::uint64_t>(ctx.key.index);
    const std::vector<std::vector<Bits>> traces = MultiSessionWorkload(
        spec.kind, spec.k, spec.bo, spec.d_o, spec.horizon, spec.seed);

    std::string* blob = supervised ? &blobs[i] : nullptr;
    BufferTraceSink local_sink;
    BufferTraceSink& sink = supervised ? sinks[i] : local_sink;
    std::string local_blob;
    if (blob == nullptr) blob = &local_blob;

    RobustMultiSessionAdapter* robust = nullptr;
    std::unique_ptr<MultiSessionSystem> sys = MakeSystem(spec, &robust);
    MultiEngineOptions opt = BaseMultiOptions(spec);
    opt.checkpoint.every = spec.every;
    // attempt > 0: last capture — possibly empty (crash before the first
    // checkpoint), which RecoverAuditor treats as a cold restart.
    const std::string resume_blob = attempt > 0 ? *blob : std::string();
    if (!resume_blob.empty()) opt.checkpoint.resume = &resume_blob;
    opt.checkpoint.capture = blob;
    if (supervised) {
      opt.checkpoint.crash_at = plan.CrashSlotFor(ctx.key, attempt);
    }
    // Truncates the sink to the prefix the checkpoint covers (all of it
    // away on a cold restart), replays it into a fresh auditor, and feeds
    // the out-of-band restore event.
    Auditor auditor = RecoverAuditor(AuditConfig{}, resume_blob, sink);
    AuditingSink audit_sink(&auditor, &sink);
    opt.tracer = Tracer(&audit_sink, kAllEvents, kCtx);
    const MultiRunResult r = RunMultiSessionEvent(traces, *sys, opt);
    return sink.ToNdjson() + "\n---\n" + ToJson(r);
  };

  BatchOptions bopts;
  bopts.jobs = 4;
  BatchRunner runner(bopts);

  // Reference: the same suite, no crashes, plain Map.
  const BatchResult<std::string> reference =
      runner.Map<std::string>("supervised", count, [&](const TaskContext& ctx) {
        return run_cell(ctx, 0, /*supervised=*/false);
      });
  ASSERT_TRUE(reference.ok()) << FormatErrors(reference.errors);

  std::int64_t crashes = 0;
  const BatchResult<std::string> supervised = runner.MapSupervised<std::string>(
      "supervised", count,
      [&](const TaskContext& ctx, std::int64_t attempt) {
        return run_cell(ctx, attempt, /*supervised=*/true);
      },
      &crashes);
  ASSERT_TRUE(supervised.ok()) << FormatErrors(supervised.errors);

  // The plan must actually have crashed some cells (and spared at least
  // one) or this test proves nothing.
  EXPECT_GT(crashes, 0) << "crash plan injected nothing";
  EXPECT_LT(crashes, count) << "every cell crashed — no straight-through "
                               "cell in the comparison";

  for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
    ASSERT_TRUE(reference.results[i].has_value());
    ASSERT_TRUE(supervised.results[i].has_value());
    EXPECT_EQ(*reference.results[i], *supervised.results[i])
        << "cell " << i << " diverged after supervised recovery";
  }
}

// CrashSlotFor is a pure function of (seed, key): same plan, same
// schedule, regardless of execution order; restarts never crash again.
TEST(CrashPlanTest, DeterministicAndRestartSafe) {
  CrashPlan plan;
  plan.seed = 7;
  plan.crash_rate = 0.5;
  plan.min_slot = 10;
  plan.max_slot = 100;
  bool any_crash = false;
  bool any_spared = false;
  for (std::int64_t i = 0; i < 32; ++i) {
    const TaskKey key{"suite", i};
    const Time first = plan.CrashSlotFor(key, 0);
    EXPECT_EQ(first, plan.CrashSlotFor(key, 0)) << "draw not reproducible";
    EXPECT_EQ(plan.CrashSlotFor(key, 1), kNoTime)
        << "a restart must never crash again";
    if (first == kNoTime) {
      any_spared = true;
    } else {
      any_crash = true;
      EXPECT_GE(first, plan.min_slot);
      EXPECT_LE(first, plan.max_slot);
    }
  }
  EXPECT_TRUE(any_crash);
  EXPECT_TRUE(any_spared);
  CrashPlan off;
  EXPECT_EQ(off.CrashSlotFor({"suite", 0}, 0), kNoTime);
}

}  // namespace
}  // namespace bwalloc
