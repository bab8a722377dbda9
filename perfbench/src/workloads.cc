#include "workloads.h"

#include <memory>
#include <utility>

#include "analysis/json.h"
#include "core/admission.h"
#include "core/combined.h"
#include "core/multi_phased.h"
#include "net/multi_faults.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "state/checkpoint.h"
#include "traffic/arrivals.h"
#include "traffic/sparse_bursts.h"
#include "traffic/workload_suite.h"
#include "util/power_of_two.h"
#include "util/ratio.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using bwalloc::Bits;
using bwalloc::MultiRunResult;
using bwalloc::MultiSessionSystem;
using bwalloc::SparseMultiTrace;
using bwalloc::Time;

// Seed of one generator of a workload: every input derives from --seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  return bwalloc::DeriveStream(seed, stream);
}

// Timekeeping of one pass. Check work that must run inside the pass (input
// bit sums taken before an input is freed) goes through Untimed and is
// subtracted from setup_s and total_s.
class Pass {
 public:
  PassOutput out;

  template <class F>
  auto Timed(double* acc, F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto value = f();
    *acc += SecondsBetween(t0, Clock::now());
    return value;
  }

  template <class F>
  void Untimed(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    untimed_s_ += SecondsBetween(t0, Clock::now());
  }

  // One engine call. `session_slots` is sessions declared by the input x
  // slots this call simulates. Returns nullopt when the call ended in an
  // injected crash.
  std::optional<MultiRunResult> Engine(const SparseMultiTrace& sparse,
                                       MultiSessionSystem& system,
                                       bwalloc::MultiEngineOptions opt,
                                       std::int64_t session_slots) {
    bwalloc::EventEngineStats stats;
    opt.event_stats = &stats;
    const Clock::time_point t0 = Clock::now();
    if (out.operations == 0) {
      out.first_engine = t0;
      out.untimed_before_engine_s = untimed_s_;
    }
    ++out.operations;
    std::optional<MultiRunResult> r;
    try {
      r = bwalloc::RunMultiSessionEvent(sparse, system, opt);
    } catch (const bwalloc::CrashInjected&) {
    }
    const double dt = SecondsBetween(t0, Clock::now());
    out.sim_s += dt;
    out.session_slots += session_slots;
    out.probe.engine_s += dt;
    out.probe.arrival_events += stats.arrival_events;
    out.probe.touched_session_slots += stats.touched_session_slots;
    return r;
  }

  // The result JSON a bwsim user gets for the run.
  void Json(const MultiRunResult& r) {
    const std::string json =
        Timed(&out.probe.result_json_s, [&] { return bwalloc::ToJson(r); });
    out.probe.result_json_bytes += static_cast<std::int64_t>(json.size());
  }

  // Ends the timed part of the pass.
  void Finish() {
    out.total_s = SecondsBetween(start_, Clock::now()) - untimed_s_;
  }

  void Check(const MultiRunResult& r, Expect e) {
    out.probe.AddResult(r);
    CheckRun(r, e, &out.failures);
    out.results.push_back(r);
    out.expects.push_back(std::move(e));
  }

 private:
  Clock::time_point start_ = Clock::now();
  double untimed_s_ = 0.0;
};

// Puts the traced-mode decorator in front of `system`.
std::unique_ptr<MultiSessionSystem> Decorate(
    std::unique_ptr<MultiSessionSystem> system, bool traced,
    SystemCalls* calls) {
  if (!traced) return system;
  return std::make_unique<TimedSystem>(std::move(system), calls);
}

Bits SumBits(const SparseMultiTrace& sparse) {
  Bits sum = 0;
  for (const bwalloc::SessionArrival& a : sparse.arrivals) sum += a.bits;
  return sum;
}

// Heavy-tailed sparse bursts (log2-quantized Pareto), the event engine's
// scale input: about k/256 bursts per slot.
bwalloc::SparseBurstParams Bursts(std::int64_t sessions, Time horizon,
                                  std::uint64_t seed) {
  bwalloc::SparseBurstParams bp;
  bp.sessions = sessions;
  bp.horizon = horizon;
  bp.bursts_per_slot = static_cast<double>(sessions) / 256.0;
  bp.burst_scale = 32;
  bp.tail_cap = 8;
  bp.seed = seed;
  return bp;
}

// Phased algorithm on Pareto bursts, B_O = 16k, D_O = 16: the event
// engine's scale cell, untraced. Queue service and phase-boundary hot-set
// sweeps do almost all the work.
PassOutput SparseScale(std::uint64_t seed, Size size, bool traced) {
  const bool full = size == Size::kFull;
  const std::int64_t k = full ? 262144 : 4096;
  const Time horizon = full ? 3000 : 600;
  const Time d_o = 16;
  const Time drain = 8 * d_o;
  bwalloc::MultiSessionParams params;
  params.sessions = k;
  params.offline_bandwidth = 16 * k;
  params.offline_delay = d_o;

  Pass pass;
  LayerProbe& probe = pass.out.probe;
  const SparseMultiTrace sparse = pass.Timed(&probe.gen_s, [&] {
    return bwalloc::SparseBurstTrace(Bursts(k, horizon, StreamSeed(seed, 1)));
  });
  probe.records = static_cast<std::int64_t>(sparse.arrivals.size());
  Bits input = 0;
  pass.Untimed([&] { input = SumBits(sparse); });
  std::unique_ptr<MultiSessionSystem> system =
      Decorate(std::make_unique<bwalloc::PhasedMulti>(params), traced,
               &probe.outer);
  bwalloc::MultiEngineOptions opt;
  opt.drain_slots = drain;
  const std::optional<MultiRunResult> r =
      pass.Engine(sparse, *system, opt, k * (horizon + drain));
  pass.Json(*r);
  pass.Finish();
  pass.Check(*r, {"sparse-scale", input, 2 * d_o,
                  4 * params.offline_bandwidth, 4 * k, 0});
  return std::move(pass.out);
}

// The four MultiSessionWorkload kinds at k = 256 x 20k slots, each through
// FromDense and the combined algorithm (B_O = 4096, D_O = 16, U_O = 1/2).
PassOutput DenseSuite(std::uint64_t seed, Size size, bool traced) {
  const bool full = size == Size::kFull;
  const std::int64_t k = full ? 256 : 16;
  const Time horizon = full ? 20000 : 1000;
  const Bits b_o = full ? 4096 : 256;
  const Time d_o = 16;
  const Time drain = 8 * d_o;
  const bwalloc::MultiWorkloadKind kinds[] = {
      bwalloc::MultiWorkloadKind::kBalanced,
      bwalloc::MultiWorkloadKind::kRotatingHotspot,
      bwalloc::MultiWorkloadKind::kChurn,
      bwalloc::MultiWorkloadKind::kSkewed,
  };
  bwalloc::CombinedParams params;
  params.sessions = k;
  params.offline_bandwidth = b_o;
  params.offline_delay = d_o;
  params.offline_utilization = bwalloc::Ratio(1, 2);
  params.window = 2 * d_o;

  Pass pass;
  LayerProbe& probe = pass.out.probe;
  std::vector<SparseMultiTrace> inputs;
  std::vector<Bits> input_bits;
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    const std::vector<std::vector<Bits>> dense =
        pass.Timed(&probe.gen_s, [&] {
          return bwalloc::MultiSessionWorkload(kinds[i], k, b_o, d_o, horizon,
                                               StreamSeed(seed, 10 + i));
        });
    pass.Untimed([&] {
      Bits sum = 0;
      for (const std::vector<Bits>& trace : dense) {
        for (const Bits b : trace) {
          sum += b;
          if (b != 0) ++probe.records;
        }
      }
      input_bits.push_back(sum);
    });
    probe.dense_cells += k * horizon;
    inputs.push_back(pass.Timed(&probe.materialize_s, [&] {
      return SparseMultiTrace::FromDense(dense);
    }));
  }
  std::vector<MultiRunResult> results;
  for (const SparseMultiTrace& sparse : inputs) {
    std::unique_ptr<MultiSessionSystem> system =
        Decorate(std::make_unique<bwalloc::CombinedOnline>(params), traced,
                 &probe.outer);
    bwalloc::MultiEngineOptions opt;
    opt.drain_slots = drain;
    results.push_back(
        *pass.Engine(sparse, *system, opt, k * (horizon + drain)));
    pass.Json(results.back());
  }
  pass.Finish();
  // Section 4 as bench_sec4_combined states it: delay <= 3 D_O, total
  // <= 7 B_O, global changes per global stage <= log2(2 B_O) + 1.
  for (std::size_t i = 0; i < results.size(); ++i) {
    pass.Check(results[i],
               {std::string("dense-suite/") + bwalloc::ToString(kinds[i]),
                input_bits[i], 3 * d_o, 7 * b_o, 0,
                bwalloc::CeilLog2(2 * b_o) + 1});
  }
  return std::move(pass.out);
}

// Poisson session churn with ledger admission and book-ahead; the phased
// algorithm behind the fault-lane adapter (2 hops, light loss, denial and
// jitter) with in-memory checkpoints every 100 slots. A straight run, then
// a run that crashes mid-way, then a restore that finishes it.
PassOutput ChurnFaults(std::uint64_t seed, Size size, bool traced) {
  const bool full = size == Size::kFull;
  const Time horizon = full ? 12000 : 1500;
  const Bits b_o = 64;
  const Time d_o = 8;
  const std::int64_t hops = 2;
  const Time every = 100;
  const Time crash_at = horizon / 2 + 49;  // between two checkpoints
  bwalloc::FaultPlan faults;
  faults.loss_rate = 0.01;
  faults.denial_rate = 0.02;
  faults.max_jitter = 1;
  faults.seed = StreamSeed(seed, 21);
  const Time drain = 8 * d_o + 64 * hops;

  Pass pass;
  LayerProbe& probe = pass.out.probe;
  probe.has_adapter = true;
  bwalloc::ArrivalParams ap;
  ap.horizon = horizon;
  ap.offline_bandwidth = b_o;
  ap.offline_delay = d_o;
  ap.arrival_rate = 0.25;
  ap.max_book_ahead = 2 * d_o;
  ap.seed = StreamSeed(seed, 20);
  const bwalloc::ChurnPlan plan = pass.Timed(&probe.gen_s, [&] {
    return bwalloc::GenerateArrivals(bwalloc::ArrivalProcess::kPoisson, ap);
  });
  const std::int64_t k = plan.sessions;
  probe.records = static_cast<std::int64_t>(plan.specs.size());
  probe.dense_cells = k * horizon;
  const SparseMultiTrace sparse = pass.Timed(&probe.materialize_s, [&] {
    return SparseMultiTrace::FromDense(plan.MaterializeTraces());
  });

  // One engine call on fresh admission, driver, algorithm and adapter.
  const auto attempt = [&](const bwalloc::CheckpointOptions& checkpoint,
                           std::int64_t session_slots) {
    bwalloc::AdmissionConfig ac;
    ac.policy = bwalloc::AdmissionPolicyKind::kLedger;
    ac.capacity = b_o;
    ac.horizon = horizon;
    bwalloc::AdmissionController ledger(ac);
    TimedAdmission timed_ledger(ledger, &probe.admission);
    bwalloc::AdmissionPolicy& policy =
        traced ? static_cast<bwalloc::AdmissionPolicy&>(timed_ledger)
               : ledger;
    bwalloc::ChurnDriver driver(plan, policy, 0);
    bwalloc::MultiSessionParams params;
    params.sessions = k;
    params.offline_bandwidth = b_o;
    params.offline_delay = d_o;
    bwalloc::RobustMultiOptions ropts;
    ropts.fallback_bandwidth = 4 * b_o;
    auto adapter = std::make_unique<bwalloc::RobustMultiSessionAdapter>(
        Decorate(std::make_unique<bwalloc::PhasedMulti>(params), traced,
                 &probe.core),
        bwalloc::NetworkPath::Uniform(hops, 1, 1.0), faults, ropts);
    const bwalloc::RobustMultiSessionAdapter& lanes = *adapter;
    std::unique_ptr<MultiSessionSystem> system =
        Decorate(std::move(adapter), traced, &probe.outer);
    bwalloc::MultiEngineOptions opt;
    opt.drain_slots = drain;
    opt.churn = &driver;
    opt.checkpoint = checkpoint;
    std::optional<MultiRunResult> r =
        pass.Engine(sparse, *system, opt, session_slots);
    if (r.has_value()) {
      r->faults = lanes.fault_stats();
      r->per_session_faults = lanes.per_session_fault_stats();
    }
    return r;
  };

  std::string straight_blob;
  bwalloc::CheckpointOptions straight_ckpt;
  straight_ckpt.every = every;
  straight_ckpt.capture = &straight_blob;
  const std::optional<MultiRunResult> straight =
      attempt(straight_ckpt, k * (horizon + drain));

  std::string crash_blob;
  bwalloc::CheckpointOptions crash_ckpt = straight_ckpt;
  crash_ckpt.capture = &crash_blob;
  crash_ckpt.crash_at = crash_at;
  const std::optional<MultiRunResult> crashed =
      attempt(crash_ckpt, k * (crash_at + 1));

  std::string resume_blob;
  bwalloc::CheckpointOptions resume_ckpt = straight_ckpt;
  resume_ckpt.capture = &resume_blob;
  resume_ckpt.resume = &crash_blob;
  const Time resume_slot = (crash_at + 1) / every * every;
  const std::optional<MultiRunResult> resumed =
      attempt(resume_ckpt, k * (horizon + drain - resume_slot));

  pass.Json(*straight);
  pass.Json(*resumed);
  pass.Finish();
  probe.checkpoint_bytes = static_cast<std::int64_t>(straight_blob.size());
  if (crashed.has_value()) {
    pass.out.failures.push_back("churn-faults: the injected crash did not "
                                "stop the run");
  }
  // Theorem 14 bounds with the delay slack bwsim's auditor gives a faulted
  // phased run: commits land up to a round trip late, degraded lanes run
  // out to the retry/fallback horizon. The committed peak allocation is not
  // held to 4 B_O: a degraded lane keeps its rate until its queue drains
  // and a fallback lane drains at the full 4 B_O, and bwsim's auditor caps
  // only the algorithm's declared total, which is 4 B_O by construction.
  const Time delay_bound = 2 * d_o + (2 * (hops + faults.max_jitter) + 2) +
                           (8 * d_o + 64 * hops);
  pass.Check(*straight,
             {"churn-faults/straight", -1, delay_bound, 0, 4 * k, 0});
  pass.Check(*resumed,
             {"churn-faults/resumed", -1, delay_bound, 0, 4 * k, 0});
  CheckSame("churn-faults: crash-restore-finish vs straight", *straight,
            *resumed, &pass.out.failures);
  return std::move(pass.out);
}

// Pareto bursts at 16k sessions, every event traced into an in-memory
// recorder through the streaming auditor; the NDJSON is then re-read
// through the trace reader into a fresh auditor (the `bwsim audit` path).
PassOutput AuditedTrace(std::uint64_t seed, Size size, bool traced) {
  const bool full = size == Size::kFull;
  const std::int64_t k = full ? 16384 : 1024;
  const Time horizon = full ? 24000 : 600;
  const Time d_o = 16;
  const Time drain = 8 * d_o;
  bwalloc::MultiSessionParams params;
  params.sessions = k;
  params.offline_bandwidth = 16 * k;
  params.offline_delay = d_o;

  Pass pass;
  LayerProbe& probe = pass.out.probe;
  const SparseMultiTrace sparse = pass.Timed(&probe.gen_s, [&] {
    return bwalloc::SparseBurstTrace(Bursts(k, horizon, StreamSeed(seed, 30)));
  });
  probe.records = static_cast<std::int64_t>(sparse.arrivals.size());
  Bits input = 0;
  pass.Untimed([&] { input = SumBits(sparse); });

  const bwalloc::AuditConfig config =
      bwalloc::MultiAuditConfig(k, params.offline_bandwidth, d_o, true);
  bwalloc::Auditor auditor(config);
  bwalloc::BufferTraceSink recorder;
  TimedSink timed_recorder(recorder, &probe.recorder);
  bwalloc::AuditingSink auditing(
      &auditor, traced ? static_cast<bwalloc::TraceSink*>(&timed_recorder)
                       : &recorder);
  TimedSink timed_head(auditing, &probe.sink, &probe.outer);
  bwalloc::MultiEngineOptions opt;
  opt.drain_slots = drain;
  opt.tracer = bwalloc::Tracer(
      traced ? static_cast<bwalloc::TraceSink*>(&timed_head) : &auditing,
      bwalloc::kAllEvents, {"audited-trace", 0});
  std::unique_ptr<MultiSessionSystem> system =
      Decorate(std::make_unique<bwalloc::PhasedMulti>(params), traced,
               &probe.outer);
  const std::optional<MultiRunResult> r =
      pass.Engine(sparse, *system, opt, k * (horizon + drain));
  const Clock::time_point finish_t0 = Clock::now();
  auditor.Finish();
  probe.audit_finish_s += SecondsBetween(finish_t0, Clock::now());
  std::string ndjson =
      pass.Timed(&probe.ndjson_s, [&] { return recorder.ToNdjson(); });
  probe.ndjson_bytes = static_cast<std::int64_t>(ndjson.size());
  const bwalloc::Auditor replayed =
      pass.Timed(&probe.reaudit_s, [&] { return Reaudit(ndjson, config); });
  pass.Json(*r);
  pass.Finish();

  pass.Check(*r, {"audited-trace", input, 2 * d_o,
                  4 * params.offline_bandwidth, 4 * k, 0});
  CheckAudit("audited-trace: streaming audit", auditor, &pass.out.failures);
  CheckReaudit("audited-trace", auditor, replayed, &pass.out.failures);
  if (!full) {
    pass.out.ndjson = std::move(ndjson);
    pass.out.streaming_audit.emplace(std::move(auditor));
  }
  return std::move(pass.out);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"sparse-scale", &SparseScale},
      {"dense-suite", &DenseSuite},
      {"churn-faults", &ChurnFaults},
      {"audited-trace", &AuditedTrace},
  };
  return kWorkloads;
}

}  // namespace perfbench
