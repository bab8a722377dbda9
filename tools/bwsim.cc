// bwsim — command-line driver for the bwalloc library.
//
//   bwsim generate --workload mixed --bo 64 --do 8 --horizon 4000
//                  [--seed 1] [--out trace.txt]
//   bwsim single   --algo online [--workload mixed | --trace file]
//                  --ba 64 --da 16 [--inv-ua 6] [--w 16] [--seed 1]
//                  [--horizon 4000] [--csv false]
//                  unreliable control plane: [--hops 4] [--loss 0.1]
//                  [--denial 0.1] [--partial 0.0] [--jitter 2]
//                  [--fault-seed 0] — wraps the allocator in a
//                  RobustSignalingAdapter (retry/backoff + full-rate
//                  fallback) and reports degraded-mode counters
//   bwsim multi    --algo phased|continuous|combined --k 4 --bo 64 --do 8
//                  [--kind rotating-hotspot | --trace file.csv]
//                  [--horizon 4000] [--seed 1]
//                  unreliable control plane: [--hops 4] [--loss 0.1]
//                  [--denial 0.1] [--partial 0.0] [--jitter 2]
//                  [--fault-seed 0] — wraps the system in a
//                  RobustMultiSessionAdapter (one fault lane, retry state
//                  machine, and RESET-style fallback per session) and
//                  reports merged degraded-mode counters
//                  session churn (dynamic arrivals; replaces --k/--kind/
//                  --trace with a generated plan):
//                  [--arrivals none|poisson|mmpp|adversarial]
//                  [--admission greedy|threshold|ledger]
//                  [--admission-threshold 0.85]  (kThreshold: fraction of
//                  B_O admission may commit, finite, in [0, 1])
//                  [--book-ahead 0]   (max slots a start may be booked
//                  ahead of its arrival; finite, >= 0)
//                  [--max-pending 0]  (overload shedding: max booked-but-
//                  unstarted reservations, 0 = unbounded)
//                  [--churn-rate 0.25] (mean session arrivals per slot)
//                  [--churn-hold 0]    (mean session lifetime, 0 = 4 D_O)
//                  admission decisions, lifecycle transitions, and
//                  overload shedding run in the ChurnDriver, inside the
//                  byte-identity gate
//   bwsim offline  (--workload mixed | --trace file) --bo 64 --do 8
//                  [--inv-uo 2] [--w 16] [--horizon 4000] [--seed 1]
//   bwsim tune     (--workload mixed | --trace file) --ba 64 --da 16
//                  [--inv-ua 6] [--max-w 128] [--horizon 4000] [--seed 1]
//   bwsim replay   --trace file --schedule file.csv [--json false]
//   bwsim batch    --suite single|multi [--jobs 0] [--seeds 4]
//                  [--horizon 4000] [--name batch] [--base-seed 0]
//                  [--csv false]
//                  single: [--workloads cbr,mixed,...] [--algo online|modified]
//                          [--ba 64] [--da 16] [--inv-ua 6] [--w 8]
//                          [--fault-hops 0] [--fault-loss 0.0]
//                          [--fault-denial 0.0] [--fault-partial 0.0]
//                          [--fault-jitter 0]
//                  multi:  [--kinds balanced,churn,...] [--ks 2,4,8]
//                          [--algo phased|continuous] [--bo-per-session 16]
//                          [--do 8]
//                          and the same --fault-* flags as single
//                          (per-session fault lanes derived from one seed)
//                  tracing: [--trace events.ndjson] [--trace-events all]
//   bwsim trace-summary --trace events.ndjson [--events 20] [--csv false]
//                       [--lenient true]   # skip malformed lines, count them
//   bwsim audit    <events.ndjson> (or --trace events.ndjson)
//                  [--model single|multi] [--algo online] [--lenient]
//                  single params: [--ba 64] [--da 16] [--inv-ua 6] [--w 16]
//                  multi params:  [--k 4] [--bo 64] [--do 8]
//                  slacks: [--delay-slack 0] [--degraded-delay-slack -1]
//                  [--stage-slack 1] [--max-violations 64] [--json false]
//                  replays a recorded trace through the streaming theorem
//                  auditor (obs/audit) and exits 1 on any violation; the
//                  params must match the run that produced the trace.
//                  --lenient skips malformed NDJSON lines instead of
//                  failing on the first one.
//
// `single`, `multi`, and `batch` also take --audit (default false): the
// live event stream is spliced through the same auditor, violations are
// reported after the run tables, and the exit code becomes 1 if any
// monitor fired. Theorem algos are checked against their paper bounds;
// baseline algos get only the structural monitors (conservation, event
// ordering), since they promise no bounds.
//
// `batch` shards the workload x seed-stream grid over a thread pool
// (--jobs 0 = hardware concurrency) and merges results in task order: the
// output is byte-identical for every --jobs value — including the NDJSON
// event trace, which is buffered per cell and written in cell-index order.
//
// Structured event tracing (single/multi use --trace-out because --trace
// already names the input arrival trace; batch uses --trace):
//   single/multi: [--trace-out events.ndjson] [--trace-events all]
//                 [--metrics false] [--profile false]
// --trace-events takes a comma list of event names or groups (all, slot,
// stage, alloc, queue, phase, signal). --metrics prints the named
// counter/gauge/histogram registry as JSON; --profile prints wall-clock
// phase timings to stderr (nondeterministic, never part of the trace).
//
// Crash tolerance (`single` and `multi`):
//   [--checkpoint-every N] [--checkpoint-dir DIR] — capture the full
//   engine + algorithm state after every N slots, atomically, to
//   DIR/<single|multi>.ckpt (rolling). --checkpoint-every must be > 0 and
//   requires --checkpoint-dir.
//   [--crash-at-slot T] — deterministically throw an injected crash after
//   finishing slot T (after any checkpoint due that slot); the buffered
//   trace journal written so far still lands in --trace-out (a torn
//   journal, exactly what a real crash leaves) and the exit code is 3.
//   Requires --checkpoint-every.
//   [--resume-from FILE.ckpt] — validate the checkpoint (magic, version,
//   CRC; exit 2 naming the file on any defect), truncate the --trace-out
//   journal back to the checkpoint's capture point, replay the surviving
//   prefix through the live auditor, and continue the run from the saved
//   slot. A crashed-then-resumed run's trace, audit report, and result
//   JSON are byte-identical to an uninterrupted run (gated by
//   tests/crash_recovery_test.cc).
//   bwsim checkpoint-dump FILE.ckpt — print the envelope + meta header of
//   a checkpoint as one JSON object.
//
// Live telemetry (`single`, `multi`, and `batch`):
//   [--stats-out FILE] — write Prometheus text-exposition snapshots of
//   the striped runtime metrics (one final snapshot always; periodic ones
//   per the cadences below). [--stats-every N] snapshots every N slots;
//   [--stats-every-ms N] every N wall ms (both need --stats-out).
//   [--heartbeat-ms N] — one-line run heartbeat to stderr every N ms.
//   Health watchdog: [--stall-ms N] marks the run unhealthy if the slot
//   counter freezes for N ms; [--min-slot-rate R] if the run averages
//   below R slots/sec; [--health-strict] turns an unhealthy run's exit 0
//   into exit 4. All of it is a nondeterministic side lane (stats file +
//   stderr only): traces, audits, result tables/JSON, and every other
//   exit code are byte-identical with telemetry on or off.
//   bwsim stats-summary FILE [--csv false] [--buckets false]
//     pretty-prints a --stats-out file; with >= 2 snapshots also shows
//     the first->last delta per series. --buckets includes the raw
//     histogram bucket series. Exit 0 = ok, 2 = usage/unreadable file.
//
// Flags accept both `--key value` and `--key=value`. Malformed flag values
// exit 2 with a message naming the flag; simulation errors exit 1; a bad
// or missing checkpoint file exits 2; an injected crash exits 3.
//
// Single-session algos: online, modified, online-global, static-peak,
// static-mean, per-arrival, periodic, ewma.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/json.h"
#include "analysis/table.h"
#include "analysis/tuner.h"
#include "baseline/exp_smoothing.h"
#include "baseline/per_arrival.h"
#include "baseline/periodic.h"
#include "baseline/static_alloc.h"
#include "core/admission.h"
#include "core/combined.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "core/single_session.h"
#include "core/stage_trace.h"
#include "net/faults.h"
#include "net/multi_faults.h"
#include "obs/audit/auditor.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/telemetry/hub.h"
#include "obs/telemetry/monitor.h"
#include "obs/telemetry/snapshot.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "obs/trace_summary.h"
#include "obs/tracer.h"
#include "offline/offline_single.h"
#include "offline/schedule_io.h"
#include "runner/batch_runner.h"
#include "runner/suite.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "state/checkpoint.h"
#include "tools/flags.h"
#include "traffic/arrivals.h"
#include "traffic/trace_io.h"
#include "traffic/workload_suite.h"

namespace {

using namespace bwalloc;
using bwalloc::tools::Flags;

int Usage() {
  std::fprintf(
      stderr,
      "usage: bwsim "
      "<generate|single|multi|offline|tune|replay|batch|trace-summary|audit"
      "|checkpoint-dump|stats-summary> [--flags]\n"
      "see the header of tools/bwsim.cc for the full reference\n");
  return 2;
}

// --trace-events value errors are usage errors (exit 2), not internal ones.
EventMask ParseEventsFlag(const std::string& spec) {
  try {
    return ParseEventMask(spec);
  } catch (const std::invalid_argument& e) {
    throw tools::UsageError(std::string("flag --trace-events: ") + e.what());
  }
}

// Fault-plan values are flag errors, not simulation errors: out-of-range
// rates and rate combinations that make progress impossible under capped
// retries (loss or denial at 1.0) exit 2 naming the offending flag,
// before any run starts. `batch` selects the --fault-* spellings.
void CheckFaultPlanFlags(const FaultPlan& plan, bool batch) {
  const std::string loss = batch ? "--fault-loss" : "--loss";
  const std::string denial = batch ? "--fault-denial" : "--denial";
  const std::string partial = batch ? "--fault-partial" : "--partial";
  const std::string jitter = batch ? "--fault-jitter" : "--jitter";
  if (plan.loss_rate < 0.0 || plan.loss_rate > 1.0) {
    throw tools::UsageError("flag " + loss + ": rate must be in [0, 1]");
  }
  if (plan.denial_rate < 0.0 || plan.denial_rate > 1.0) {
    throw tools::UsageError("flag " + denial + ": rate must be in [0, 1]");
  }
  if (plan.partial_grant_rate < 0.0 || plan.partial_grant_rate > 1.0) {
    throw tools::UsageError("flag " + partial + ": rate must be in [0, 1]");
  }
  if (plan.max_jitter < 0) {
    throw tools::UsageError("flag " + jitter + ": jitter must be >= 0");
  }
  if (plan.loss_rate >= 1.0) {
    throw tools::UsageError("flag " + loss +
                            ": rate 1.0 loses every request; capped retries "
                            "can never make progress");
  }
  if (plan.denial_rate >= 1.0) {
    throw tools::UsageError("flag " + denial +
                            ": rate 1.0 denies every increase; capped "
                            "retries can never make progress");
  }
}

// Live-telemetry flags shared by `single`, `multi`, and `batch`. All of
// it is the nondeterministic lane: stats files and stderr heartbeats
// only, never traces/audits/results. Value errors are usage errors.
telemetry::MonitorOptions ParseTelemetryFlags(Flags& flags) {
  telemetry::MonitorOptions mon;
  mon.stats_out = flags.Str("stats-out", "");
  mon.stats_every_slots = flags.Int("stats-every", 0);
  mon.stats_every_ms = flags.Int("stats-every-ms", 0);
  mon.heartbeat_ms = flags.Int("heartbeat-ms", 0);
  mon.stall_ms = flags.Int("stall-ms", 0);
  mon.min_slot_rate = flags.Double("min-slot-rate", 0.0);
  mon.health_strict = flags.Bool("health-strict", false);
  if (mon.stats_every_slots < 0) {
    throw tools::UsageError("flag --stats-every: must be >= 0 slots");
  }
  if (mon.stats_every_ms < 0) {
    throw tools::UsageError("flag --stats-every-ms: must be >= 0 ms");
  }
  if (mon.heartbeat_ms < 0) {
    throw tools::UsageError("flag --heartbeat-ms: must be >= 0 ms");
  }
  if (mon.stall_ms < 0) {
    throw tools::UsageError("flag --stall-ms: must be >= 0 ms");
  }
  if (mon.min_slot_rate < 0.0) {
    throw tools::UsageError("flag --min-slot-rate: must be >= 0");
  }
  if (mon.stats_out.empty() &&
      (mon.stats_every_slots > 0 || mon.stats_every_ms > 0)) {
    throw tools::UsageError(
        "flag --stats-every/--stats-every-ms: need --stats-out FILE to "
        "write the snapshots to");
  }
  if (mon.health_strict && mon.stall_ms == 0 && mon.min_slot_rate == 0.0) {
    throw tools::UsageError(
        "flag --health-strict: needs a health monitor to enforce "
        "(--stall-ms and/or --min-slot-rate)");
  }
  return mon;
}

// Checkpoint/crash/resume flags shared by `single` and `multi`. All value
// errors are usage errors (exit 2) caught before any run starts.
struct CheckpointCli {
  CheckpointOptions options;     // every / crash_at / dir / stem
  std::string resume_path;       // --resume-from (empty = fresh run)
  std::string resume_blob;       // validated wrapped blob from resume_path
};

CheckpointCli ParseCheckpointFlags(Flags& flags, const std::string& stem) {
  CheckpointCli cli;
  const std::string every = flags.Str("checkpoint-every", "");
  const std::string crash = flags.Str("crash-at-slot", "");
  cli.options.dir = flags.Str("checkpoint-dir", "");
  cli.options.stem = stem;
  cli.resume_path = flags.Str("resume-from", "");
  if (!every.empty()) {
    cli.options.every = Flags::ParseInt("flag --checkpoint-every", every);
    if (cli.options.every <= 0) {
      throw tools::UsageError(
          "flag --checkpoint-every: must be a positive slot count, got " +
          every);
    }
    if (cli.options.dir.empty()) {
      throw tools::UsageError(
          "flag --checkpoint-every requires --checkpoint-dir (somewhere to "
          "put the checkpoint file)");
    }
  } else if (!cli.options.dir.empty()) {
    throw tools::UsageError(
        "flag --checkpoint-dir has no effect without --checkpoint-every");
  }
  if (!crash.empty()) {
    cli.options.crash_at = Flags::ParseInt("flag --crash-at-slot", crash);
    if (cli.options.crash_at < 0) {
      throw tools::UsageError("flag --crash-at-slot: must be >= 0, got " +
                              crash);
    }
    if (cli.options.every <= 0) {
      throw tools::UsageError(
          "flag --crash-at-slot requires --checkpoint-every (a crash "
          "without checkpoints leaves nothing to resume from)");
    }
  }
  if (!cli.resume_path.empty()) {
    // ReadCheckpointFile validates the whole envelope (magic, version,
    // length, CRC) and throws CheckpointError naming the file — exit 2.
    cli.resume_blob = WrapCheckpoint(ReadCheckpointFile(cli.resume_path));
  }
  if (cli.options.every > 0) {
    std::error_code ec;
    std::filesystem::create_directories(cli.options.dir, ec);
    if (ec) {
      throw tools::UsageError("flag --checkpoint-dir: cannot create '" +
                              cli.options.dir + "': " + ec.message());
    }
  }
  return cli;
}

// Restores the journal + auditor side of a resume: truncates the existing
// --trace-out journal to the checkpoint's capture point, replays the
// surviving prefix into the (fresh) auditor AND the buffer sink — so the
// sink's event counter continues from the prefix and later checkpoints
// record correct journal positions — then feeds the auditor the
// out-of-band kRestore handshake it checks against the journaled
// kCheckpoint. With no journal file the run resumes without replay. A
// checkpoint of another kind (or of a removed engine) is refused, naming
// the file.
void ReplayJournalPrefix(const CheckpointCli& cli, std::string_view kind,
                         const std::string& trace_out, const TraceContext& ctx,
                         BufferTraceSink& sink, Auditor* auditor) {
  const CheckpointMeta meta =
      ReadCheckpointMeta(cli.resume_blob, cli.resume_path);
  if (meta.kind != kind) {
    throw CheckpointError("checkpoint " + cli.resume_path + ": kind is '" +
                          meta.kind + "', this command resumes '" +
                          std::string(kind) + "' checkpoints");
  }
  if (!trace_out.empty() && std::filesystem::exists(trace_out)) {
    const std::vector<TraceRecord> records = ReadTraceFile(trace_out);
    const auto keep = static_cast<std::size_t>(meta.trace_events);
    if (records.size() < keep) {
      throw CheckpointError(
          "checkpoint " + cli.resume_path + ": journal " + trace_out +
          " holds " + std::to_string(records.size()) + " events but the "
          "checkpoint was captured after " + std::to_string(keep) +
          " — wrong journal for this checkpoint?");
    }
    for (std::size_t i = 0; i < keep; ++i) {
      const TraceEvent event = ToTraceEvent(records[i]);
      const TraceContext rec_ctx{records[i].suite, records[i].cell};
      if (auditor != nullptr) auditor->OnEvent(rec_ctx, event);
      sink.Emit(rec_ctx, event);
    }
  }
  if (auditor != nullptr) {
    TraceEvent restore;
    restore.type = TraceEventType::kRestore;
    restore.slot = meta.next_slot - 1;
    restore.session = -1;
    restore.a = meta.committed_total_raw;
    restore.b = meta.next_slot;
    auditor->OnEvent(ctx, restore);
  }
}

void WriteTraceFile(const std::string& path, const std::string& ndjson) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open trace output: " + path);
  out << ndjson;
  if (!out) throw std::runtime_error("failed writing trace output: " + path);
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

MultiWorkloadKind ParseKind(const std::string& kind) {
  if (kind == "balanced") return MultiWorkloadKind::kBalanced;
  if (kind == "rotating-hotspot") return MultiWorkloadKind::kRotatingHotspot;
  if (kind == "churn") return MultiWorkloadKind::kChurn;
  if (kind == "skewed") return MultiWorkloadKind::kSkewed;
  throw std::invalid_argument("unknown --kind: " + kind);
}

int RunGenerate(Flags& flags) {
  const std::string workload = flags.Str("workload", "mixed");
  const Bits bo = flags.Int("bo", 64);
  const Time d_o = flags.Int("do", 8);
  const Time horizon = flags.Int("horizon", 4000);
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const std::string out = flags.Str("out", "");
  flags.CheckUnused();

  const auto trace = SingleSessionWorkload(workload, bo, d_o, horizon, seed);
  if (out.empty()) {
    for (const Bits b : trace) std::printf("%lld\n", static_cast<long long>(b));
  } else {
    SaveTrace(out, trace,
              "bwsim generate --workload " + workload + " --bo " +
                  std::to_string(bo) + " --do " + std::to_string(d_o) +
                  " --seed " + std::to_string(seed));
    std::printf("wrote %zu slots to %s\n", trace.size(), out.c_str());
  }
  return 0;
}

int RunSingle(Flags& flags) {
  const std::string algo = flags.Str("algo", "online");
  const Bits ba = flags.Int("ba", 64);
  const Time da = flags.Int("da", 16);
  const std::int64_t inv_ua = flags.Int("inv-ua", 6);
  const Time w = flags.Int("w", 2 * (da / 2));
  const Time horizon = flags.Int("horizon", 4000);
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const std::string workload = flags.Str("workload", "mixed");
  const std::string trace_path = flags.Str("trace", "");
  const bool csv = flags.Bool("csv", false);
  const bool json = flags.Bool("json", false);
  const std::int64_t hops = flags.Int("hops", 0);
  FaultPlan plan;
  plan.loss_rate = flags.Double("loss", 0.0);
  plan.denial_rate = flags.Double("denial", 0.0);
  plan.partial_grant_rate = flags.Double("partial", 0.0);
  plan.max_jitter = flags.Int("jitter", 0);
  plan.seed = static_cast<std::uint64_t>(flags.Int("fault-seed", 0));
  const std::string trace_out = flags.Str("trace-out", "");
  const std::string trace_events = flags.Str("trace-events", "all");
  const bool print_metrics = flags.Bool("metrics", false);
  const bool print_profile = flags.Bool("profile", false);
  const bool audit = flags.Bool("audit", false);
  const telemetry::MonitorOptions mon = ParseTelemetryFlags(flags);
  CheckpointCli ckpt_cli = ParseCheckpointFlags(flags, "single");
  flags.CheckUnused();
  CheckFaultPlanFlags(plan, /*batch=*/false);

  const std::vector<Bits> trace =
      trace_path.empty()
          ? SingleSessionWorkload(workload, ba, da / 2, horizon, seed)
          : LoadTrace(trace_path);

  SingleSessionParams p;
  p.max_bandwidth = ba;
  p.max_delay = da;
  p.min_utilization = Ratio(1, inv_ua);
  p.window = w;

  std::unique_ptr<SingleSessionAllocator> alloc;
  if (algo == "online") {
    alloc = std::make_unique<SingleSessionOnline>(p);
  } else if (algo == "modified") {
    alloc = std::make_unique<SingleSessionOnline>(
        p, SingleSessionOnline::Variant::kModified);
  } else if (algo == "online-global") {
    alloc = std::make_unique<SingleSessionOnline>(
        p, SingleSessionOnline::Variant::kBase,
        SingleSessionOnline::UtilizationMode::kGlobal);
  } else if (algo == "static-peak") {
    alloc = std::make_unique<StaticAllocator>(MakeStaticPeak(trace, da));
  } else if (algo == "static-mean") {
    alloc = std::make_unique<StaticAllocator>(MakeStaticMean(trace));
  } else if (algo == "per-arrival") {
    alloc = std::make_unique<PerArrivalAllocator>(da);
  } else if (algo == "periodic") {
    alloc = std::make_unique<PeriodicAllocator>(4 * da, 130, da);
  } else if (algo == "ewma") {
    alloc = std::make_unique<ExpSmoothingAllocator>(10, 50, da);
  } else {
    throw std::invalid_argument("unknown --algo: " + algo);
  }

  SingleEngineOptions opt;
  opt.drain_slots = 4 * da;
  opt.utilization_scan_window = w + 5 * (da / 2);

  RobustOptions ropts;
  ropts.fallback_bandwidth = ba;
  // Retry rounds lengthen drains, and degraded episodes run out to the
  // same horizon.
  const RobustOptions::AuditSlack slack =
      ropts.Slack(hops, plan.max_jitter, 4 * da);

  const bool theorem_algo =
      algo == "online" || algo == "modified" || algo == "online-global";
  BufferTraceSink sink;
  std::optional<Auditor> auditor;
  std::optional<AuditingSink> audit_sink;
  if (audit) {
    AuditConfig cfg;  // baselines: structural monitors only
    if (theorem_algo) {
      cfg = SingleAuditConfig(ba, da, inv_ua, w);
      cfg.modified_variant = algo == "modified";
      cfg.global_utilization = algo == "online-global";
      if (hops > 0) {
        cfg.delay_slack = slack.delay_slack;
        cfg.degraded_delay_slack = slack.degraded_delay_slack;
      }
    }
    auditor.emplace(cfg);
    audit_sink.emplace(&*auditor, trace_out.empty() ? nullptr : &sink);
  }
  const bool observe = audit || !trace_out.empty();
  if (observe) {
    TraceSink* dest = audit ? static_cast<TraceSink*>(&*audit_sink)
                            : static_cast<TraceSink*>(&sink);
    opt.tracer = Tracer(dest, ParseEventsFlag(trace_events), {"single", 0});
  }
  TracerStageObserver stage_observer(opt.tracer);
  if (observe) {
    if (auto* online = dynamic_cast<SingleSessionOnline*>(alloc.get())) {
      online->SetObserver(&stage_observer);
    }
  }
  MetricsRegistry metrics;
  if (print_metrics) opt.metrics = &metrics;
  PhaseProfile profile;
  if (print_profile) opt.profile = &profile;

  RobustSignalingAdapter* robust = nullptr;
  if (hops > 0) {
    auto adapter = std::make_unique<RobustSignalingAdapter>(
        std::move(alloc), NetworkPath::Uniform(hops, 1, 1.0), plan, ropts);
    robust = adapter.get();
    if (observe) robust->SetTracer(opt.tracer);
    alloc = std::move(adapter);
    opt.drain_slots = slack.degraded_delay_slack;
  }
  opt.checkpoint = ckpt_cli.options;
  if (!ckpt_cli.resume_blob.empty()) {
    ReplayJournalPrefix(ckpt_cli, kSingleCheckpointKind, trace_out,
                        {"single", 0}, sink,
                        auditor.has_value() ? &*auditor : nullptr);
    opt.checkpoint.resume = &ckpt_cli.resume_blob;
  }
  std::optional<telemetry::TelemetryHub> hub;
  std::optional<telemetry::RunMonitor> monitor;
  if (mon.active()) {
    hub.emplace();
    hub->SetInfo("command", "single");
    hub->SetInfo("algo", algo);
    opt.telemetry = hub->ShardForCurrentThread();
    opt.checkpoint.telemetry = opt.telemetry;
    if (robust != nullptr) robust->SetTelemetry(opt.telemetry);
    monitor.emplace(&*hub, mon);
    monitor->Start();
  }
  // Strict-health exit-code combinator: base failures always win.
  const auto finish = [&monitor](int code) {
    if (!monitor.has_value()) return code;
    monitor->Stop();
    return monitor->MergeExitCode(code);
  };
  SingleRunResult r;
  try {
    r = RunSingleSession(trace, *alloc, opt);
  } catch (const CrashInjected& e) {
    // A real crash leaves a torn journal behind; the injected one does
    // too, so --resume-from exercises the same recovery path.
    if (!trace_out.empty()) WriteTraceFile(trace_out, sink.ToNdjson());
    std::fprintf(stderr, "bwsim: %s\n", e.what());
    return finish(3);
  }
  if (robust != nullptr) r.faults = robust->fault_stats();

  if (auditor.has_value()) auditor->Finish();
  if (!trace_out.empty()) WriteTraceFile(trace_out, sink.ToNdjson());
  if (print_profile) std::fputs(profile.Format().c_str(), stderr);
  if (json) {
    std::printf("%s\n", ToJson(r).c_str());
    if (print_metrics) std::printf("%s\n", metrics.ToJson().c_str());
    if (auditor.has_value()) {
      std::printf("%s\n", auditor->ReportJson().c_str());
      return finish(auditor->ok() ? 0 : 1);
    }
    return finish(0);
  }
  Table table({"metric", "value"});
  table.AddRow({"algo", algo})
      .AddRow({"slots", Table::Num(r.horizon)})
      .AddRow({"arrivals (bits)", Table::Num(r.total_arrivals)})
      .AddRow({"delivered (bits)", Table::Num(r.total_delivered)})
      .AddRow({"max delay", Table::Num(r.delay.max_delay())})
      .AddRow({"p99 delay", Table::Num(r.delay.Percentile(0.99))})
      .AddRow({"mean delay", Table::Num(r.delay.MeanDelay(), 2)})
      .AddRow({"changes", Table::Num(r.changes)})
      .AddRow({"stages", Table::Num(r.stages)})
      .AddRow({"global util", Table::Num(r.global_utilization, 3)})
      .AddRow({"local util", Table::Num(r.worst_best_window_utilization, 3)})
      .AddRow({"peak alloc", r.peak_allocation.ToString()});
  if (hops > 0) {
    table.AddRow({"signal requests", Table::Num(r.faults.requests)})
        .AddRow({"signal commits", Table::Num(r.faults.commits)})
        .AddRow({"signal losses", Table::Num(r.faults.losses)})
        .AddRow({"signal denials", Table::Num(r.faults.denials)})
        .AddRow({"partial grants", Table::Num(r.faults.partial_grants)})
        .AddRow({"timeouts", Table::Num(r.faults.timeouts)})
        .AddRow({"retries", Table::Num(r.faults.retries)})
        .AddRow({"fallback drains", Table::Num(r.faults.fallbacks)});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.PrintAscii(std::cout);
  }
  if (print_metrics) std::printf("%s\n", metrics.ToJson().c_str());
  if (auditor.has_value()) {
    std::fputs(auditor->FormatReport().c_str(), stdout);
    return finish(auditor->ok() ? 0 : 1);
  }
  return finish(0);
}

int RunMulti(Flags& flags) {
  const std::string algo = flags.Str("algo", "phased");
  const std::int64_t k = flags.Int("k", 4);
  const Bits bo = flags.Int("bo", 64);
  const Time d_o = flags.Int("do", 8);
  const Time horizon = flags.Int("horizon", 4000);
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const std::string kind = flags.Str("kind", "rotating-hotspot");
  const std::string trace_path = flags.Str("trace", "");
  const bool csv = flags.Bool("csv", false);
  const bool json = flags.Bool("json", false);
  const std::int64_t hops = flags.Int("hops", 0);
  FaultPlan plan;
  plan.loss_rate = flags.Double("loss", 0.0);
  plan.denial_rate = flags.Double("denial", 0.0);
  plan.partial_grant_rate = flags.Double("partial", 0.0);
  plan.max_jitter = flags.Int("jitter", 0);
  plan.seed = static_cast<std::uint64_t>(flags.Int("fault-seed", 0));
  const std::string trace_out = flags.Str("trace-out", "");
  const std::string trace_events = flags.Str("trace-events", "all");
  const bool print_metrics = flags.Bool("metrics", false);
  const bool print_profile = flags.Bool("profile", false);
  const bool audit = flags.Bool("audit", false);
  const std::string arrivals = flags.Str("arrivals", "none");
  const std::string admission = flags.Str("admission", "greedy");
  const double admission_threshold = flags.Double("admission-threshold", 0.85);
  const double book_ahead = flags.Double("book-ahead", 0.0);
  const std::int64_t max_pending = flags.Int("max-pending", 0);
  const double churn_rate = flags.Double("churn-rate", 0.25);
  const Time churn_hold = flags.Int("churn-hold", 0);
  const telemetry::MonitorOptions mon = ParseTelemetryFlags(flags);
  CheckpointCli ckpt_cli = ParseCheckpointFlags(flags, "multi");
  flags.CheckUnused();
  CheckFaultPlanFlags(plan, /*batch=*/false);
  if (arrivals != "none" && arrivals != "poisson" && arrivals != "mmpp" &&
      arrivals != "adversarial") {
    throw tools::UsageError(
        "flag --arrivals: none, poisson, mmpp, or adversarial");
  }
  if (admission != "greedy" && admission != "threshold" &&
      admission != "ledger") {
    throw tools::UsageError("flag --admission: greedy, threshold, or ledger");
  }
  // NaN fails every comparison, so the range checks also reject it.
  if (!std::isfinite(admission_threshold) ||
      !(admission_threshold >= 0.0 && admission_threshold <= 1.0)) {
    throw tools::UsageError(
        "flag --admission-threshold: must be a finite value in [0, 1]");
  }
  if (!std::isfinite(book_ahead) || !(book_ahead >= 0.0)) {
    throw tools::UsageError("flag --book-ahead: must be a finite value >= 0");
  }
  if (!std::isfinite(churn_rate) || !(churn_rate > 0.0)) {
    throw tools::UsageError("flag --churn-rate: must be a finite value > 0");
  }
  if (churn_hold < 0) {
    throw tools::UsageError("flag --churn-hold: must be >= 0 slots");
  }
  if (max_pending < 0) {
    throw tools::UsageError("flag --max-pending: must be >= 0");
  }
  const bool churned = arrivals != "none";
  if (churned && !trace_path.empty()) {
    throw tools::UsageError(
        "flag --trace: incompatible with --arrivals (the churn plan "
        "generates the offered traffic)");
  }

  ChurnPlan churn_plan;
  std::int64_t sessions = k;
  std::vector<std::vector<Bits>> traces;
  if (churned) {
    ArrivalParams ap;
    ap.horizon = horizon;
    ap.offline_bandwidth = bo;
    ap.offline_delay = d_o;
    ap.arrival_rate = churn_rate;
    ap.mean_hold = churn_hold;
    ap.max_book_ahead = static_cast<Time>(std::llround(book_ahead));
    ap.seed = seed;
    const ArrivalProcess process = arrivals == "poisson"
                                       ? ArrivalProcess::kPoisson
                                   : arrivals == "mmpp"
                                       ? ArrivalProcess::kMmpp
                                       : ArrivalProcess::kAdversarial;
    churn_plan = GenerateArrivals(process, ap);
    sessions = churn_plan.sessions;
    traces = churn_plan.MaterializeTraces();
  } else {
    traces = trace_path.empty()
                 ? MultiSessionWorkload(ParseKind(kind), k, bo, d_o, horizon,
                                        seed)
                 : LoadMultiTrace(trace_path);
    if (static_cast<std::int64_t>(traces.size()) != k) {
      throw std::invalid_argument("trace file has " +
                                  std::to_string(traces.size()) +
                                  " sessions; --k says " + std::to_string(k));
    }
  }

  std::unique_ptr<MultiSessionSystem> sys;
  if (algo == "phased" || algo == "continuous") {
    MultiSessionParams p;
    p.sessions = sessions;
    p.offline_bandwidth = bo;
    p.offline_delay = d_o;
    if (algo == "phased") {
      sys = std::make_unique<PhasedMulti>(p);
    } else {
      sys = std::make_unique<ContinuousMulti>(p);
    }
  } else if (algo == "combined" || algo == "combined-continuous") {
    CombinedParams p;
    p.sessions = sessions;
    p.offline_bandwidth = bo;
    p.offline_delay = d_o;
    p.offline_utilization = Ratio(1, 2);
    p.window = 2 * d_o;
    p.continuous_inner = algo == "combined-continuous";
    sys = std::make_unique<CombinedOnline>(p);
  } else {
    throw std::invalid_argument("unknown --algo: " + algo);
  }

  // Declared-total bandwidth of the chosen algorithm: the fallback drain
  // rate under a degraded control plane and the audited total cap.
  const Bits declared_total =
      (algo == "phased" ? 4 : algo == "continuous" ? 5
                          : algo == "combined"     ? 7
                                                   : 8) *
      bo;
  RobustOptions ropts;
  ropts.fallback_bandwidth = declared_total;
  // Retry rounds and backed-off lanes lengthen drains, and degraded lanes
  // run out to the same horizon.
  const RobustOptions::AuditSlack slack =
      ropts.Slack(hops, plan.max_jitter, 8 * d_o);
  RobustMultiSessionAdapter* robust = nullptr;
  if (hops > 0) {
    auto adapter = std::make_unique<RobustMultiSessionAdapter>(
        std::move(sys), NetworkPath::Uniform(hops, 1, 1.0), plan, ropts);
    robust = adapter.get();
    sys = std::move(adapter);
  }

  MultiEngineOptions opt;
  opt.drain_slots = slack.degraded_delay_slack;
  // The admission policy and driver outlive the engine call; the driver
  // borrows churn_plan, which is function-scoped above.
  std::optional<AdmissionController> admission_ctl;
  std::optional<ChurnDriver> churn_driver;
  if (churned) {
    AdmissionConfig ac;
    ac.policy = admission == "greedy"      ? AdmissionPolicyKind::kGreedy
                : admission == "threshold" ? AdmissionPolicyKind::kThreshold
                                           : AdmissionPolicyKind::kLedger;
    ac.capacity = bo;
    ac.threshold_bp =
        static_cast<std::int64_t>(std::llround(admission_threshold * 10000.0));
    ac.horizon = horizon;
    ac.Validate();
    admission_ctl.emplace(ac);
    churn_driver.emplace(churn_plan, *admission_ctl, max_pending);
    opt.churn = &*churn_driver;
  }
  BufferTraceSink sink;
  std::optional<Auditor> auditor;
  std::optional<AuditingSink> audit_sink;
  if (audit) {
    AuditConfig cfg = MultiAuditConfig(sessions, bo, d_o, algo == "phased");
    if (algo == "combined" || algo == "combined-continuous") {
      // Combined allocates 7 B_O (phased inner) / 8 B_O (continuous inner)
      // total; its overflow is folded into the global session, so the
      // Lemma 10/16 split doesn't apply. kGlobalReset events disable the
      // per-stream delay monitor automatically.
      cfg.phased = false;
      cfg.max_total_bandwidth = declared_total;
      cfg.max_overflow_bandwidth = 0;
      cfg.loose_stages = true;
    }
    if (hops > 0) {
      cfg.delay_slack = slack.delay_slack;
      cfg.degraded_delay_slack = slack.degraded_delay_slack;
      cfg.fault_recovery_bound = slack.fault_recovery_bound;
      if (algo == "combined" || algo == "combined-continuous") {
        // The adapter suppresses the inner system's kGlobalReset events
        // (they describe uncommitted allocations), so the delay monitor
        // never sees the RESETs that would disarm it; disable it outright.
        cfg.max_delay = 0;
      }
    }
    auditor.emplace(cfg);
    audit_sink.emplace(&*auditor, trace_out.empty() ? nullptr : &sink);
  }
  if (audit || !trace_out.empty()) {
    TraceSink* dest = audit ? static_cast<TraceSink*>(&*audit_sink)
                            : static_cast<TraceSink*>(&sink);
    opt.tracer = Tracer(dest, ParseEventsFlag(trace_events), {"multi", 0});
  }
  MetricsRegistry metrics;
  if (print_metrics) opt.metrics = &metrics;
  PhaseProfile profile;
  if (print_profile) opt.profile = &profile;
  opt.checkpoint = ckpt_cli.options;
  if (!ckpt_cli.resume_blob.empty()) {
    ReplayJournalPrefix(ckpt_cli, kMultiCheckpointKind, trace_out,
                        {"multi", 0}, sink,
                        auditor.has_value() ? &*auditor : nullptr);
    opt.checkpoint.resume = &ckpt_cli.resume_blob;
  }
  std::optional<telemetry::TelemetryHub> hub;
  std::optional<telemetry::RunMonitor> monitor;
  if (mon.active()) {
    hub.emplace();
    hub->SetInfo("command", "multi");
    hub->SetInfo("algo", algo);
    // The engine forwards the shard to the system; the robust adapter (if
    // any) is that system and fans it out to its fault lanes + control
    // model.
    opt.telemetry = hub->ShardForCurrentThread();
    opt.checkpoint.telemetry = opt.telemetry;
    monitor.emplace(&*hub, mon);
    monitor->Start();
  }
  const auto finish = [&monitor](int code) {
    if (!monitor.has_value()) return code;
    monitor->Stop();
    return monitor->MergeExitCode(code);
  };
  MultiRunResult r;
  try {
    r = RunMultiSessionEvent(traces, *sys, opt);
  } catch (const CrashInjected& e) {
    if (!trace_out.empty()) WriteTraceFile(trace_out, sink.ToNdjson());
    std::fprintf(stderr, "bwsim: %s\n", e.what());
    return finish(3);
  }
  if (robust != nullptr) {
    r.faults = robust->fault_stats();
    r.per_session_faults = robust->per_session_fault_stats();
  }

  if (auditor.has_value()) auditor->Finish();
  if (!trace_out.empty()) WriteTraceFile(trace_out, sink.ToNdjson());
  if (print_profile) std::fputs(profile.Format().c_str(), stderr);
  if (json) {
    std::printf("%s\n", ToJson(r).c_str());
    if (print_metrics) std::printf("%s\n", metrics.ToJson().c_str());
    if (auditor.has_value()) {
      std::printf("%s\n", auditor->ReportJson().c_str());
      return finish(auditor->ok() ? 0 : 1);
    }
    return finish(0);
  }
  Table table({"metric", "value"});
  table.AddRow({"algo", algo})
      .AddRow({"sessions", Table::Num(r.sessions)})
      .AddRow({"arrivals (bits)", Table::Num(r.total_arrivals)})
      .AddRow({"delivered (bits)", Table::Num(r.total_delivered)})
      .AddRow({"max delay", Table::Num(r.delay.max_delay())})
      .AddRow({"p99 delay", Table::Num(r.delay.Percentile(0.99))})
      .AddRow({"local changes", Table::Num(r.local_changes)})
      .AddRow({"global changes", Table::Num(r.global_changes)})
      .AddRow({"stages", Table::Num(r.stages)})
      .AddRow({"global stages", Table::Num(r.global_stages)})
      .AddRow({"global util", Table::Num(r.global_utilization, 3)})
      .AddRow({"peak total alloc", r.peak_total_allocation.ToString()});
  if (hops > 0) {
    table.AddRow({"signal requests", Table::Num(r.faults.requests)})
        .AddRow({"signal commits", Table::Num(r.faults.commits)})
        .AddRow({"signal losses", Table::Num(r.faults.losses)})
        .AddRow({"signal denials", Table::Num(r.faults.denials)})
        .AddRow({"partial grants", Table::Num(r.faults.partial_grants)})
        .AddRow({"timeouts", Table::Num(r.faults.timeouts)})
        .AddRow({"retries", Table::Num(r.faults.retries)})
        .AddRow({"fallback drains", Table::Num(r.faults.fallbacks)});
  }
  if (r.churn.any()) {
    const double admitted_fraction =
        r.churn.offered > 0 ? static_cast<double>(r.churn.admitted) /
                                  static_cast<double>(r.churn.offered)
                            : 0.0;
    table.AddRow({"sessions offered", Table::Num(r.churn.offered)})
        .AddRow({"sessions admitted", Table::Num(r.churn.admitted)})
        .AddRow({"sessions rejected", Table::Num(r.churn.rejected)})
        .AddRow({"sessions shed", Table::Num(r.churn.shed)})
        .AddRow({"sessions departed", Table::Num(r.churn.departed)})
        .AddRow({"admitted fraction", Table::Num(admitted_fraction, 3)})
        .AddRow({"depart dropped (bits)", Table::Num(r.churn.dropped_bits)});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.PrintAscii(std::cout);
  }
  if (print_metrics) std::printf("%s\n", metrics.ToJson().c_str());
  if (auditor.has_value()) {
    std::fputs(auditor->FormatReport().c_str(), stdout);
    return finish(auditor->ok() ? 0 : 1);
  }
  return finish(0);
}

int RunOffline(Flags& flags) {
  const Bits bo = flags.Int("bo", 64);
  const Time d_o = flags.Int("do", 8);
  const std::int64_t inv_uo = flags.Int("inv-uo", 2);
  const Time w = flags.Int("w", 2 * d_o);
  const Time horizon = flags.Int("horizon", 4000);
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const std::string workload = flags.Str("workload", "mixed");
  const std::string trace_path = flags.Str("trace", "");
  flags.CheckUnused();

  const std::vector<Bits> trace =
      trace_path.empty()
          ? SingleSessionWorkload(workload, bo, d_o, horizon, seed)
          : LoadTrace(trace_path);

  OfflineParams p;
  p.max_bandwidth = bo;
  p.delay = d_o;
  p.utilization = Ratio(1, inv_uo);
  p.window = w;

  const std::int64_t lb = EnvelopeStageLowerBound(trace, p);
  const OfflineSchedule s = GreedyMinChangeSchedule(trace, p);
  Table table({"metric", "value"});
  table.AddRow({"stage lower bound (Lemma 1)", Table::Num(lb)});
  table.AddRow({"schedule feasible", s.feasible ? "yes" : "no"});
  if (s.feasible) {
    const ScheduleCheck check = ValidateSchedule(trace, s);
    table.AddRow({"pieces", Table::Num(static_cast<std::int64_t>(
                      s.pieces.size()))})
        .AddRow({"changes", Table::Num(s.changes())})
        .AddRow({"max delay", Table::Num(check.max_delay)})
        .AddRow({"global util", Table::Num(check.global_utilization, 3)});
  }
  table.PrintAscii(std::cout);
  return 0;
}

int RunReplay(Flags& flags) {
  const std::string trace_path = flags.Str("trace", "");
  const std::string schedule_path = flags.Str("schedule", "");
  const bool json = flags.Bool("json", false);
  flags.CheckUnused();
  if (trace_path.empty() || schedule_path.empty()) {
    throw std::invalid_argument("replay needs --trace and --schedule");
  }
  const std::vector<Bits> trace = LoadTrace(trace_path);
  // Horizon covers the trace plus a drain tail past the last piece.
  const Time horizon = static_cast<Time>(trace.size()) + 64;
  const OfflineSchedule schedule = LoadSchedule(schedule_path, horizon);
  if (json) {
    std::printf("%s\n", ToJson(schedule).c_str());
    return 0;
  }
  const ScheduleCheck check = ValidateSchedule(trace, schedule);
  Table table({"metric", "value"});
  table.AddRow({"pieces", Table::Num(static_cast<std::int64_t>(
                    schedule.pieces.size()))})
      .AddRow({"changes", Table::Num(schedule.changes())})
      .AddRow({"max delay", Table::Num(check.max_delay)})
      .AddRow({"undelivered bits", Table::Num(check.final_queue)})
      .AddRow({"global util", Table::Num(check.global_utilization, 3)});
  table.PrintAscii(std::cout);
  return 0;
}

int RunTune(Flags& flags) {
  const Bits ba = flags.Int("ba", 64);
  const Time da = flags.Int("da", 16);
  const std::int64_t inv_ua = flags.Int("inv-ua", 6);
  const Time max_w = flags.Int("max-w", 8 * (da / 2));
  const Time horizon = flags.Int("horizon", 4000);
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  const std::string workload = flags.Str("workload", "mixed");
  const std::string trace_path = flags.Str("trace", "");
  flags.CheckUnused();

  const std::vector<Bits> trace =
      trace_path.empty()
          ? SingleSessionWorkload(workload, ba, da / 2, horizon, seed)
          : LoadTrace(trace_path);

  SingleSessionParams p;
  p.max_bandwidth = ba;
  p.max_delay = da;
  p.min_utilization = Ratio(1, inv_ua);
  p.window = da / 2;

  const TuneResult r = TuneWindow(trace, p, max_w);
  Table table({"W", "changes", "stages", "max delay", "local util",
               "global util", "pick"});
  for (const TunePoint& point : r.sweep) {
    table.AddRow({Table::Num(point.window), Table::Num(point.changes),
                  Table::Num(point.stages), Table::Num(point.max_delay),
                  Table::Num(point.local_utilization, 3),
                  Table::Num(point.global_utilization, 3),
                  point.window == r.recommended_window ? "<==" : ""});
  }
  table.PrintAscii(std::cout);
  if (r.found) {
    std::printf("recommended W = %lld (largest window clearing the "
                "utilization target U_A = 1/%lld and delay bound)\n",
                static_cast<long long>(r.recommended_window),
                static_cast<long long>(inv_ua));
  } else {
    std::printf("no candidate window met the targets — lower U_A or raise "
                "--max-w\n");
  }
  return 0;
}

// Upper bound on a --ks entry: far above any practical sweep, low enough to
// catch pasted garbage before it allocates per-session state.
constexpr std::int64_t kMaxBatchSessions = 4096;

int RunBatch(Flags& flags) {
  const std::string suite_kind = flags.Str("suite", "single");
  const std::int64_t jobs64 = flags.Int("jobs", 0);
  if (jobs64 < 0 || jobs64 > kMaxJobsFlag) {
    // Without this guard the int64 would be silently narrowed to int —
    // "--jobs=99999999999" must be a usage error, not a 1.5k-thread pool.
    throw tools::UsageError("flag --jobs: integer out of range: '" +
                            std::to_string(jobs64) + "' (want 0.." +
                            std::to_string(kMaxJobsFlag) + ")");
  }
  const int jobs = static_cast<int>(jobs64);
  const bool csv = flags.Bool("csv", false);
  const std::string trace_out = flags.Str("trace", "");
  const std::string trace_events = flags.Str("trace-events", "all");
  const bool print_metrics = flags.Bool("metrics", false);
  const bool audit = flags.Bool("audit", false);
  const telemetry::MonitorOptions mon = ParseTelemetryFlags(flags);

  SuiteSpec spec;
  spec.name = flags.Str("name", "batch");
  spec.seeds = flags.Int("seeds", 4);
  spec.horizon = flags.Int("horizon", 4000);
  const auto base_seed = static_cast<std::uint64_t>(flags.Int("base-seed", 0));

  // The unreliable-control-plane flags apply to both suite kinds.
  spec.fault_hops = flags.Int("fault-hops", 0);
  spec.fault_loss = flags.Double("fault-loss", 0.0);
  spec.fault_denial = flags.Double("fault-denial", 0.0);
  spec.fault_partial = flags.Double("fault-partial", 0.0);
  spec.fault_jitter = flags.Int("fault-jitter", 0);

  if (suite_kind == "single") {
    spec.kind = SuiteSpec::Kind::kSingle;
    const std::string workloads = flags.Str("workloads", "");
    if (!workloads.empty()) spec.workloads = SplitList(workloads);
    spec.algo = flags.Str("algo", "online");
    spec.ba = flags.Int("ba", 64);
    spec.da = flags.Int("da", 16);
    spec.inv_ua = flags.Int("inv-ua", 6);
    spec.window = flags.Int("w", 8);
  } else if (suite_kind == "multi") {
    spec.kind = SuiteSpec::Kind::kMulti;
    const std::string kinds = flags.Str("kinds", "");
    if (!kinds.empty()) spec.kinds = SplitList(kinds);
    const std::string ks = flags.Str("ks", "");
    if (!ks.empty()) {
      spec.session_counts.clear();
      for (const std::string& k : SplitList(ks)) {
        const std::int64_t v = Flags::ParseInt("flag --ks entry", k);
        if (v < 1 || v > kMaxBatchSessions) {
          throw tools::UsageError("flag --ks entry: session count " + k +
                                  " out of range [1, " +
                                  std::to_string(kMaxBatchSessions) + "]");
        }
        spec.session_counts.push_back(v);
      }
      if (spec.session_counts.empty()) {
        throw tools::UsageError("flag --ks: empty session-count list");
      }
    }
    spec.multi_algo = flags.Str("algo", "phased");
    spec.per_session_bo = flags.Int("bo-per-session", 16);
    spec.d_o = flags.Int("do", 8);
  } else {
    throw std::invalid_argument("unknown --suite: " + suite_kind);
  }
  flags.CheckUnused();
  {
    FaultPlan plan;
    plan.loss_rate = spec.fault_loss;
    plan.denial_rate = spec.fault_denial;
    plan.partial_grant_rate = spec.fault_partial;
    plan.max_jitter = spec.fault_jitter;
    CheckFaultPlanFlags(plan, /*batch=*/true);
  }
  if (!trace_out.empty()) {
    spec.trace = true;
    spec.trace_events = ParseEventsFlag(trace_events);
  }
  spec.audit = audit;

  std::optional<telemetry::TelemetryHub> hub;
  std::optional<telemetry::RunMonitor> monitor;
  if (mon.active()) {
    hub.emplace();
    hub->SetInfo("command", "batch");
    hub->SetInfo("suite", suite_kind);
    hub->SetInfo("name", spec.name);
    spec.telemetry = &*hub;  // per-worker shards inside the cells
    monitor.emplace(&*hub, mon);
    monitor->Start();
  }
  BatchRunner runner(
      BatchOptions{jobs, base_seed, hub.has_value() ? &*hub : nullptr});
  const SuiteReport report = RunSuite(spec, runner);
  if (!trace_out.empty()) WriteTraceFile(trace_out, report.trace_ndjson);
  std::fputs(FormatReport(spec, report, csv).c_str(), stdout);
  if (print_metrics) {
    std::printf("%s\n", report.aggregate.metrics.ToJson().c_str());
  }
  const int code = report.ok() ? 0 : 1;
  if (!monitor.has_value()) return code;
  monitor->Stop();
  return monitor->MergeExitCode(code);
}

// Renders a recorded NDJSON trace as per-session timelines plus a
// chronological milestone listing.
int RunTraceSummary(Flags& flags) {
  const std::string trace_path = flags.Str("trace", "");
  const std::int64_t max_events = flags.Int("events", 20);
  const bool csv = flags.Bool("csv", false);
  const bool lenient = flags.Bool("lenient", false);
  flags.CheckUnused();
  if (trace_path.empty()) {
    throw tools::UsageError("trace-summary needs --trace FILE");
  }
  if (max_events < 0) {
    throw tools::UsageError("flag --events: must be >= 0");
  }

  TraceReadOptions ropt;
  ropt.lenient = lenient;
  TraceReadStats rstats;
  const TraceSummary summary =
      Summarize(ReadTraceFile(trace_path, ropt, &rstats));
  if (summary.total_events == 0) {
    std::fprintf(stderr, "bwsim: trace %s contains no events\n",
                 trace_path.c_str());
    return 1;
  }
  std::printf("%lld events, slots [%lld, %lld]\n",
              static_cast<long long>(summary.total_events),
              static_cast<long long>(summary.first_slot),
              static_cast<long long>(summary.last_slot));
  if (rstats.skipped > 0) {
    std::printf("skipped_malformed: %lld line(s)\n",
                static_cast<long long>(rstats.skipped));
  }
  if (summary.skipped_unknown > 0) {
    std::string names;
    for (const auto& [name, count] : summary.unknown_events) {
      if (!names.empty()) names += ", ";
      names += name + " x" + std::to_string(count);
    }
    std::printf("skipped_unknown: %lld event(s) of future type(s): %s\n",
                static_cast<long long>(summary.skipped_unknown),
                names.c_str());
  }

  Table table({"suite", "cell", "session", "slots", "events", "stages",
               "resets", "allocs", "shunts", "req", "commit", "loss", "deny",
               "retry", "fall", "queue peak"});
  for (const SessionTimeline& s : summary.sessions) {
    table.AddRow(
        {s.suite, Table::Num(s.cell),
         s.session < 0 ? std::string("-") : Table::Num(s.session),
         Table::Num(s.first_slot) + ".." + Table::Num(s.last_slot),
         Table::Num(s.events), Table::Num(s.stages_certified),
         Table::Num(s.reset_drains + s.global_resets),
         Table::Num(s.alloc_changes), Table::Num(s.overflow_shunts),
         Table::Num(s.requests), Table::Num(s.commits), Table::Num(s.losses),
         Table::Num(s.denials), Table::Num(s.retries), Table::Num(s.fallbacks),
         Table::Num(s.queue_peak_bits)});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.PrintAscii(std::cout);
  }

  if (max_events > 0 && !summary.milestones.empty()) {
    std::printf("\nmilestones (first %lld of %zu):\n",
                static_cast<long long>(max_events),
                summary.milestones.size());
    std::int64_t shown = 0;
    for (const TraceRecord& rec : summary.milestones) {
      if (shown >= max_events) break;
      ++shown;
      std::string payload;
      for (const auto& [key, value] : rec.payload) {
        payload += " " + key + "=" + std::to_string(value);
      }
      const std::string session =
          rec.session < 0 ? "-" : std::to_string(rec.session);
      std::printf("  slot %-8lld cell %-4lld session %-4s %-16s%s\n",
                  static_cast<long long>(rec.slot),
                  static_cast<long long>(rec.cell), session.c_str(),
                  rec.event.c_str(), payload.c_str());
    }
  }
  return 0;
}

// Sample values are doubles after parsing, but almost all of them are
// counts: print integers as integers and keep real fractions readable.
std::string FormatSampleValue(double v) {
  const auto i = static_cast<std::int64_t>(v);
  if (static_cast<double>(i) == v) return Table::Num(i);
  return Table::Num(v, 6);
}

// Pretty-prints and diffs a telemetry snapshot file written by
// --stats-out. With one snapshot the table shows its values; with more it
// also shows the first->last delta per series. Exit 0 = ok, 2 = usage or
// unreadable/malformed file.
int RunStatsSummary(Flags& flags, const std::string& positional) {
  const std::string flag_path = flags.Str("stats", "");
  const bool csv = flags.Bool("csv", false);
  const bool buckets = flags.Bool("buckets", false);
  flags.CheckUnused();
  const std::string path = positional.empty() ? flag_path : positional;
  if (path.empty()) {
    throw tools::UsageError(
        "stats-summary needs a snapshot file: bwsim stats-summary FILE "
        "(or --stats FILE)");
  }
  if (!positional.empty() && !flag_path.empty()) {
    throw tools::UsageError(
        "stats-summary got both a positional file and --stats");
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw tools::UsageError("stats-summary: cannot read '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<telemetry::ParsedSnapshot> snaps;
  try {
    snaps = telemetry::ParseSnapshots(buf.str());
  } catch (const telemetry::SnapshotParseError& e) {
    throw tools::UsageError("stats-summary: " + path + ": " + e.what());
  }
  if (snaps.empty()) {
    throw tools::UsageError("stats-summary: " + path +
                            ": no telemetry snapshots");
  }

  const telemetry::ParsedSnapshot& first = snaps.front();
  const telemetry::ParsedSnapshot& last = snaps.back();
  const bool diff = snaps.size() > 1;
  std::printf("%zu snapshot(s), seq %lld..%lld",
              snaps.size(), static_cast<long long>(first.seq),
              static_cast<long long>(last.seq));
  if (last.Has("bwsim_uptime_ms")) {
    std::printf(", uptime %s ms",
                FormatSampleValue(last.Value("bwsim_uptime_ms")).c_str());
  }
  std::printf("\n");

  Table table(diff ? std::vector<std::string>{"series", "first", "last",
                                              "delta"}
                   : std::vector<std::string>{"series", "value"});
  for (const auto& [name, series] : last.samples) {
    // Histogram buckets are high-volume detail; elide them by default
    // (the _sum/_count/_max companions stay).
    const bool is_bucket =
        name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0;
    if (is_bucket && !buckets) continue;
    for (const telemetry::ParsedSample& sample : series) {
      const std::string label =
          sample.labels.empty() ? name : name + "{" + sample.labels + "}";
      if (!diff) {
        table.AddRow({label, FormatSampleValue(sample.value)});
        continue;
      }
      std::string first_text = "-";
      std::string delta_text = "-";
      if (first.Has(name)) {
        for (const telemetry::ParsedSample& fs : first.samples.at(name)) {
          if (fs.labels == sample.labels) {
            first_text = FormatSampleValue(fs.value);
            delta_text = FormatSampleValue(sample.value - fs.value);
            break;
          }
        }
      }
      table.AddRow({label, first_text, FormatSampleValue(sample.value),
                    delta_text});
    }
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.PrintAscii(std::cout);
  }
  return 0;
}

// Replays a recorded NDJSON trace through the streaming theorem auditor.
// Exit 0 = clean, 1 = violations (or unreadable/empty trace), 2 = usage.
int RunAudit(Flags& flags, const std::string& positional) {
  const std::string flag_path = flags.Str("trace", "");
  const std::string model = flags.Str("model", "single");
  const std::string algo =
      flags.Str("algo", model == "multi" ? "phased" : "online");
  const Bits ba = flags.Int("ba", 64);
  const Time da = flags.Int("da", 16);
  const std::int64_t inv_ua = flags.Int("inv-ua", 6);
  const Time w = flags.Int("w", 2 * (da / 2));
  const std::int64_t k = flags.Int("k", 4);
  const Bits bo = flags.Int("bo", 64);
  const Time d_o = flags.Int("do", 8);
  const Time delay_slack = flags.Int("delay-slack", 0);
  const Time degraded_slack = flags.Int("degraded-delay-slack", -1);
  const std::int64_t stage_slack = flags.Int("stage-slack", 1);
  const std::int64_t max_violations = flags.Int("max-violations", 64);
  const bool lenient = flags.Bool("lenient", false);
  const bool json = flags.Bool("json", false);
  flags.CheckUnused();

  const std::string path = positional.empty() ? flag_path : positional;
  if (path.empty()) {
    throw tools::UsageError("audit needs a trace: bwsim audit FILE "
                            "(or --trace FILE)");
  }
  if (!positional.empty() && !flag_path.empty()) {
    throw tools::UsageError("audit got both a positional trace and --trace");
  }

  AuditConfig cfg;
  if (model == "single") {
    if (algo == "online" || algo == "modified" || algo == "online-global") {
      cfg = SingleAuditConfig(ba, da, inv_ua, w);
      cfg.modified_variant = algo == "modified";
      cfg.global_utilization = algo == "online-global";
    } else {
      throw tools::UsageError("flag --algo: audit --model single knows "
                              "online|modified|online-global, got " + algo);
    }
  } else if (model == "multi") {
    if (algo == "phased" || algo == "continuous") {
      cfg = MultiAuditConfig(k, bo, d_o, algo == "phased");
    } else if (algo == "combined" || algo == "combined-continuous") {
      cfg = MultiAuditConfig(k, bo, d_o, false);
      cfg.max_total_bandwidth = (algo == "combined" ? 7 : 8) * bo;
      cfg.max_overflow_bandwidth = 0;
      cfg.loose_stages = true;
    } else {
      throw tools::UsageError(
          "flag --algo: audit --model multi knows "
          "phased|continuous|combined|combined-continuous, got " + algo);
    }
  } else {
    throw tools::UsageError("flag --model: expected single|multi, got " +
                            model);
  }
  cfg.delay_slack = delay_slack;
  cfg.degraded_delay_slack = degraded_slack;
  cfg.stage_slack = stage_slack;
  cfg.max_violations = max_violations;

  TraceReadOptions ropt;
  ropt.lenient = lenient;
  TraceReadStats stats;
  std::vector<TraceRecord> records;
  try {
    records = ReadTraceFile(path, ropt, &stats);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bwsim: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr, "bwsim: trace %s contains no events\n", path.c_str());
    return 1;
  }

  Auditor auditor(cfg);
  for (const TraceRecord& rec : records) auditor.OnRecord(rec);
  auditor.Finish();

  if (json) {
    std::printf("%s\n", auditor.ReportJson().c_str());
  } else {
    std::fputs(auditor.FormatReport().c_str(), stdout);
    if (stats.skipped > 0) {
      std::printf("lenient: skipped %lld malformed line(s)\n",
                  static_cast<long long>(stats.skipped));
    }
  }
  return auditor.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    // `audit` takes an optional positional trace path before its flags.
    if (command == "audit") {
      const bool positional = argc >= 3 && argv[2][0] != '-';
      Flags flags(argc, argv, positional ? 3 : 2);
      return RunAudit(flags, positional ? argv[2] : "");
    }
    // `stats-summary` takes an optional positional snapshot-file path.
    if (command == "stats-summary") {
      const bool positional = argc >= 3 && argv[2][0] != '-';
      Flags flags(argc, argv, positional ? 3 : 2);
      return RunStatsSummary(flags, positional ? argv[2] : "");
    }
    if (command == "checkpoint-dump") {
      if (argc < 3 || argv[2][0] == '-') {
        throw bwalloc::tools::UsageError(
            "checkpoint-dump needs a checkpoint file path");
      }
      Flags flags(argc, argv, 3);
      flags.CheckUnused();
      const std::string path = argv[2];
      // ReadCheckpointFile validates and strips the envelope; re-wrap so
      // the debug dump reports the envelope fields it verified.
      std::printf("%s\n",
                  bwalloc::CheckpointDebugJson(
                      bwalloc::WrapCheckpoint(bwalloc::ReadCheckpointFile(path)),
                      path)
                      .c_str());
      return 0;
    }
    Flags flags(argc, argv, 2);
    if (command == "generate") return RunGenerate(flags);
    if (command == "single") return RunSingle(flags);
    if (command == "multi") return RunMulti(flags);
    if (command == "offline") return RunOffline(flags);
    if (command == "tune") return RunTune(flags);
    if (command == "replay") return RunReplay(flags);
    if (command == "batch") return RunBatch(flags);
    if (command == "trace-summary") return RunTraceSummary(flags);
    return Usage();
  } catch (const bwalloc::tools::UsageError& e) {
    std::fprintf(stderr, "bwsim: %s\n", e.what());
    return 2;
  } catch (const bwalloc::CheckpointError& e) {
    // A missing/corrupt checkpoint file is an operator error, like a bad
    // flag value: exit 2 so scripts can distinguish it from run failures.
    std::fprintf(stderr, "bwsim: %s\n", e.what());
    return 2;
  } catch (const bwalloc::CrashInjected& e) {
    // Safety net — the run commands convert injected crashes to exit 3
    // themselves (after flushing the torn journal).
    std::fprintf(stderr, "bwsim: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bwsim: %s\n", e.what());
    return 1;
  }
}
