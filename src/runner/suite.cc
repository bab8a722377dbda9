#include "runner/suite.h"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "core/single_session.h"
#include "core/stage_trace.h"
#include "net/faults.h"
#include "net/multi_faults.h"
#include "obs/audit/auditor.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

// Report-level cap on stored violations; the totals still count them all.
constexpr std::int64_t kMaxAuditShown = 64;

// One executed cell: its table row plus its aggregate contribution.
struct CellOutcome {
  std::vector<std::string> row;
  AggregateStats stats;
  std::string trace_ndjson;  // this cell's events; empty unless spec.trace
  std::int64_t audit_events = 0;
  std::int64_t audit_total = 0;
  std::vector<AuditViolation> audit_violations;
};

// Faulted cells run the default retry policy. Degraded runs hold a
// backlog for many retry rounds, so `drain` grows by the retry horizon and
// the auditor's degraded delay bound matches it.
RobustOptions::AuditSlack CellSlack(const SuiteSpec& spec, Time drain) {
  return RobustOptions{}.Slack(spec.fault_hops, spec.fault_jitter, drain);
}

// Auditor for a single-session cell, tuned to the cell's own guarantees:
// a faulty control plane erodes the delay bound by up to two commit
// latencies even fault-free, and degraded episodes run under the
// degraded-mode bound instead.
AuditConfig SingleCellAuditConfig(const SuiteSpec& spec) {
  AuditConfig cfg =
      SingleAuditConfig(spec.ba, spec.da, spec.inv_ua, spec.window);
  cfg.modified_variant = (spec.algo == "modified");
  if (spec.fault_hops > 0) {
    const RobustOptions::AuditSlack slack = CellSlack(spec, 2 * spec.da);
    cfg.delay_slack = slack.delay_slack;
    cfg.degraded_delay_slack = slack.degraded_delay_slack;
  }
  cfg.max_violations = kMaxAuditShown;
  return cfg;
}

// Auditor for a multi-session cell. Faulty cells additionally get the
// degraded-mode delay bound and the per-lane recovery-liveness monitor
// sized to one backoff-capped retry cycle.
AuditConfig MultiCellAuditConfig(const SuiteSpec& spec, std::int64_t k,
                                 Bits offline_bandwidth) {
  AuditConfig cfg = MultiAuditConfig(k, offline_bandwidth, spec.d_o,
                                     spec.multi_algo == "phased");
  if (spec.fault_hops > 0) {
    const RobustOptions::AuditSlack slack = CellSlack(spec, 8 * spec.d_o);
    cfg.delay_slack = slack.delay_slack;
    cfg.degraded_delay_slack = slack.degraded_delay_slack;
    cfg.fault_recovery_bound = slack.fault_recovery_bound;
  }
  cfg.max_violations = kMaxAuditShown;
  return cfg;
}

MultiWorkloadKind ParseMultiKind(const std::string& kind) {
  if (kind == "balanced") return MultiWorkloadKind::kBalanced;
  if (kind == "rotating-hotspot") return MultiWorkloadKind::kRotatingHotspot;
  if (kind == "churn") return MultiWorkloadKind::kChurn;
  if (kind == "skewed") return MultiWorkloadKind::kSkewed;
  throw std::invalid_argument("unknown multi workload kind: " + kind);
}

CellOutcome RunSingleCell(const SuiteSpec& spec, const TaskContext& ctx) {
  const std::int64_t grid = ctx.key.index / spec.seeds;
  const std::int64_t stream = ctx.key.index % spec.seeds;
  const std::string& workload =
      spec.workloads.at(static_cast<std::size_t>(grid));

  SingleSessionParams p;
  p.max_bandwidth = spec.ba;
  p.max_delay = spec.da;
  p.min_utilization = Ratio(1, spec.inv_ua);
  p.window = spec.window;

  const auto trace =
      SingleSessionWorkload(workload, p.offline_bandwidth(), p.offline_delay(),
                            spec.horizon, ctx.seed);

  SingleSessionOnline::Variant variant;
  if (spec.algo == "online") {
    variant = SingleSessionOnline::Variant::kBase;
  } else if (spec.algo == "modified") {
    variant = SingleSessionOnline::Variant::kModified;
  } else {
    throw std::invalid_argument("unknown suite algo: " + spec.algo);
  }

  CellOutcome out;
  BufferTraceSink sink;
  std::optional<Auditor> auditor;
  std::optional<AuditingSink> audit_sink;
  if (spec.audit) {
    auditor.emplace(SingleCellAuditConfig(spec));
    audit_sink.emplace(&*auditor, spec.trace ? &sink : nullptr);
  }
  const bool observe = spec.trace || spec.audit;
  Tracer tracer;
  if (observe) {
    TraceSink* dest = spec.audit ? static_cast<TraceSink*>(&*audit_sink)
                                 : static_cast<TraceSink*>(&sink);
    const EventMask mask = spec.trace ? spec.trace_events : kAllEvents;
    tracer = Tracer(dest, mask, {spec.name, ctx.key.index});
  }
  TracerStageObserver stage_observer(tracer);

  telemetry::RuntimeShard* const tele =
      spec.telemetry != nullptr ? spec.telemetry->ShardForCurrentThread()
                                : nullptr;

  SingleEngineOptions opt;
  opt.utilization_scan_window = spec.window + 5 * p.offline_delay();
  opt.tracer = tracer;
  opt.metrics = &out.stats.metrics;
  opt.telemetry = tele;

  SingleRunResult r;
  if (spec.fault_hops > 0) {
    FaultPlan plan;
    plan.loss_rate = spec.fault_loss;
    plan.denial_rate = spec.fault_denial;
    plan.partial_grant_rate = spec.fault_partial;
    plan.max_jitter = spec.fault_jitter;
    plan.seed = SplitMix64(ctx.seed);
    RobustOptions ropts;
    ropts.fallback_bandwidth = spec.ba;
    auto inner = std::make_unique<SingleSessionOnline>(p, variant);
    if (observe) inner->SetObserver(&stage_observer);
    RobustSignalingAdapter adapter(
        std::move(inner), NetworkPath::Uniform(spec.fault_hops, 1, 1.0), plan,
        ropts);
    if (observe) adapter.SetTracer(tracer);
    if (tele != nullptr) adapter.SetTelemetry(tele);
    opt.drain_slots = CellSlack(spec, 2 * spec.da).degraded_delay_slack;
    r = RunSingleSession(trace, adapter, opt);
    r.faults = adapter.fault_stats();
  } else {
    SingleSessionOnline alg(p, variant);
    if (observe) alg.SetObserver(&stage_observer);
    opt.drain_slots = 2 * spec.da;
    r = RunSingleSession(trace, alg, opt);
  }

  out.row = {workload,
             Table::Num(stream),
             Table::Num(r.delay.max_delay()),
             Table::Num(r.delay.Percentile(0.99)),
             Table::Num(r.changes),
             Table::Num(r.stages),
             Table::Num(r.worst_best_window_utilization, 3),
             Table::Num(r.global_utilization, 3)};
  if (spec.fault_hops > 0) {
    out.row.push_back(Table::Num(r.faults.losses));
    out.row.push_back(Table::Num(r.faults.denials));
    out.row.push_back(Table::Num(r.faults.retries));
    out.row.push_back(Table::Num(r.faults.fallbacks));
  }
  out.stats.Add(r);
  if (tele != nullptr) tele->Add(telemetry::Counter::kCells);
  if (spec.trace) out.trace_ndjson = sink.ToNdjson();
  if (auditor.has_value()) {
    auditor->Finish();
    out.audit_events = auditor->events();
    out.audit_total = auditor->total_violations();
    out.audit_violations = auditor->violations();
  }
  return out;
}

CellOutcome RunMultiCell(const SuiteSpec& spec, const TaskContext& ctx) {
  const std::int64_t per_kind =
      static_cast<std::int64_t>(spec.session_counts.size()) * spec.seeds;
  const std::int64_t kind_index = ctx.key.index / per_kind;
  const std::int64_t k = spec.session_counts.at(
      static_cast<std::size_t>((ctx.key.index / spec.seeds) %
                               static_cast<std::int64_t>(
                                   spec.session_counts.size())));
  const std::int64_t stream = ctx.key.index % spec.seeds;
  const std::string& kind =
      spec.kinds.at(static_cast<std::size_t>(kind_index));

  MultiSessionParams p;
  p.sessions = k;
  p.offline_bandwidth = spec.per_session_bo * k;
  p.offline_delay = spec.d_o;

  const auto traces =
      MultiSessionWorkload(ParseMultiKind(kind), k, p.offline_bandwidth,
                           p.offline_delay, spec.horizon, ctx.seed);

  CellOutcome out;
  BufferTraceSink sink;
  std::optional<Auditor> auditor;
  std::optional<AuditingSink> audit_sink;
  if (spec.audit) {
    auditor.emplace(MultiCellAuditConfig(spec, k, p.offline_bandwidth));
    audit_sink.emplace(&*auditor, spec.trace ? &sink : nullptr);
  }
  Tracer tracer;
  if (spec.trace || spec.audit) {
    TraceSink* dest = spec.audit ? static_cast<TraceSink*>(&*audit_sink)
                                 : static_cast<TraceSink*>(&sink);
    const EventMask mask = spec.trace ? spec.trace_events : kAllEvents;
    tracer = Tracer(dest, mask, {spec.name, ctx.key.index});
  }

  telemetry::RuntimeShard* const tele =
      spec.telemetry != nullptr ? spec.telemetry->ShardForCurrentThread()
                                : nullptr;

  MultiEngineOptions opt;
  opt.drain_slots = 4 * spec.d_o;
  opt.tracer = tracer;
  opt.metrics = &out.stats.metrics;
  // The engine forwards the shard to the system (and, through the robust
  // adapter, to its fault lanes and inner control model).
  opt.telemetry = tele;

  std::unique_ptr<MultiSessionSystem> sys;
  if (spec.multi_algo == "phased") {
    sys = std::make_unique<PhasedMulti>(p);
  } else if (spec.multi_algo == "continuous") {
    sys = std::make_unique<ContinuousMulti>(p);
  } else {
    throw std::invalid_argument("unknown suite multi algo: " + spec.multi_algo);
  }
  RobustMultiSessionAdapter* robust = nullptr;
  if (spec.fault_hops > 0) {
    FaultPlan plan;
    plan.loss_rate = spec.fault_loss;
    plan.denial_rate = spec.fault_denial;
    plan.partial_grant_rate = spec.fault_partial;
    plan.max_jitter = spec.fault_jitter;
    plan.seed = SplitMix64(ctx.seed);
    RobustOptions ropts;
    // Fall back to the algorithm's declared total (4 B_O phased,
    // 5 B_O continuous): a RESET drain may not starve any session.
    ropts.fallback_bandwidth =
        (spec.multi_algo == "phased" ? 4 : 5) * p.offline_bandwidth;
    auto adapter = std::make_unique<RobustMultiSessionAdapter>(
        std::move(sys), NetworkPath::Uniform(spec.fault_hops, 1, 1.0), plan,
        ropts);
    robust = adapter.get();
    sys = std::move(adapter);
    opt.drain_slots = CellSlack(spec, 8 * spec.d_o).degraded_delay_slack;
  }
  MultiRunResult r = RunMultiSessionEvent(traces, *sys, opt);
  if (robust != nullptr) {
    r.faults = robust->fault_stats();
    r.per_session_faults = robust->per_session_fault_stats();
  }

  out.row = {kind,
             Table::Num(k),
             Table::Num(stream),
             Table::Num(r.delay.max_delay()),
             Table::Num(r.delay.Percentile(0.99)),
             Table::Num(r.local_changes),
             Table::Num(r.stages),
             Table::Num(r.global_utilization, 3)};
  if (spec.fault_hops > 0) {
    out.row.push_back(Table::Num(r.faults.losses));
    out.row.push_back(Table::Num(r.faults.denials));
    out.row.push_back(Table::Num(r.faults.retries));
    out.row.push_back(Table::Num(r.faults.fallbacks));
  }
  out.stats.Add(r);
  if (tele != nullptr) tele->Add(telemetry::Counter::kCells);
  if (spec.trace) out.trace_ndjson = sink.ToNdjson();
  if (auditor.has_value()) {
    auditor->Finish();
    out.audit_events = auditor->events();
    out.audit_total = auditor->total_violations();
    out.audit_violations = auditor->violations();
  }
  return out;
}

Table EmptyCellTable(const SuiteSpec& spec) {
  if (spec.kind == SuiteSpec::Kind::kSingle) {
    std::vector<std::string> cols = {"workload",   "stream", "max delay",
                                     "p99 delay",  "changes", "stages",
                                     "local util", "global util"};
    if (spec.fault_hops > 0) {
      cols.insert(cols.end(), {"losses", "denials", "retries", "fallbacks"});
    }
    return Table(cols);
  }
  std::vector<std::string> cols = {"kind",      "k",      "stream",
                                   "max delay", "p99 delay", "changes",
                                   "stages",    "global util"};
  if (spec.fault_hops > 0) {
    cols.insert(cols.end(), {"losses", "denials", "retries", "fallbacks"});
  }
  return Table(cols);
}

}  // namespace

std::int64_t SuiteSpec::CellCount() const {
  if (kind == Kind::kSingle) {
    return static_cast<std::int64_t>(workloads.size()) * seeds;
  }
  return static_cast<std::int64_t>(kinds.size()) *
         static_cast<std::int64_t>(session_counts.size()) * seeds;
}

SuiteReport RunSuite(const SuiteSpec& spec, BatchRunner& runner) {
  if (spec.seeds <= 0) throw std::invalid_argument("suite needs seeds >= 1");
  if (spec.horizon <= 0) throw std::invalid_argument("suite needs horizon >= 1");
  if (spec.fault_hops > 0) {
    FaultPlan plan;
    plan.loss_rate = spec.fault_loss;
    plan.denial_rate = spec.fault_denial;
    plan.partial_grant_rate = spec.fault_partial;
    plan.max_jitter = spec.fault_jitter;
    // Reject bad rates — including progress-impossible ones under capped
    // retries — before sharding the grid.
    plan.ValidateRecoverable();
  }

  BatchResult<CellOutcome> batch = runner.Map<CellOutcome>(
      spec.name, spec.CellCount(), [&spec](const TaskContext& ctx) {
        return spec.kind == SuiteSpec::Kind::kSingle ? RunSingleCell(spec, ctx)
                                                     : RunMultiCell(spec, ctx);
      });

  SuiteReport report{EmptyCellTable(spec), {}, std::move(batch.errors),
                     {},                  0,  0,
                     {}};
  for (std::optional<CellOutcome>& cell : batch.results) {
    if (!cell.has_value()) continue;  // failed cell, reported via errors
    report.cells.AddRow(std::move(cell->row));
    report.aggregate.Merge(cell->stats);
    report.trace_ndjson += cell->trace_ndjson;
    report.audit_events += cell->audit_events;
    report.audit_total += cell->audit_total;
    for (AuditViolation& v : cell->audit_violations) {
      if (static_cast<std::int64_t>(report.audit_violations.size()) >=
          kMaxAuditShown) {
        break;
      }
      report.audit_violations.push_back(std::move(v));
    }
  }
  return report;
}

std::string FormatReport(const SuiteSpec& spec, const SuiteReport& report,
                         bool csv) {
  std::ostringstream out;
  out << "== batch suite '" << spec.name << "' ==\n";
  if (spec.kind == SuiteSpec::Kind::kSingle) {
    out << "single-session algo=" << spec.algo << " B_A=" << spec.ba
        << " D_A=" << spec.da << " U_A=1/" << spec.inv_ua
        << " W=" << spec.window;
    if (spec.fault_hops > 0) {
      out << " faults[hops=" << spec.fault_hops << " loss="
          << Table::Num(spec.fault_loss, 3) << " denial="
          << Table::Num(spec.fault_denial, 3) << " partial="
          << Table::Num(spec.fault_partial, 3)
          << " jitter=" << spec.fault_jitter << "]";
    }
  } else {
    out << "multi-session algo=" << spec.multi_algo
        << " B_O=" << spec.per_session_bo << "*k D_O=" << spec.d_o;
    if (spec.fault_hops > 0) {
      out << " faults[hops=" << spec.fault_hops << " loss="
          << Table::Num(spec.fault_loss, 3) << " denial="
          << Table::Num(spec.fault_denial, 3) << " partial="
          << Table::Num(spec.fault_partial, 3)
          << " jitter=" << spec.fault_jitter << "]";
    }
  }
  out << " horizon=" << spec.horizon << " streams=" << spec.seeds
      << " cells=" << spec.CellCount() << "\n\n";

  if (csv) {
    report.cells.PrintCsv(out);
  } else {
    report.cells.PrintAscii(out);
  }

  const AggregateStats& a = report.aggregate;
  out << "\nmerged over " << a.tasks << " cells:\n";
  out << "  arrivals=" << a.total_arrivals << " delivered=" << a.total_delivered
      << " final_queue=" << a.final_queue << " dropped=" << a.dropped << "\n";
  out << "  changes=" << a.changes << " stages=" << a.stages
      << " changes/stage=" << a.ChangesPerStage().ToString() << "\n";
  out << "  max_delay=" << a.max_delay
      << " mean_delay=" << Table::Num(a.delay.MeanDelay(), 4) << "\n";
  out << "  global_util=" << a.GlobalUtilization().ToString() << " ("
      << Table::Num(a.GlobalUtilization().ToDouble(), 6) << ")"
      << " min_local_util=" << Table::Num(a.min_local_utilization, 6) << "\n";
  if (a.faults.any()) {
    out << "  faults: requests=" << a.faults.requests
        << " commits=" << a.faults.commits << " losses=" << a.faults.losses
        << " denials=" << a.faults.denials
        << " partial=" << a.faults.partial_grants
        << " timeouts=" << a.faults.timeouts
        << " retries=" << a.faults.retries
        << " fallbacks=" << a.faults.fallbacks << "\n";
  }
  if (!report.errors.empty()) {
    out << "failed cells: " << FormatErrors(report.errors) << "\n";
  }
  if (spec.audit) {
    out << "audit: events=" << report.audit_events
        << " violations=" << report.audit_total
        << (report.audit_total == 0 ? " (ok)" : "") << "\n";
    for (const AuditViolation& v : report.audit_violations) {
      out << "  " << FormatViolation(v) << "\n";
    }
    const std::int64_t shown =
        static_cast<std::int64_t>(report.audit_violations.size());
    if (report.audit_total > shown) {
      out << "  ... and " << (report.audit_total - shown) << " more\n";
    }
  }
  return out.str();
}

}  // namespace bwalloc
