#include "checks.h"

#include <sstream>

#include "obs/trace_reader.h"
#include "util/fixed_point.h"

namespace perfbench {
namespace {

std::string Num(std::int64_t v) { return std::to_string(v); }

void Fail(Failures* failures, const std::string& label,
          const std::string& what) {
  failures->push_back(label + ": " + what);
}

}  // namespace

void CheckRun(const bwalloc::MultiRunResult& r, const Expect& e,
              Failures* failures) {
  if (e.input_bits >= 0 && r.total_arrivals != e.input_bits) {
    Fail(failures, e.label,
         "total_arrivals " + Num(r.total_arrivals) + " != input bits " +
             Num(e.input_bits));
  }
  const bwalloc::Bits accounted =
      r.total_delivered + r.final_queue + r.churn.dropped_bits;
  if (r.total_arrivals != accounted) {
    Fail(failures, e.label,
         "total_arrivals " + Num(r.total_arrivals) +
             " != delivered + final_queue + dropped " + Num(accounted));
  }
  if (r.delay.max_delay() > e.max_delay) {
    Fail(failures, e.label,
         "max delay " + Num(r.delay.max_delay()) + " > bound " +
             Num(e.max_delay));
  }
  if (e.max_total_bandwidth > 0 &&
      r.peak_total_allocation >
          bwalloc::Bandwidth::FromBitsPerSlot(e.max_total_bandwidth)) {
    Fail(failures, e.label,
         "peak total allocation " +
             std::to_string(r.peak_total_allocation.ToDouble()) + " > bound " +
             Num(e.max_total_bandwidth));
  }
  if (e.local_changes_per_stage > 0 &&
      r.local_changes > e.local_changes_per_stage * (r.stages + 1)) {
    Fail(failures, e.label,
         "local changes " + Num(r.local_changes) + " over " +
             Num(r.stages + 1) + " stages exceed " +
             Num(e.local_changes_per_stage) + " per stage");
  }
  if (e.global_changes_per_stage > 0 &&
      r.global_changes >
          e.global_changes_per_stage * (r.global_stages + 1)) {
    Fail(failures, e.label,
         "global changes " + Num(r.global_changes) + " over " +
             Num(r.global_stages + 1) + " global stages exceed " +
             Num(e.global_changes_per_stage) + " per stage");
  }
}

void CheckSame(const std::string& label, const bwalloc::MultiRunResult& want,
               const bwalloc::MultiRunResult& got, Failures* failures) {
  if (want == got) return;
  struct Field {
    const char* name;
    std::int64_t want;
    std::int64_t got;
  };
  const Field fields[] = {
      {"horizon", want.horizon, got.horizon},
      {"total_arrivals", want.total_arrivals, got.total_arrivals},
      {"total_delivered", want.total_delivered, got.total_delivered},
      {"final_queue", want.final_queue, got.final_queue},
      {"local_changes", want.local_changes, got.local_changes},
      {"global_changes", want.global_changes, got.global_changes},
      {"stages", want.stages, got.stages},
      {"global_stages", want.global_stages, got.global_stages},
      {"total_allocated_raw", want.total_allocated_raw,
       got.total_allocated_raw},
      {"max_delay", want.delay.max_delay(), got.delay.max_delay()},
      {"fault requests", want.faults.requests, got.faults.requests},
      {"churn admitted", want.churn.admitted, got.churn.admitted},
  };
  for (const Field& f : fields) {
    if (f.want != f.got) {
      Fail(failures, label,
           std::string("results differ in ") + f.name + ": " + Num(f.want) +
               " vs " + Num(f.got));
      return;
    }
  }
  Fail(failures, label, "results differ (histograms or per-session fields)");
}

void CheckAudit(const std::string& label, const bwalloc::Auditor& auditor,
                Failures* failures) {
  if (!auditor.ok()) {
    Fail(failures, label,
         "streaming audit reports " + Num(auditor.total_violations()) +
             " violation(s): " + auditor.FormatReport());
  }
}

bwalloc::Auditor Reaudit(const std::string& ndjson,
                         const bwalloc::AuditConfig& config) {
  std::istringstream in(ndjson);
  const std::vector<bwalloc::TraceRecord> records = bwalloc::ReadTrace(in);
  bwalloc::Auditor auditor(config);
  for (const bwalloc::TraceRecord& rec : records) auditor.OnRecord(rec);
  auditor.Finish();
  return auditor;
}

void CheckReaudit(const std::string& label, const bwalloc::Auditor& streaming,
                  const bwalloc::Auditor& replayed, Failures* failures) {
  if (replayed.events() != streaming.events()) {
    Fail(failures, label,
         "re-audit saw " + Num(replayed.events()) + " events, streaming " +
             Num(streaming.events()));
  }
  if (replayed.ReportJson() != streaming.ReportJson()) {
    Fail(failures, label, "re-audit report differs from the streaming one");
  }
}

}  // namespace perfbench
