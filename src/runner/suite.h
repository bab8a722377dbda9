// Declarative sweep suites for the batch runner.
//
// A SuiteSpec names a grid of independent simulation cells — workloads x
// seed streams for the single-session algorithms, kinds x session counts x
// seed streams for the multi-session ones. RunSuite shards the cells over
// a BatchRunner and reduces them in cell-index order into a per-cell table
// plus an AggregateStats, so the formatted report is byte-identical for
// every --jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/table.h"
#include "obs/audit/violation.h"
#include "obs/trace_event.h"
#include "runner/batch_runner.h"
#include "runner/merge.h"
#include "util/types.h"

namespace bwalloc {

struct SuiteSpec {
  enum class Kind { kSingle, kMulti };

  std::string name = "batch";  // folded into every cell's RNG stream
  Kind kind = Kind::kSingle;
  std::int64_t seeds = 2;  // seed streams per grid point (task-key derived)
  Time horizon = 4000;

  // Single-session grid (kind == kSingle).
  std::vector<std::string> workloads = {"cbr", "onoff", "pareto", "mmpp",
                                        "video", "sawtooth", "mixed"};
  std::string algo = "online";  // online | modified
  Bits ba = 64;
  Time da = 16;
  std::int64_t inv_ua = 6;
  Time window = 8;

  // Unreliable control plane (both grid kinds). When fault_hops > 0 every
  // cell runs behind a RobustSignalingAdapter (single) or a
  // RobustMultiSessionAdapter with one fault lane per session (multi) over
  // a fault_hops-switch path; the FaultPlan seed derives from the cell's
  // task seed, so the grid replays bitwise at any --jobs value.
  std::int64_t fault_hops = 0;
  double fault_loss = 0.0;
  double fault_denial = 0.0;
  double fault_partial = 0.0;
  Time fault_jitter = 0;

  // Multi-session grid (kind == kMulti).
  std::vector<std::string> kinds = {"balanced", "rotating-hotspot", "churn",
                                    "skewed"};
  std::vector<std::int64_t> session_counts = {2, 4, 8};
  std::string multi_algo = "phased";  // phased | continuous
  Bits per_session_bo = 16;           // B_O = per_session_bo * k
  Time d_o = 8;
  // Structured event tracing. Each cell records into its own buffer;
  // RunSuite concatenates the buffers in cell-index order, so the NDJSON
  // stream is byte-identical at every --jobs value.
  bool trace = false;
  EventMask trace_events = kAllEvents;

  // Streaming theorem audit (obs/audit): every cell's event stream flows
  // through an Auditor configured from the cell's own parameters (faulty
  // cells get the degraded-mode delay bound). Works with or without
  // `trace`; when both are set the auditor sees the trace_events mask.
  bool audit = false;

  // Live telemetry hub. When set, every cell's engine, fault lanes and
  // checkpoint publishes record into the executing worker's shard.
  // Nondeterministic lane: reports, traces and audits stay byte-identical
  // with telemetry on or off, at every --jobs value.
  telemetry::TelemetryHub* telemetry = nullptr;

  // Cells = grid points x seed streams.
  std::int64_t CellCount() const;
};

struct SuiteReport {
  Table cells;  // one row per cell, cell-index order
  AggregateStats aggregate;
  std::vector<TaskError> errors;  // failed cells, index order
  // NDJSON trace of every cell, cell-index order; empty unless spec.trace.
  std::string trace_ndjson;

  // Audit tallies, merged in cell-index order; populated when spec.audit.
  std::int64_t audit_events = 0;
  std::int64_t audit_total = 0;  // all violations, including suppressed
  std::vector<AuditViolation> audit_violations;  // first kMaxAuditShown

  bool ok() const { return errors.empty() && audit_total == 0; }
};

// Runs every cell of `spec` on `runner`. Throws only on spec errors
// (unknown workload/algo names surface per-cell instead).
SuiteReport RunSuite(const SuiteSpec& spec, BatchRunner& runner);

// Renders spec + per-cell table + aggregate summary (and any per-cell
// failures) as the canonical `bwsim batch` output. Deterministic: equal
// reports format to equal bytes.
std::string FormatReport(const SuiteSpec& spec, const SuiteReport& report,
                         bool csv);

}  // namespace bwalloc
