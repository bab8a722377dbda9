// Output checks. Each check compares a run's outputs with a quantity the
// benchmark computes apart from the program (input bits summed from the
// generated trace, a second run, a second audit) or with a bound the paper
// proves for the algorithm. A failed check appends one line to `failures`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/audit/auditor.h"
#include "sim/run_result.h"
#include "util/types.h"

namespace perfbench {

using Failures = std::vector<std::string>;

// What one engine call's result must satisfy.
struct Expect {
  std::string label;
  // Bits summed by the benchmark from the generated trace; < 0 skips the
  // check (churned runs: only admitted traffic is ever enqueued).
  bwalloc::Bits input_bits = -1;
  bwalloc::Time max_delay = 0;
  // Peak total allocation, bits/slot; 0 skips the check.
  bwalloc::Bits max_total_bandwidth = 0;
  // Local changes per stage (over stages + 1); 0 skips the check.
  std::int64_t local_changes_per_stage = 0;
  // Global changes per global stage (over global_stages + 1); 0 skips.
  std::int64_t global_changes_per_stage = 0;
};

// Input bits, conservation (arrivals = delivered + queued + churn-dropped),
// delay, peak allocation and change budgets.
void CheckRun(const bwalloc::MultiRunResult& r, const Expect& e,
              Failures* failures);

// `got` must equal `want` exactly (MultiRunResult::operator==); the failure
// names the first differing summary field.
void CheckSame(const std::string& label, const bwalloc::MultiRunResult& want,
               const bwalloc::MultiRunResult& got, Failures* failures);

// The streaming audit found no violation.
void CheckAudit(const std::string& label, const bwalloc::Auditor& auditor,
                Failures* failures);

// Re-reads `ndjson` through the trace reader into a fresh auditor with
// `config`; returns it finished.
bwalloc::Auditor Reaudit(const std::string& ndjson,
                         const bwalloc::AuditConfig& config);

// The re-audit of the re-read NDJSON gives the streaming audit's report
// and event count.
void CheckReaudit(const std::string& label, const bwalloc::Auditor& streaming,
                  const bwalloc::Auditor& replayed, Failures* failures);

}  // namespace perfbench
