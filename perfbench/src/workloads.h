// The benchmark's workloads. One call runs one pass: workload parameters
// in, every output of the workload out (results, result JSON and, where the
// workload enables them, the NDJSON trace, audit reports and checkpoints),
// then the output checks, which are not timed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "obs/audit/auditor.h"
#include "sim/run_result.h"

namespace perfbench {

// kFull is the measured size; kSmoke runs the same code on inputs small
// enough to check the benchmark itself in a few seconds.
enum class Size { kFull, kSmoke };

struct PassOutput {
  // When the first engine call began, and the untimed check work done in
  // the pass before it (a cold set-up is measured up to this point).
  Clock::time_point first_engine{};
  double untimed_before_engine_s = 0.0;
  double total_s = 0.0;  // pass start to the last output
  double sim_s = 0.0;    // wall time of the engine calls
  // Sessions declared by the input x slots simulated, over every engine call.
  std::int64_t session_slots = 0;
  std::int64_t operations = 0;  // engine calls
  LayerProbe probe;
  // Every finished engine call's result and what it must satisfy.
  std::vector<bwalloc::MultiRunResult> results;
  std::vector<Expect> expects;
  Failures failures;
  // audited-trace at smoke size only: kept for the negative controls.
  std::string ndjson;
  std::optional<bwalloc::Auditor> streaming_audit;
};

struct Workload {
  const char* name;
  PassOutput (*run)(std::uint64_t seed, Size size, bool traced);
};

const std::vector<Workload>& Workloads();

}  // namespace perfbench
