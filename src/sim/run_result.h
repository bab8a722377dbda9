// Result records returned by the run engines.
#pragma once

#include <cstdint>
#include <vector>

#include "util/fixed_point.h"
#include "util/histogram.h"
#include "util/types.h"

namespace bwalloc {

// Degraded-mode counters of an unreliable control plane (net/faults.h).
// Every field is an exact integer count, so aggregation across shards is
// a plain sum — order-insensitive and bitwise reproducible.
struct FaultStats {
  std::int64_t requests = 0;        // signalling attempts issued
  std::int64_t commits = 0;         // attempts that committed end-to-end
  std::int64_t losses = 0;          // messages dropped by some hop
  std::int64_t denials = 0;         // admission-control refusals (NACKed)
  std::int64_t partial_grants = 0;  // increases granted below the ask
  std::int64_t timeouts = 0;        // endpoint gave up waiting on a request
  std::int64_t retries = 0;         // re-issued attempts after timeout/denial
  std::int64_t fallbacks = 0;       // RESET-style full-rate drain activations

  void Merge(const FaultStats& o) {
    requests += o.requests;
    commits += o.commits;
    losses += o.losses;
    denials += o.denials;
    partial_grants += o.partial_grants;
    timeouts += o.timeouts;
    retries += o.retries;
    fallbacks += o.fallbacks;
  }

  bool any() const {
    return requests != 0 || commits != 0 || losses != 0 || denials != 0 ||
           partial_grants != 0 || timeouts != 0 || retries != 0 ||
           fallbacks != 0;
  }

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

// Outcome of a single-session run.
struct SingleRunResult {
  Time horizon = 0;
  Bits total_arrivals = 0;
  Bits total_delivered = 0;
  Bits final_queue = 0;
  Bits dropped = 0;            // tail-dropped bits (finite buffer only)
  Bits peak_queue = 0;         // Claim 2 predicts <= B_on * D_A

  DelayHistogram delay;        // delays of delivered bits
  std::int64_t changes = 0;    // bandwidth transitions (excluding initial)
  std::int64_t stages = 0;     // completed stage count (offline lower bound)
  double global_utilization = 0.0;
  double worst_best_window_utilization = 0.0;  // Lemma 5 measurement
  double total_allocated_bits = 0.0;           // bandwidth-time consumed
  // Same quantity, exact, in raw Q16 units (see UtilizationMeter).
  std::int64_t total_allocated_raw = 0;
  Bandwidth peak_allocation;

  // Control-plane degradation counters; all-zero unless the run went
  // through a fault-injected signalling adapter (the engine cannot see the
  // adapter, so the caller copies adapter.fault_stats() in after the run).
  FaultStats faults;

  // Optional per-slot allocation trace (bench/figure output).
  std::vector<Bandwidth> allocation_trace;
};

// Session-lifecycle counters of a churned run (sim/churn.h). Exact
// integers; all-zero for fixed-population runs so result equality across
// engines is unaffected when churn is off.
struct ChurnStats {
  std::int64_t offered = 0;    // admission decisions made
  std::int64_t admitted = 0;   // accepted (possibly booked ahead)
  std::int64_t rejected = 0;   // refused at the arrival slot
  std::int64_t shed = 0;       // admitted, then load-shed before starting
  std::int64_t departed = 0;   // active sessions that left mid-run
  Bits dropped_bits = 0;       // queued bits discarded at departure

  bool any() const {
    return offered != 0 || admitted != 0 || rejected != 0 || shed != 0 ||
           departed != 0 || dropped_bits != 0;
  }

  friend bool operator==(const ChurnStats&, const ChurnStats&) = default;
};

// Outcome of a multi-session run.
struct MultiRunResult {
  Time horizon = 0;
  std::int64_t sessions = 0;
  Bits total_arrivals = 0;
  Bits total_delivered = 0;
  Bits final_queue = 0;

  DelayHistogram delay;                  // aggregate over all sessions
  std::vector<DelayHistogram> per_session_delay;
  std::int64_t local_changes = 0;        // per-session allocation transitions
  std::int64_t global_changes = 0;       // total-bandwidth transitions
  std::int64_t stages = 0;               // RESET count (offline lower bound)
  std::int64_t global_stages = 0;        // combined algorithm only
  double global_utilization = 0.0;
  double worst_best_window_utilization = 0.0;
  double total_allocated_bits = 0.0;
  // Same quantity, exact, in raw Q16 units (see UtilizationMeter).
  std::int64_t total_allocated_raw = 0;
  Bandwidth peak_total_allocation;
  Bandwidth peak_regular_allocation;
  Bandwidth peak_overflow_allocation;

  // Control-plane degradation counters; all-zero unless the run went
  // through a fault-injected multi-session adapter (the engine cannot see
  // the adapter, so the caller copies adapter.fault_stats() in after the
  // run). `faults` is the exact sum of `per_session_faults`.
  FaultStats faults;
  std::vector<FaultStats> per_session_faults;

  // Session-lifecycle counters; all-zero unless the run executed a churn
  // plan (arrivals/departures through a ChurnDriver).
  ChurnStats churn;

  // Exact equality (histograms, raw Q16 values, and the derived doubles,
  // which are deterministic functions of exact integers). The differential
  // harness asserts pruned == full-sweep on whole results.
  friend bool operator==(const MultiRunResult&, const MultiRunResult&) =
      default;
};

}  // namespace bwalloc
