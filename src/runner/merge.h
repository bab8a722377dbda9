// Order-insensitive aggregation of run results.
//
// AggregateStats is a commutative monoid: Merge is associative, the
// default-constructed value is its identity, and every field is either an
// exact integer sum, an exact min/max, or a histogram merge — no floating
// point accumulation — so a sharded reduction equals the serial one bit
// for bit. Utilization comes out as an exact Ratio built from the Q16
// integer bandwidth-time total the engines now expose.
#pragma once

#include <cstdint>

#include "sim/run_result.h"
#include "util/histogram.h"
#include "util/ratio.h"

namespace bwalloc {

struct AggregateStats {
  std::int64_t tasks = 0;

  // Exact integer sums.
  Bits total_arrivals = 0;
  Bits total_delivered = 0;
  Bits final_queue = 0;
  Bits dropped = 0;
  std::int64_t changes = 0;        // local changes for multi-session runs
  std::int64_t global_changes = 0;
  std::int64_t stages = 0;
  std::int64_t total_allocated_raw = 0;  // Q16 bandwidth-time
  FaultStats faults;  // control-plane degradation counters, exact sums

  // Exact extrema.
  Time max_delay = 0;
  Bandwidth peak_allocation;
  // Worst Lemma-5 local utilization over tasks that saw traffic (min of
  // per-task doubles: associative, no accumulation). 1.0 until observed.
  double min_local_utilization = 1.0;

  // Bit-weighted merge of every task's delay histogram.
  DelayHistogram delay;

  void Add(const SingleRunResult& r);
  void Add(const MultiRunResult& r);
  void Merge(const AggregateStats& other);

  // Delivered bits per allocated bit of bandwidth-time, exact. The Q16
  // denominator is folded into the numerator shift, so equal aggregates
  // compare equal as Ratios regardless of shard count. Zero when nothing
  // was allocated.
  Ratio GlobalUtilization() const;

  // Changes per completed stage, exact (stage count clamped to >= 1).
  Ratio ChangesPerStage() const;
};

bool operator==(const AggregateStats& a, const AggregateStats& b);

}  // namespace bwalloc
