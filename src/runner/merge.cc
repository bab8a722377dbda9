#include "runner/merge.h"

#include <algorithm>

namespace bwalloc {

void AggregateStats::Add(const SingleRunResult& r) {
  ++tasks;
  total_arrivals += r.total_arrivals;
  total_delivered += r.total_delivered;
  final_queue += r.final_queue;
  dropped += r.dropped;
  changes += r.changes;
  stages += r.stages;
  total_allocated_raw += r.total_allocated_raw;
  faults.Merge(r.faults);
  max_delay = std::max(max_delay, r.delay.max_delay());
  peak_allocation = std::max(peak_allocation, r.peak_allocation);
  if (r.total_arrivals > 0) {
    min_local_utilization =
        std::min(min_local_utilization, r.worst_best_window_utilization);
  }
  delay.Merge(r.delay);
}

void AggregateStats::Add(const MultiRunResult& r) {
  ++tasks;
  total_arrivals += r.total_arrivals;
  total_delivered += r.total_delivered;
  final_queue += r.final_queue;
  changes += r.local_changes;
  global_changes += r.global_changes;
  stages += r.stages;
  total_allocated_raw += r.total_allocated_raw;
  faults.Merge(r.faults);
  max_delay = std::max(max_delay, r.delay.max_delay());
  peak_allocation = std::max(peak_allocation, r.peak_total_allocation);
  if (r.total_arrivals > 0) {
    min_local_utilization =
        std::min(min_local_utilization, r.worst_best_window_utilization);
  }
  delay.Merge(r.delay);
}

void AggregateStats::Merge(const AggregateStats& other) {
  tasks += other.tasks;
  total_arrivals += other.total_arrivals;
  total_delivered += other.total_delivered;
  final_queue += other.final_queue;
  dropped += other.dropped;
  changes += other.changes;
  global_changes += other.global_changes;
  stages += other.stages;
  total_allocated_raw += other.total_allocated_raw;
  faults.Merge(other.faults);
  max_delay = std::max(max_delay, other.max_delay);
  peak_allocation = std::max(peak_allocation, other.peak_allocation);
  min_local_utilization =
      std::min(min_local_utilization, other.min_local_utilization);
  delay.Merge(other.delay);
}

Ratio AggregateStats::GlobalUtilization() const {
  if (total_allocated_raw <= 0) return Ratio();
  return Ratio(total_arrivals << Bandwidth::kShift, total_allocated_raw)
      .Normalized();
}

Ratio AggregateStats::ChangesPerStage() const {
  return Ratio(changes, std::max<std::int64_t>(1, stages)).Normalized();
}

bool operator==(const AggregateStats& a, const AggregateStats& b) {
  return a.tasks == b.tasks && a.total_arrivals == b.total_arrivals &&
         a.total_delivered == b.total_delivered &&
         a.final_queue == b.final_queue && a.dropped == b.dropped &&
         a.changes == b.changes && a.global_changes == b.global_changes &&
         a.stages == b.stages &&
         a.total_allocated_raw == b.total_allocated_raw &&
         a.faults == b.faults &&
         a.max_delay == b.max_delay &&
         a.peak_allocation == b.peak_allocation &&
         a.min_local_utilization == b.min_local_utilization &&
         a.delay == b.delay;
}

}  // namespace bwalloc
