#include "analysis/json.h"

namespace bwalloc {

namespace {

void WriteDelay(JsonWriter& w, const DelayHistogram& delay) {
  w.BeginObject();
  w.Key("max");
  w.Value(delay.max_delay());
  w.Key("mean");
  w.Value(delay.MeanDelay());
  w.Key("p50");
  w.Value(delay.Percentile(0.5));
  w.Key("p99");
  w.Value(delay.Percentile(0.99));
  w.Key("bits");
  w.Value(delay.total_bits());
  w.EndObject();
}

void WriteFaults(JsonWriter& w, const FaultStats& faults) {
  w.BeginObject();
  w.Key("requests");
  w.Value(faults.requests);
  w.Key("commits");
  w.Value(faults.commits);
  w.Key("losses");
  w.Value(faults.losses);
  w.Key("denials");
  w.Value(faults.denials);
  w.Key("partial_grants");
  w.Value(faults.partial_grants);
  w.Key("timeouts");
  w.Value(faults.timeouts);
  w.Key("retries");
  w.Value(faults.retries);
  w.Key("fallbacks");
  w.Value(faults.fallbacks);
  w.EndObject();
}

}  // namespace

std::string ToJson(const SingleRunResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("horizon");
  w.Value(result.horizon);
  w.Key("arrivals");
  w.Value(result.total_arrivals);
  w.Key("delivered");
  w.Value(result.total_delivered);
  w.Key("dropped");
  w.Value(result.dropped);
  w.Key("final_queue");
  w.Value(result.final_queue);
  w.Key("peak_queue");
  w.Value(result.peak_queue);
  w.Key("changes");
  w.Value(result.changes);
  w.Key("stages");
  w.Value(result.stages);
  w.Key("global_utilization");
  w.Value(result.global_utilization);
  w.Key("local_utilization");
  w.Value(result.worst_best_window_utilization);
  w.Key("allocated_bits");
  w.Value(result.total_allocated_bits);
  w.Key("peak_allocation");
  w.Value(result.peak_allocation.ToDouble());
  w.Key("faults");
  WriteFaults(w, result.faults);
  w.Key("delay");
  WriteDelay(w, result.delay);
  w.EndObject();
  return w.str();
}

std::string ToJson(const MultiRunResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("horizon");
  w.Value(result.horizon);
  w.Key("sessions");
  w.Value(result.sessions);
  w.Key("arrivals");
  w.Value(result.total_arrivals);
  w.Key("delivered");
  w.Value(result.total_delivered);
  w.Key("final_queue");
  w.Value(result.final_queue);
  w.Key("local_changes");
  w.Value(result.local_changes);
  w.Key("global_changes");
  w.Value(result.global_changes);
  w.Key("stages");
  w.Value(result.stages);
  w.Key("global_stages");
  w.Value(result.global_stages);
  w.Key("global_utilization");
  w.Value(result.global_utilization);
  w.Key("peak_total_allocation");
  w.Value(result.peak_total_allocation.ToDouble());
  w.Key("faults");
  WriteFaults(w, result.faults);
  w.Key("delay");
  WriteDelay(w, result.delay);
  w.Key("per_session_max_delay");
  w.BeginArray();
  for (const DelaySummary& h : result.per_session_delay) {
    w.Value(h.max_delay());
  }
  w.EndArray();
  if (!result.per_session_faults.empty()) {
    w.Key("per_session_faults");
    w.BeginArray();
    for (const FaultStats& s : result.per_session_faults) {
      WriteFaults(w, s);
    }
    w.EndArray();
  }
  if (result.churn.any()) {
    w.Key("churn");
    w.BeginObject();
    w.Key("offered");
    w.Value(result.churn.offered);
    w.Key("admitted");
    w.Value(result.churn.admitted);
    w.Key("rejected");
    w.Value(result.churn.rejected);
    w.Key("shed");
    w.Value(result.churn.shed);
    w.Key("departed");
    w.Value(result.churn.departed);
    w.Key("dropped_bits");
    w.Value(result.churn.dropped_bits);
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

std::string ToJson(const OfflineSchedule& schedule) {
  JsonWriter w;
  w.BeginObject();
  w.Key("feasible");
  w.Value(schedule.feasible);
  w.Key("proven_optimal");
  w.Value(schedule.proven_optimal);
  w.Key("horizon");
  w.Value(schedule.horizon);
  w.Key("changes");
  w.Value(schedule.changes());
  w.Key("pieces");
  w.BeginArray();
  for (const SchedulePiece& p : schedule.pieces) {
    w.BeginObject();
    w.Key("start");
    w.Value(p.start);
    w.Key("bandwidth");
    w.Value(p.bandwidth.ToDouble());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace bwalloc
