#include "layers.h"

#include "state/serializer.h"

namespace perfbench {
namespace {

using bwalloc::Bits;
using bwalloc::Time;

// Adds the wall time of its scope to `*acc`.
class Span {
 public:
  explicit Span(double* acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() { *acc_ += SecondsBetween(t0_, Clock::now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* acc_;
  Clock::time_point t0_;
};

double PerBillion(double seconds, std::int64_t count) {
  return count > 0 ? seconds * 1e9 / static_cast<double>(count) : 0.0;
}

// Marks a decorated system call as running, for TimedSink's nesting test.
class Depth {
 public:
  explicit Depth(int* depth) : depth_(depth) { ++*depth_; }
  ~Depth() { --*depth_; }
  Depth(const Depth&) = delete;
  Depth& operator=(const Depth&) = delete;

 private:
  int* depth_;
};

}  // namespace

void TimedSystem::Step(Time now, std::span<const Bits> arrivals) {
  Span span(&calls_->step_s);
  Depth depth(&calls_->depth);
  ++calls_->step_calls;
  calls_->dense_lanes += static_cast<std::int64_t>(arrivals.size());
  inner_->Step(now, arrivals);
}

void TimedSystem::StepSparse(
    Time now, std::span<const bwalloc::SessionArrival> arrivals) {
  Span span(&calls_->step_s);
  Depth depth(&calls_->depth);
  ++calls_->step_calls;
  inner_->StepSparse(now, arrivals);
}

void TimedSystem::OnSessionJoin(Time now, std::int64_t session) {
  Span span(&calls_->lifecycle_s);
  Depth depth(&calls_->depth);
  inner_->OnSessionJoin(now, session);
}

Bits TimedSystem::OnSessionDepart(Time now, std::int64_t session) {
  Span span(&calls_->lifecycle_s);
  Depth depth(&calls_->depth);
  return inner_->OnSessionDepart(now, session);
}

void TimedSystem::SaveState(bwalloc::StateWriter& w) const {
  Span span(&calls_->save_s);
  Depth depth(&calls_->depth);
  ++calls_->saves;
  inner_->SaveState(w);
}

void TimedSystem::LoadState(bwalloc::StateReader& r) {
  Span span(&calls_->restore_s);
  Depth depth(&calls_->depth);
  inner_->LoadState(r);
}

bwalloc::AdmissionVerdict TimedAdmission::Decide(
    const bwalloc::SessionSpec& spec, Time now) {
  Span span(&calls_->decide_s);
  ++calls_->decisions;
  return inner_.Decide(spec, now);
}

void TimedAdmission::Release(const bwalloc::SessionSpec& spec, Time now) {
  Span span(&calls_->release_s);
  inner_.Release(spec, now);
}

void TimedAdmission::SaveState(bwalloc::StateWriter& w) const {
  Span span(&calls_->save_s);
  inner_.SaveState(w);
}

void TimedAdmission::LoadState(bwalloc::StateReader& r) {
  Span span(&calls_->restore_s);
  inner_.LoadState(r);
}

void TimedSink::Emit(const bwalloc::TraceContext& ctx,
                     const bwalloc::TraceEvent& event) {
  const Clock::time_point t0 = Clock::now();
  ++calls_->events;
  inner_.Emit(ctx, event);
  const double dt = SecondsBetween(t0, Clock::now());
  calls_->emit_s += dt;
  if (nested_in_ != nullptr && nested_in_->depth > 0) {
    calls_->emit_nested_s += dt;
  }
}

void LayerProbe::AddResult(const bwalloc::MultiRunResult& r) {
  local_changes += r.local_changes;
  stages += r.stages;
  global_changes += r.global_changes;
  faults.Merge(r.faults);
  churn.offered += r.churn.offered;
  churn.admitted += r.churn.admitted;
  churn.rejected += r.churn.rejected;
  churn.shed += r.churn.shed;
  churn.departed += r.churn.departed;
  churn.dropped_bits += r.churn.dropped_bits;
}

std::vector<Metric> PerLayerMetrics(const LayerProbe& p) {
  const auto n = [](std::int64_t v) { return static_cast<double>(v); };
  // Decorated calls the engine makes from inside RunMultiSessionEvent; the
  // rest of its wall time is the engine's own.
  const double nested = p.outer.step_s + p.outer.lifecycle_s +
                        p.outer.save_s + p.outer.restore_s +
                        p.admission.decide_s + p.admission.release_s +
                        p.admission.save_s + p.admission.restore_s +
                        p.sink.emit_s - p.sink.emit_nested_s;
  const SystemCalls& core = p.has_adapter ? p.core : p.outer;
  const double commit_ratio =
      p.faults.requests > 0 ? n(p.faults.commits) / n(p.faults.requests)
                            : 0.0;
  return {
      {"traffic.gen_s", "s", p.gen_s},
      {"traffic.records", "count", n(p.records)},
      {"traffic.ns_per_record", "ns", PerBillion(p.gen_s, p.records)},
      {"sim.materialize_s", "s", p.materialize_s},
      {"sim.dense_cells", "count", n(p.dense_cells)},
      {"core.step_s", "s", core.step_s},
      {"core.step_calls", "count", n(core.step_calls)},
      {"sim.engine_s", "s", p.engine_s},
      {"sim.engine_self_s", "s", p.engine_s - nested},
      {"sim.arrival_events", "count", n(p.arrival_events)},
      {"sim.touched_session_slots", "count", n(p.touched_session_slots)},
      {"sim.ns_per_arrival", "ns", PerBillion(p.engine_s, p.arrival_events)},
      {"core.local_changes", "count", n(p.local_changes)},
      {"core.stages", "count", n(p.stages)},
      {"core.global_changes", "count", n(p.global_changes)},
      {"net.adapter_self_s", "s",
       p.has_adapter ? p.outer.step_s - p.core.step_s : 0.0},
      {"sim.dense_lane_steps", "count", n(p.outer.dense_lanes)},
      {"net.requests", "count", n(p.faults.requests)},
      {"net.commits", "count", n(p.faults.commits)},
      {"net.commit_ratio", "ratio", commit_ratio},
      {"net.retries", "count", n(p.faults.retries)},
      {"net.timeouts", "count", n(p.faults.timeouts)},
      {"net.fallbacks", "count", n(p.faults.fallbacks)},
      {"admission.decide_s", "s", p.admission.decide_s},
      {"admission.decisions", "count", n(p.admission.decisions)},
      {"churn.lifecycle_s", "s", p.outer.lifecycle_s + p.admission.release_s},
      {"churn.admitted", "count", n(p.churn.admitted)},
      {"churn.rejected", "count", n(p.churn.rejected)},
      {"churn.shed", "count", n(p.churn.shed)},
      {"churn.departed", "count", n(p.churn.departed)},
      {"churn.dropped_bits", "bits", n(p.churn.dropped_bits)},
      {"state.save_s", "s", p.outer.save_s + p.admission.save_s},
      {"state.saves", "count", n(p.outer.saves)},
      {"state.checkpoint_bytes", "bytes", n(p.checkpoint_bytes)},
      {"state.restore_s", "s", p.outer.restore_s + p.admission.restore_s},
      {"obs.events", "count", n(p.sink.events)},
      {"obs.emit_s", "s", p.sink.emit_s},
      {"obs.audit_s", "s",
       p.sink.emit_s - p.recorder.emit_s + p.audit_finish_s},
      {"obs.ndjson_s", "s", p.ndjson_s},
      {"obs.ndjson_bytes", "bytes", n(p.ndjson_bytes)},
      {"obs.reaudit_s", "s", p.reaudit_s},
      {"analysis.result_json_s", "s", p.result_json_s},
      {"analysis.result_json_bytes", "bytes", n(p.result_json_bytes)},
  };
}

}  // namespace perfbench
