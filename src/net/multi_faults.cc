#include "net/multi_faults.h"

#include "util/assert.h"
#include "util/rng.h"

namespace bwalloc {

namespace {

std::int64_t RequireSessions(const MultiSessionSystem* inner) {
  BW_REQUIRE(inner != nullptr, "RobustMultiSessionAdapter: null inner");
  return inner->channels().sessions();
}

}  // namespace

FaultPlan PerSessionPlan(const FaultPlan& plan, std::int64_t session) {
  BW_REQUIRE(session >= 0, "PerSessionPlan: session must be >= 0");
  FaultPlan out = plan;
  out.seed = DeriveStream(plan.seed, static_cast<std::uint64_t>(session));
  return out;
}

RobustMultiSessionAdapter::RobustMultiSessionAdapter(
    std::unique_ptr<MultiSessionSystem> inner, const NetworkPath& path,
    const FaultPlan& plan, const RobustOptions& options)
    : inner_(std::move(inner)),
      opts_(options),
      sessions_(RequireSessions(inner_.get())),
      channels_(sessions_, ServiceDiscipline::kFifoCombined) {
  plan.ValidateRecoverable();
  opts_.Validate();
  lanes_.reserve(static_cast<std::size_t>(sessions_));
  for (std::int64_t i = 0; i < sessions_; ++i) {
    lanes_.emplace_back(FaultySignalingChannel(path, PerSessionPlan(plan, i)));
  }
}

void RobustMultiSessionAdapter::StepSparse(
    Time now, std::span<const SessionArrival> arrivals) {
  // The control model always advances, fault-free: its per-session rates
  // are the intents the lanes try to commit, and its state machine must
  // keep tracking the actual traffic even while signalling is down.
  inner_->StepSparse(now, arrivals);

  for (const SessionArrival& a : arrivals) {
    channels_.Enqueue(a.session, now, a.bits);
  }

  // The combined algorithm serves part of the load on a global channel the
  // real data plane does not have; split that reservation evenly across
  // the lanes (raw Q16 division, remainder to session 0) so the intents
  // still sum to the declared allocation exactly.
  const std::int64_t extra_raw = inner_->ExtraAllocatedBandwidth().raw();
  const std::int64_t extra_each = extra_raw / sessions_;
  const std::int64_t extra_rem = extra_raw % sessions_;

  const SessionChannels& intent = inner_->channels();
  for (std::int64_t i = 0; i < sessions_; ++i) {
    if (!lanes_[static_cast<std::size_t>(i)].active) continue;
    const Bandwidth intended =
        intent.regular_bw(i) + intent.overflow_bw(i) +
        Bandwidth::FromRaw(extra_each + (i == 0 ? extra_rem : 0));
    StepLane(now, i, intended);
  }

  channels_.ServeActiveSlot(now);

  for (std::int64_t i = 0; i < sessions_; ++i) {
    SignalLane& signal = lanes_[static_cast<std::size_t>(i)].signal;
    if (signal.in_fallback()) signal.OnServed(channels_.regular_queue_size(i));
  }

  if (telemetry_ != nullptr) {
    telemetry_->GaugeSet(telemetry::Gauge::kDegradedLanes, degraded_count_);
  }
}

void RobustMultiSessionAdapter::StepLane(Time now, std::int64_t i,
                                         Bandwidth intended) {
  Lane& lane = lanes_[static_cast<std::size_t>(i)];
  const Bits queue = channels_.regular_queue_size(i);
  // Degraded-mode discipline for decreases: the control model's phantom
  // queues drained at rates this lane never committed, so its step-down
  // may be premature for the real backlog. Hold the committed rate until
  // the lane's own queue empties, then follow the decrease.
  const Bandwidth committed = lane.signal.Committed(now);
  const Bandwidth want =
      queue > 0 && intended < committed ? committed : intended;
  const SignalStep step =
      lane.signal.Step(now, want, queue, {opts_, tracer_, telemetry_, i});

  const bool was_degraded = lane.degraded;
  if (step.setback) lane.degraded = true;  // another ask must converge it
  if (lane.degraded && !lane.signal.outstanding() &&
      !lane.signal.in_fallback() && step.committed == want) {
    // The committed allocation is back at the lane's chosen rate (the
    // intent, or a held drain rate that covers it): close the degraded
    // window so the auditor can resume its per-session monitors.
    lane.degraded = false;
    tracer_.Emit(TraceEventType::kSignalRecover, now, i, step.committed.raw());
  }
  // Maintained unconditionally (degraded flips only happen here) so the
  // gauge is right even when a telemetry shard is attached mid-run.
  if (lane.degraded != was_degraded) {
    degraded_count_ += lane.degraded ? 1 : -1;
  }

  channels_.SetRegular(i, step.committed);
}

void RobustMultiSessionAdapter::OnSessionJoin(Time now, std::int64_t session) {
  inner_->OnSessionJoin(now, session);
  lanes_[static_cast<std::size_t>(session)].active = true;
}

Bits RobustMultiSessionAdapter::OnSessionDepart(Time now,
                                                std::int64_t session) {
  // The control model drops its phantom copy of the session's bits; the
  // real drop below is the one the result counters see.
  inner_->OnSessionDepart(now, session);
  Lane& lane = lanes_[static_cast<std::size_t>(session)];
  lane.active = false;
  lane.signal.Park(now);
  if (lane.degraded) {
    lane.degraded = false;
    --degraded_count_;
  }
  // A departed lane owes no convergence. Emitted unconditionally, not just
  // when this side thinks the lane is degraded: an in-flight request lost
  // by the path has already opened the auditor's episode (it sees the
  // channel's loss event) even though no timeout has fired here yet, and
  // the lane goes silent forever after departing.
  tracer_.Emit(TraceEventType::kSignalRecover, now, session, 0);
  channels_.SetRegular(session, Bandwidth::Zero());
  return channels_.DropSession(session);
}

void RobustMultiSessionAdapter::SetTelemetry(telemetry::RuntimeShard* shard) {
  telemetry_ = shard;
  // Unlike the tracer, telemetry IS forwarded to the control model: its
  // timer-wheel scans are real CPU cost on this thread, and the live lane
  // never alters behaviour, so there is no semantics hazard in surfacing
  // them.
  inner_->SetTelemetry(shard);
}

void RobustMultiSessionAdapter::SetTracer(const Tracer& tracer) {
  // Deliberately not forwarded to the inner system: its phase boundaries,
  // stage certifications and global RESETs describe allocations that may
  // never have committed, and surfacing them would hold a degraded run to
  // fault-free discipline mid-outage.
  tracer_ = tracer;
  for (std::int64_t i = 0; i < sessions_; ++i) {
    lanes_[static_cast<std::size_t>(i)].signal.SetTracer(tracer, i);
  }
}

FaultStats RobustMultiSessionAdapter::fault_stats() const {
  FaultStats total;
  for (const FaultStats& s : per_session_fault_stats()) total.Merge(s);
  return total;
}

std::vector<FaultStats> RobustMultiSessionAdapter::per_session_fault_stats()
    const {
  std::vector<FaultStats> out;
  out.reserve(lanes_.size());
  for (const Lane& lane : lanes_) out.push_back(lane.signal.stats());
  return out;
}

bool RobustMultiSessionAdapter::in_fallback(std::int64_t session) const {
  BW_CHECK(session >= 0 && session < sessions_,
           "in_fallback: session out of range");
  return lanes_[static_cast<std::size_t>(session)].signal.in_fallback();
}

}  // namespace bwalloc
