#include "net/multi_faults.h"

#include <algorithm>

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
    const FaultPlan& plan, const RobustMultiOptions& options)
    : inner_(std::move(inner)),
      opts_(options),
      sessions_(RequireSessions(inner_.get())),
      channels_(sessions_, ServiceDiscipline::kFifoCombined) {
  plan.ValidateRecoverable();
  opts_.Validate();
  lanes_.reserve(static_cast<std::size_t>(sessions_));
  for (std::int64_t i = 0; i < sessions_; ++i) {
    lanes_.emplace_back(FaultySignalingChannel(path, PerSessionPlan(plan, i)));
    lanes_.back().backoff = opts_.initial_backoff;
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
    Lane& lane = lanes_[static_cast<std::size_t>(i)];
    if (!lane.active) continue;
    if (lane.fallback && channels_.regular_queue_size(i) == 0) {
      // Drain complete: hand the lane back to the control model's intent.
      lane.fallback = false;
      lane.consecutive_denials = 0;
      lane.backoff = opts_.initial_backoff;
    }
  }

  if (telemetry_ != nullptr) {
    telemetry_->GaugeSet(telemetry::Gauge::kDegradedLanes, degraded_count_);
  }
}

void RobustMultiSessionAdapter::StepLane(Time now, std::int64_t i,
                                         Bandwidth intended) {
  Lane& lane = lanes_[static_cast<std::size_t>(i)];
  const bool was_degraded = lane.degraded;
  Bandwidth effective = lane.channel.Effective(now);
  const Bits queue = channels_.regular_queue_size(i);

  const std::int64_t acks = lane.channel.AcksArrived(now);
  if (acks > lane.seen_acks) {
    if (telemetry_ != nullptr) {
      telemetry_->Add(telemetry::Counter::kSignalAcks, acks - lane.seen_acks);
      if (lane.request_slot >= 0) {
        telemetry_->Record(telemetry::Histo::kSignalRttSlots,
                           now - lane.request_slot);
        lane.request_slot = -1;
      }
      if (lane.backoff > opts_.initial_backoff) {
        // The episode only counts once it actually escalated past the
        // initial wait; record its length at the moment it resolves.
        telemetry_->Record(telemetry::Histo::kBackoffEpisodeSlots,
                           lane.backoff);
      }
    }
    // Our request committed (possibly partially): progress, so reset the
    // backoff and the denial streak.
    lane.seen_acks = acks;
    lane.outstanding = false;
    lane.backoff = opts_.initial_backoff;
    lane.consecutive_denials = 0;
    lane.next_attempt_at = now;
    if (lane.have_last_want && effective != lane.last_want) {
      lane.degraded = true;  // partial grant: another ask must converge it
    }
  }
  const std::int64_t nacks = lane.channel.DenialsArrived(now);
  if (nacks > lane.seen_nacks) {
    if (telemetry_ != nullptr) {
      telemetry_->Add(telemetry::Counter::kSignalNacks,
                      nacks - lane.seen_nacks);
    }
    lane.consecutive_denials += nacks - lane.seen_nacks;
    lane.seen_nacks = nacks;
    lane.outstanding = false;
    lane.next_attempt_at = now + lane.backoff;
    lane.backoff = std::min(lane.backoff * 2, opts_.max_backoff);
    lane.degraded = true;
  }
  if (lane.outstanding && now >= lane.deadline) {
    ++lane.timeouts;  // past worst-case response: the message was lost
    if (telemetry_ != nullptr) {
      telemetry_->Add(telemetry::Counter::kSignalTimeouts);
    }
    tracer_.Emit(TraceEventType::kSignalTimeout, now, i, lane.deadline);
    lane.outstanding = false;
    lane.next_attempt_at = now + lane.backoff;
    lane.backoff = std::min(lane.backoff * 2, opts_.max_backoff);
    lane.degraded = true;
  }

  if (!lane.fallback && queue > 0 &&
      lane.consecutive_denials >= opts_.fallback_after_denials) {
    lane.fallback = true;
    ++lane.fallbacks;
    if (telemetry_ != nullptr) {
      telemetry_->Add(telemetry::Counter::kSignalFallbacks);
    }
    tracer_.Emit(TraceEventType::kSignalFallback, now, i,
                 opts_.fallback_bandwidth);
  }

  Bandwidth want;
  if (lane.fallback) {
    want = Bandwidth::FromBitsPerSlot(opts_.fallback_bandwidth);
  } else if (queue > 0 && intended < effective) {
    // Degraded-mode discipline for decreases: the control model's phantom
    // queues drained at rates this lane never committed, so its step-down
    // may be premature for the real backlog. Hold the committed rate until
    // the lane's own queue empties, then follow the decrease.
    want = effective;
  } else {
    want = intended;
  }

  if (!lane.outstanding && want != effective && now >= lane.next_attempt_at) {
    const bool retry = lane.have_last_want && want == lane.last_want;
    if (retry) {
      ++lane.retries;
      tracer_.Emit(TraceEventType::kSignalRetry, now, i, want.raw(),
                   lane.backoff);
    }
    if (telemetry_ != nullptr) {
      telemetry_->Add(telemetry::Counter::kSignalsSent);
      lane.request_slot = now;
    }
    lane.channel.Request(now, want);
    lane.have_last_want = true;
    lane.last_want = want;
    lane.outstanding = true;
    lane.deadline =
        now + lane.channel.WorstCaseResponse() + opts_.timeout_margin;
    effective = lane.channel.Effective(now);  // zero-latency paths commit now
  }

  if (lane.degraded && !lane.outstanding && !lane.fallback &&
      effective == want) {
    // The committed allocation is back at the lane's chosen rate (the
    // intent, or a held drain rate that covers it): close the degraded
    // window so the auditor can resume its per-session monitors.
    lane.degraded = false;
    tracer_.Emit(TraceEventType::kSignalRecover, now, i, effective.raw());
  }

  // Maintained unconditionally (degraded flips only happen here) so the
  // gauge is right even when a telemetry shard is attached mid-run.
  if (lane.degraded != was_degraded) {
    degraded_count_ += lane.degraded ? 1 : -1;
  }

  channels_.SetRegular(i, effective);
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
  lane.outstanding = false;
  lane.fallback = false;
  lane.consecutive_denials = 0;
  lane.backoff = opts_.initial_backoff;
  lane.have_last_want = false;
  lane.next_attempt_at = now;
  lane.request_slot = -1;
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
    lanes_[static_cast<std::size_t>(i)].channel.SetTracer(tracer, i);
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
  for (const Lane& lane : lanes_) {
    FaultStats s = lane.channel.stats();
    s.timeouts = lane.timeouts;
    s.retries = lane.retries;
    s.fallbacks = lane.fallbacks;
    out.push_back(s);
  }
  return out;
}

bool RobustMultiSessionAdapter::in_fallback(std::int64_t session) const {
  BW_CHECK(session >= 0 && session < sessions_,
           "in_fallback: session out of range");
  return lanes_[static_cast<std::size_t>(session)].fallback;
}

}  // namespace bwalloc
