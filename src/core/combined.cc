#include "core/combined.h"

#include "util/power_of_two.h"

namespace bwalloc {

CombinedOnline::CombinedOnline(const CombinedParams& params,
                               ServiceDiscipline discipline)
    : params_(params),
      channels_(params.sessions, discipline),
      low_tracker_(params.offline_delay),
      // While no full W-window fits in the global stage, high(t) is
      // unbounded; 2 B_O caps B_on's range (low <= B_O within a stage on
      // feasible input, so B_on <= 2 B_O).
      high_tracker_(params.window, params.offline_utilization,
                    2 * params.offline_bandwidth),
      reduce_wheel_(params.offline_delay + 2),
      hot_(params.sessions),
      active_(static_cast<std::size_t>(params.sessions), 1) {
  params_.Validate();
}

bool CombinedOnline::RegularOverloaded(std::int64_t i) const {
  const Int128 lhs = static_cast<Int128>(channels_.regular_queue_size(i))
                       << Bandwidth::kShift;
  const Int128 rhs = static_cast<Int128>(channels_.regular_bw(i).raw()) *
                       params_.offline_delay;
  return lhs > rhs;
}

void CombinedOnline::StartGlobalStage(Time ts) {
  low_tracker_.StartStage(ts);
  high_tracker_.StartStage(ts);
  b_on_ = 0;  // nothing has arrived this stage: reserve nothing
}

void CombinedOnline::OnSessionJoin(Time /*now*/, std::int64_t session) {
  active_[static_cast<std::size_t>(session)] = 1;
  // Mid-run join: hand the session the current share directly, as the
  // local-stage start would have. Pre-run joins wait for the first stage.
  if (started_) {
    channels_.SetRegular(session, share_);
  }
}

Bits CombinedOnline::OnSessionDepart(Time /*now*/, std::int64_t session) {
  active_[static_cast<std::size_t>(session)] = 0;
  channels_.SetRegular(session, Bandwidth::Zero());
  channels_.SetOverflow(session, Bandwidth::Zero());
  // Outstanding continuous-inner REDUCE leases must never fire for a
  // departed session — the overflow allocation they would return was just
  // zeroed.
  reduce_wheel_.CancelWhere(
      [session](const Reduction& red) { return red.session == session; });
  return channels_.DropSession(session);
}

// A session outside the hot set has empty queues, zero overflow allocation,
// and regular allocation equal to the *current* share_. All local-stage and
// GLOBAL RESET actions are value-preserving no-ops on such sessions — with
// one exception: when share_ itself changes (a B_on level change or a
// GLOBAL RESET zeroing B_on), every session's regular allocation moves to a
// genuinely new value. StartLocalStage therefore refills the hot set with
// every session exactly when the incoming share differs, preserving the
// invariant for everyone else.

bool CombinedOnline::Quiescent(std::int64_t i) const {
  if (!Active(i)) return true;
  return channels_.regular_queue_size(i) == 0 &&
         channels_.overflow_queue_size(i) == 0 &&
         channels_.overflow_bw(i).raw() == 0 &&
         channels_.regular_bw(i).raw() == share_.raw();
}

void CombinedOnline::StartLocalStage(Time now, bool shunt_regular) {
  tracer_.Emit(TraceEventType::kStageStart, now, -1, completed_local_stages_);
  // Overflow allocations are recomputed wholesale below; pending
  // continuous-inner leases would double-subtract.
  reduce_wheel_.Clear();
  const Bandwidth new_share =
      Bandwidth::FromBitsPerSlot(b_on_) / params_.sessions;
  if (new_share.raw() != share_.raw()) hot_.Fill();
  share_ = new_share;
  hot_.SortAscending();
  for (const std::int64_t i : hot_.items()) {
    if (!Active(i)) continue;
    if (shunt_regular && channels_.regular_queue_size(i) > 0) {
      channels_.MoveRegularToOverflow(i);
    }
    if (channels_.overflow_queue_size(i) > 0) {
      channels_.SetOverflow(
          i, Bandwidth::CeilDiv(channels_.overflow_queue_size(i),
                                params_.offline_delay));
    } else {
      channels_.SetOverflow(i, Bandwidth::Zero());
    }
    channels_.SetRegular(i, share_);
  }
  hot_.FilterInPlace([&](std::int64_t i) { return !Quiescent(i); });
  next_phase_ = now + params_.offline_delay;
}

void CombinedOnline::PhaseBoundary(Time now) {
  const bool trace_shunts = tracer_.enabled(TraceEventType::kOverflowShunt);
  hot_.SortAscending();
  std::int64_t overloaded = 0;
  for (const std::int64_t i : hot_.items()) {
    if (!Active(i)) continue;
    if (!RegularOverloaded(i)) {
      channels_.SetOverflow(i, Bandwidth::Zero());
    } else {
      ++overloaded;
      channels_.SetRegular(i, channels_.regular_bw(i) + share_);
      if (trace_shunts) {
        tracer_.Emit(TraceEventType::kOverflowShunt, now, i,
                     channels_.regular_queue_size(i));
      }
      channels_.MoveRegularToOverflow(i);
      channels_.SetOverflow(
          i, Bandwidth::CeilDiv(channels_.overflow_queue_size(i),
                                params_.offline_delay));
    }
  }
  tracer_.Emit(TraceEventType::kPhaseBoundary, now, -1, overloaded);
  const Bandwidth cap = Bandwidth::FromBitsPerSlot(2 * b_on_);
  if (channels_.TotalRegular() > cap) {
    tracer_.Emit(TraceEventType::kStageCertified, now, -1,
                 completed_local_stages_);
    ++completed_local_stages_;
    StartLocalStage(now, /*shunt_regular=*/true);
  } else {
    hot_.FilterInPlace([&](std::int64_t i) { return !Quiescent(i); });
  }
}

void CombinedOnline::ShuntWithLease(Time now, std::int64_t i) {
  const Bits q = channels_.regular_queue_size(i);
  if (q == 0) return;
  tracer_.Emit(TraceEventType::kOverflowShunt, now, i, q);
  channels_.MoveRegularToOverflow(i);
  const Bandwidth lease = Bandwidth::CeilDiv(q, params_.offline_delay);
  channels_.AddOverflow(i, lease);
  reduce_wheel_.ScheduleAt(now + params_.offline_delay + perturb_wakeups_,
                           {i, lease});
}

void CombinedOnline::ContinuousTest(Time now, std::int64_t i) {
  if (!RegularOverloaded(i)) return;
  channels_.SetRegular(i, channels_.regular_bw(i) + share_);
  ShuntWithLease(now, i);
  const Bandwidth cap = Bandwidth::FromBitsPerSlot(2 * b_on_);
  if (channels_.TotalRegular() > cap) {
    tracer_.Emit(TraceEventType::kStageCertified, now, -1,
                 completed_local_stages_);
    ++completed_local_stages_;
    StartLocalStage(now, /*shunt_regular=*/true);
  }
}

void CombinedOnline::GlobalReset(Time now) {
  reduce_wheel_.Clear();
  hot_.SortAscending();
  for (const std::int64_t i : hot_.items()) {
    if (!Active(i)) continue;
    channels_.DrainSessionInto(i, global_queue_);
    channels_.SetOverflow(i, Bandwidth::Zero());
  }
  if (global_queue_.size() > peak_global_queue_) {
    peak_global_queue_ = global_queue_.size();
  }
  tracer_.Emit(TraceEventType::kGlobalReset, now, -1, global_queue_.size());
  ++completed_global_stages_;
  ++completed_local_stages_;  // the local stage ends with the global one
  // A new global stage begins immediately (next slot in slotted time).
  StartGlobalStage(now + 1);
  StartLocalStage(now, /*shunt_regular=*/false);
}

void CombinedOnline::StepSparse(Time now,
                                std::span<const SessionArrival> arrivals) {
  if (!started_) {
    started_ = true;
    StartGlobalStage(now);
    StartLocalStage(now, /*shunt_regular=*/false);
  }

  Bits total_in = 0;
  for (const SessionArrival& a : arrivals) total_in += a.bits;

  // Global envelopes over the aggregate stream (same conventions as the
  // single-session algorithm: low excludes slot-t arrivals, high includes).
  bool global_reset = false;
  {
    const Ratio low = low_tracker_.LowAt(now);
    high_tracker_.RecordArrivals(now, total_in);
    const Ratio high = high_tracker_.HighAt();
    low_tracker_.RecordArrivals(total_in);

    if (high < low || Ratio(params_.offline_bandwidth, 1) < low) {
      GlobalReset(now);
      global_reset = true;
    } else if (!low.is_zero()) {
      const Bits level = CeilPowerOfTwoAtLeast(low);
      if (level > b_on_) {
        tracer_.Emit(TraceEventType::kLevelChange, now, -1, b_on_, level);
        b_on_ = level;
        ++completed_local_stages_;
        StartLocalStage(now, /*shunt_regular=*/true);
      }
    }
  }

  // Inner multi-session machinery.
  if (params_.continuous_inner) {
    if (!global_reset) {
      reduce_wheel_.PopDue(now, [&](const Reduction& r) {
        channels_.AddOverflow(r.session, Bandwidth::Zero() - r.amount);
      });
    }
    for (const SessionArrival& a : arrivals) {
      channels_.Enqueue(a.session, now, a.bits);
      if (a.bits > 0) {
        hot_.Add(a.session);
        if (!global_reset) ContinuousTest(now, a.session);
      }
    }
  } else {
    if (!global_reset && now == next_phase_ + perturb_wakeups_) {
      PhaseBoundary(now);
      if (now == next_phase_ + perturb_wakeups_) {
        next_phase_ = now + params_.offline_delay;
      }
    }
    for (const SessionArrival& a : arrivals) {
      channels_.Enqueue(a.session, now, a.bits);
      if (a.bits > 0) hot_.Add(a.session);
    }
  }
  channels_.ServeActiveSlot(now);

  // Global overflow channel: 2 B_O while draining a GLOBAL RESET's queue.
  global_bw_ = global_queue_.empty()
                   ? Bandwidth::Zero()
                   : Bandwidth::FromBitsPerSlot(2 * params_.offline_bandwidth);
  global_delivered_ += global_queue_.ServeSlot(now, global_bw_, &global_delay_);
}

}  // namespace bwalloc
