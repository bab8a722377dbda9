#include "core/multi_phased.h"

#include "util/assert.h"

namespace bwalloc {

PhasedMulti::PhasedMulti(const MultiSessionParams& params,
                         ServiceDiscipline discipline)
    : params_(params),
      channels_(params.sessions, discipline),
      hot_(params.sessions),
      parked_(params.sessions, HotSet::Init::kEmpty),
      active_(static_cast<std::size_t>(params.sessions), 1) {
  params_.Validate();
  shares_.reserve(static_cast<std::size_t>(params_.sessions));
  for (std::int64_t i = 0; i < params_.sessions; ++i) {
    shares_.push_back(params_.Share(i));
  }
  two_b_o_ = Bandwidth::FromBitsPerSlot(2 * params_.offline_bandwidth);
}

bool PhasedMulti::RegularOverloaded(std::int64_t i) const {
  // |Q_r| > B_r * D_O  <=>  |Q_r| << 16  >  raw(B_r) * D_O.
  const Int128 lhs = static_cast<Int128>(channels_.regular_queue_size(i))
                       << Bandwidth::kShift;
  const Int128 rhs = static_cast<Int128>(channels_.regular_bw(i).raw()) *
                       params_.offline_delay;
  return lhs > rhs;
}

void PhasedMulti::OnSessionJoin(Time /*now*/, std::int64_t session) {
  active_[static_cast<std::size_t>(session)] = 1;
  // Mid-run join: hand the session its share directly, as the stage's
  // RESET would have. Pre-run joins wait for the initial RESET instead.
  if (started_) {
    channels_.SetRegular(session, shares_[static_cast<std::size_t>(session)]);
  }
}

Bits PhasedMulti::OnSessionDepart(Time /*now*/, std::int64_t session) {
  active_[static_cast<std::size_t>(session)] = 0;
  channels_.SetRegular(session, Bandwidth::Zero());
  channels_.SetOverflow(session, Bandwidth::Zero());
  // The session stays in the hot set until the next boundary's quiescence
  // sweep; every action there skips inactive sessions, so it is inert.
  return channels_.DropSession(session);
}

// Why the hot set is exact, not heuristic: a session outside it has empty
// queues (no arrival since it last drained), zero overflow allocation, and
// regular allocation equal to its share. For such a session every phase-
// boundary action is a value-preserving no-op — RegularOverloaded is false
// (|Q_r| = 0), SetOverflow(0) rewrites the existing zero, the stage-end
// shunt moves nothing and re-sizes the overflow rate from 0 to 0, and
// RESET rewrites share with share. A loop over 0..k-1 therefore
// degenerates to the loop over the sorted hot set, event for event.
//
// A parked session differs from a quiescent one only in its regular rate,
// which is above its share. The overload test is still false (empty
// regular queue), the overflow rewrites and the stage-end shunt still move
// nothing, so only RESET's SetRegular(share) acts on it — and RESET walks
// parked_ as well as the hot set. Its order among RESET's writes does not
// matter: the engine scores the allocation-dirty sessions in ascending
// order after the slot. An arrival puts the session back into the hot set.

bool PhasedMulti::Quiescent(std::int64_t i) const {
  if (!Active(i)) return true;
  return channels_.regular_queue_size(i) == 0 &&
         channels_.overflow_queue_size(i) == 0 &&
         channels_.overflow_bw(i).raw() == 0 &&
         channels_.regular_bw(i).raw() ==
             shares_[static_cast<std::size_t>(i)].raw();
}

bool PhasedMulti::OnlyRateRaised(std::int64_t i) const {
  return Active(i) && channels_.regular_queue_size(i) == 0 &&
         channels_.overflow_queue_size(i) == 0 &&
         channels_.overflow_bw(i).raw() == 0;
}

void PhasedMulti::Reset(Time now) {
  tracer_.Emit(TraceEventType::kStageStart, now, -1, completed_stages_);
  for (const std::int64_t i : hot_.Sweep()) {
    if (!Active(i)) continue;
    channels_.SetRegular(i, shares_[static_cast<std::size_t>(i)]);
  }
  for (const std::int64_t i : parked_.Sweep()) {
    if (!Active(i)) continue;
    channels_.SetRegular(i, shares_[static_cast<std::size_t>(i)]);
  }
  parked_.Clear();
  next_phase_ = now + params_.offline_delay;
}

void PhasedMulti::PhaseBoundary(Time now) {
  const bool trace_shunts = tracer_.enabled(TraceEventType::kOverflowShunt);
  hot_.SortAscending();
  std::int64_t overloaded = 0;
  for (const std::int64_t i : hot_.Sweep()) {
    if (!Active(i)) continue;
    if (!RegularOverloaded(i)) {
      // Lemma-8 invariant: the previous phase's overflow allocation was
      // sized to drain the overflow queue within the phase.
      BW_CHECK(channels_.overflow_queue_size(i) == 0,
               "overflow queue not drained at phase boundary");
      channels_.SetOverflow(i, Bandwidth::Zero());
    } else {
      ++overloaded;
      channels_.SetRegular(i, channels_.regular_bw(i) +
                               shares_[static_cast<std::size_t>(i)]);
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
  if (channels_.TotalRegular() > two_b_o_) {
    // Stage end: shunt everything to the overflow channel and RESET.
    for (const std::int64_t i : hot_.Sweep()) {
      if (!Active(i)) continue;
      if (trace_shunts && channels_.regular_queue_size(i) > 0) {
        tracer_.Emit(TraceEventType::kOverflowShunt, now, i,
                     channels_.regular_queue_size(i));
      }
      channels_.MoveRegularToOverflow(i);
      channels_.SetOverflow(
          i, Bandwidth::CeilDiv(channels_.overflow_queue_size(i),
                                params_.offline_delay));
    }
    tracer_.Emit(TraceEventType::kStageCertified, now, -1, completed_stages_);
    ++completed_stages_;
    Reset(now);
  }
  hot_.FilterInPlace([&](std::int64_t i) {
    if (Quiescent(i)) return false;
    if (!OnlyRateRaised(i)) return true;
    parked_.Add(i);
    return false;
  });
}

void PhasedMulti::StepSparse(Time now,
                             std::span<const SessionArrival> arrivals) {
  if (!started_) {
    started_ = true;
    Reset(now);  // the hot set still holds every session
  } else if (now == next_phase_ + perturb_wakeups_) {
    PhaseBoundary(now);
    if (now == next_phase_ + perturb_wakeups_) {
      next_phase_ = now + params_.offline_delay;
    }
  }
  for (const SessionArrival& a : arrivals) {
    channels_.Enqueue(a.session, now, a.bits);
    if (a.bits > 0) hot_.Add(a.session);
  }
  channels_.ServeActiveSlot(now);
}

}  // namespace bwalloc
