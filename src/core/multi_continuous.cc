#include "core/multi_continuous.h"

#include "util/assert.h"

namespace bwalloc {

ContinuousMulti::ContinuousMulti(const MultiSessionParams& params,
                                 ServiceDiscipline discipline)
    : params_(params),
      channels_(params.sessions, discipline),
      reduce_wheel_(params.offline_delay + 2),
      hot_(params.sessions),
      active_(static_cast<std::size_t>(params.sessions), 1) {
  params_.Validate();
  shares_.reserve(static_cast<std::size_t>(params_.sessions));
  for (std::int64_t i = 0; i < params_.sessions; ++i) {
    shares_.push_back(params_.Share(i));
  }
  two_b_o_ = Bandwidth::FromBitsPerSlot(2 * params_.offline_bandwidth);
}

bool ContinuousMulti::RegularOverloaded(std::int64_t i) const {
  const Int128 lhs = static_cast<Int128>(channels_.regular_queue_size(i))
                       << Bandwidth::kShift;
  const Int128 rhs = static_cast<Int128>(channels_.regular_bw(i).raw()) *
                       params_.offline_delay;
  return lhs > rhs;
}

void ContinuousMulti::OnSessionJoin(Time /*now*/, std::int64_t session) {
  active_[static_cast<std::size_t>(session)] = 1;
  // Mid-run join: hand the session its share directly, as the stage's
  // RESET would have. Pre-run joins wait for the initial RESET instead.
  if (started_) {
    channels_.SetRegular(session, shares_[static_cast<std::size_t>(session)]);
  }
}

Bits ContinuousMulti::OnSessionDepart(Time /*now*/, std::int64_t session) {
  active_[static_cast<std::size_t>(session)] = 0;
  channels_.SetRegular(session, Bandwidth::Zero());
  channels_.SetOverflow(session, Bandwidth::Zero());
  // Outstanding REDUCE leases must never fire for a departed session —
  // the overflow allocation they would return was just zeroed.
  reduce_wheel_.CancelWhere(
      [session](const Reduction& red) { return red.session == session; });
  return channels_.DropSession(session);
}

// Fig. 5 is already event-shaped: TEST fires only on arrivals, REDUCE is a
// per-session timer on the wheel. The two O(k) loops of the figure —
// stage-end shunts and RESET — run over the sorted hot set only. A session
// outside the hot set has empty queues (ShuntToOverflow would early-
// return), zero overflow allocation, and regular allocation equal to its
// share (RESET would rewrite an identical value), so skipping it changes
// nothing.

bool ContinuousMulti::Quiescent(std::int64_t i) const {
  if (!Active(i)) return true;
  return channels_.regular_queue_size(i) == 0 &&
         channels_.overflow_queue_size(i) == 0 &&
         channels_.overflow_bw(i).raw() == 0 &&
         channels_.regular_bw(i).raw() ==
             shares_[static_cast<std::size_t>(i)].raw();
}

void ContinuousMulti::Reset(Time now) {
  tracer_.Emit(TraceEventType::kStageStart, now, -1, completed_stages_);
  for (const std::int64_t i : hot_.Sweep()) {
    if (!Active(i)) continue;
    channels_.SetRegular(i, shares_[static_cast<std::size_t>(i)]);
  }
}

void ContinuousMulti::ShuntToOverflow(Time now, std::int64_t i) {
  const Bits q = channels_.regular_queue_size(i);
  if (q == 0) return;
  tracer_.Emit(TraceEventType::kOverflowShunt, now, i, q);
  channels_.MoveRegularToOverflow(i);
  const Bandwidth lease = Bandwidth::CeilDiv(q, params_.offline_delay);
  channels_.AddOverflow(i, lease);
  reduce_wheel_.ScheduleAt(now + params_.offline_delay + perturb_wakeups_,
                           {i, lease});
}

void ContinuousMulti::Test(Time now, std::int64_t i) {
  if (!RegularOverloaded(i)) return;
  channels_.SetRegular(i, channels_.regular_bw(i) +
                           shares_[static_cast<std::size_t>(i)]);
  ShuntToOverflow(now, i);
  if (channels_.TotalRegular() > two_b_o_) {
    // Stage end: shunt every nonempty regular queue (all in the hot set)
    // in ascending session order, then RESET.
    hot_.SortAscending();
    for (const std::int64_t j : hot_.Sweep()) {
      ShuntToOverflow(now, j);
    }
    tracer_.Emit(TraceEventType::kStageCertified, now, -1, completed_stages_);
    ++completed_stages_;
    Reset(now);
    hot_.FilterInPlace([&](std::int64_t s) { return !Quiescent(s); });
  }
}

void ContinuousMulti::StepSparse(Time now,
                                 std::span<const SessionArrival> arrivals) {
  if (!started_) {
    started_ = true;
    Reset(now);  // the hot set still holds every session
  }
  reduce_wheel_.PopDue(now, [&](const Reduction& r) {
    channels_.AddOverflow(r.session, Bandwidth::Zero() - r.amount);
  });
  for (const SessionArrival& a : arrivals) {
    channels_.Enqueue(a.session, now, a.bits);
    if (a.bits > 0) {
      hot_.Add(a.session);
      Test(now, a.session);
    }
  }
  channels_.ServeActiveSlot(now);
}

}  // namespace bwalloc
