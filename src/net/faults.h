// Unreliable control plane: deterministic fault injection for signalling.
//
// The SignalingChannel models a renegotiation that always succeeds exactly
// on time. Real control planes do not: the request message can be dropped
// by a congested switch, admission control can refuse to grant an
// increase, a switch can grant only part of the asked-for increment, and
// software invocation time varies. This header composes a NetworkPath
// with a seeded FaultPlan:
//
//   * FaultySignalingChannel walks every hop of the path per request and
//     decides — deterministically from (plan seed, attempt index) — whether
//     the message is lost, denied, partially granted, or committed after a
//     jittered delay. The endpoint observes only ACKs, NACKs and the
//     committed allocation; losses are invisible until a timeout.
//   * SignalLane runs one session's stop-and-wait retry state machine over
//     such a channel: timeout detection, capped exponential-backoff retry,
//     and graceful degradation — the session keeps serving at the last
//     committed allocation, and after K consecutive denials of an increase
//     with a backlog present the lane falls back to a RESET-style full-rate
//     drain request so the queue stays bounded.
//   * RobustSignalingAdapter wraps any SingleSessionAllocator behind one
//     lane; RobustMultiSessionAdapter (net/multi_faults.h) runs one lane per
//     session. Both share RobustOptions.
//
// All randomness derives from the plan seed via the same SplitMix64
// machinery the batch runner uses, so a fault replay is bitwise identical
// at any --jobs value.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>

#include "net/path.h"
#include "obs/telemetry/shard.h"
#include "obs/tracer.h"
#include "sim/engine_single.h"
#include "sim/run_result.h"
#include "state/serializer.h"
#include "util/assert.h"
#include "util/fixed_point.h"
#include "util/rng.h"
#include "util/types.h"

namespace bwalloc {

// Seeded description of how unreliable the control plane is. Rates apply
// per hop: a request traversing an h-hop path survives loss with
// probability (1 - loss_rate)^h. Denial and partial grants model admission
// control, so they apply only to increases — releasing bandwidth is always
// admitted (though the release message can still be lost).
struct FaultPlan {
  double loss_rate = 0.0;           // per-hop message loss probability
  double denial_rate = 0.0;         // per-hop admission denial of increases
  double partial_grant_rate = 0.0;  // per-hop partial grant of increases
  Time max_jitter = 0;              // commit delay jitter, uniform in [0, max]
  std::uint64_t seed = 0;

  bool Trivial() const {
    return loss_rate == 0.0 && denial_rate == 0.0 &&
           partial_grant_rate == 0.0 && max_jitter == 0;
  }

  void Validate() const {
    BW_REQUIRE(loss_rate >= 0.0 && loss_rate <= 1.0,
               "FaultPlan: loss_rate must be in [0, 1]");
    BW_REQUIRE(denial_rate >= 0.0 && denial_rate <= 1.0,
               "FaultPlan: denial_rate must be in [0, 1]");
    BW_REQUIRE(partial_grant_rate >= 0.0 && partial_grant_rate <= 1.0,
               "FaultPlan: partial_grant_rate must be in [0, 1]");
    BW_REQUIRE(max_jitter >= 0, "FaultPlan: max_jitter must be >= 0");
  }

  // Stricter check for retry-based users (the robust adapters and the CLI
  // front ends): a plan that loses every message or denies every increase
  // can never commit, so a capped retry loop makes progress impossible.
  // Bare channels may still carry such plans — the timeout/denial tests
  // depend on them — which is why this is not folded into Validate().
  void ValidateRecoverable() const {
    Validate();
    BW_REQUIRE(loss_rate < 1.0,
               "FaultPlan: loss_rate 1.0 loses every request; capped "
               "retries can never make progress");
    BW_REQUIRE(denial_rate < 1.0,
               "FaultPlan: denial_rate 1.0 denies every increase; capped "
               "retries can never make progress");
  }
};

// A signalling channel whose requests traverse the path hop by hop and can
// fail on the way. Endpoint-visible state is limited to what a real sender
// could know: the committed allocation (Effective), arrived ACKs and
// NACKs; ground-truth counters (losses, partial grants) are exposed for
// measurement via stats(). Commits apply FIFO — a jittered message never
// overtakes an earlier one on the same path.
class FaultySignalingChannel {
 public:
  FaultySignalingChannel(const NetworkPath& path, const FaultPlan& plan,
                         Bandwidth initial = Bandwidth::Zero())
      : plan_(plan),
        latency_(path.SignalingLatency()),
        hops_(path.hops()),
        effective_(initial),
        scheduled_tail_(initial) {
    plan_.Validate();
  }

  // Issue a request for `bw`. The outcome is decided now (deterministically
  // from the plan seed and the attempt index) but surfaces to the endpoint
  // only through Effective()/AcksArrived()/DenialsArrived().
  void Request(Time now, Bandwidth bw) {
    ++stats_.requests;
    tracer_.Emit(TraceEventType::kSignalRequest, now, session_, bw.raw(),
                 stats_.requests);
    Rng rng(DeriveStream(plan_.seed,
                         static_cast<std::uint64_t>(stats_.requests)));
    const Time jitter =
        plan_.max_jitter > 0 ? rng.UniformInt(0, plan_.max_jitter) : 0;
    const Bandwidth base = scheduled_tail_;
    const bool increase = bw > base;
    std::int64_t grant_quarters = 4;  // 4/4 = the full ask
    Time prefix = 0;
    for (std::int64_t h = 0; h < hops_; ++h) {
      prefix += per_hop_latency(h);
      if (rng.Bernoulli(plan_.loss_rate)) {
        ++stats_.losses;  // silence: the endpoint learns via timeout
        tracer_.Emit(TraceEventType::kSignalLoss, now, session_, h);
        return;
      }
      if (increase) {
        if (rng.Bernoulli(plan_.denial_rate)) {
          ++stats_.denials;  // NACK travels back from hop h
          nacks_.push_back(now + 2 * prefix + jitter);
          tracer_.Emit(TraceEventType::kSignalDenial, now, session_, h,
                       nacks_.back());
          return;
        }
        if (plan_.partial_grant_rate > 0.0 &&
            rng.Bernoulli(plan_.partial_grant_rate)) {
          grant_quarters = std::min(grant_quarters, rng.UniformInt(1, 3));
        }
      }
    }
    Bandwidth granted = bw;
    if (increase && grant_quarters < 4) {
      ++stats_.partial_grants;
      granted =
          base + Bandwidth::FromRaw((bw - base).raw() * grant_quarters / 4);
      tracer_.Emit(TraceEventType::kSignalPartial, now, session_,
                   granted.raw());
    }
    Time at = now + latency_ + jitter;
    if (!commits_.empty()) at = std::max(at, commits_.back().at);
    commits_.push_back({at, granted});
    scheduled_tail_ = granted;
    ++stats_.commits;
    tracer_.Emit(TraceEventType::kSignalCommit, now, session_, granted.raw(),
                 at);
  }

  // The allocation actually in force during slot `now`.
  Bandwidth Effective(Time now) {
    Advance(now);
    return effective_;
  }

  // Monotone counters of sender-side notifications that arrived by `now`;
  // the caller diffs successive reads.
  std::int64_t AcksArrived(Time now) {
    Advance(now);
    return acks_arrived_;
  }
  std::int64_t DenialsArrived(Time now) {
    Advance(now);
    return denials_arrived_;
  }

  // Upper bound on slots from Request to ACK/NACK arrival; a request still
  // unresolved past this was lost.
  Time WorstCaseResponse() const { return 2 * latency_ + plan_.max_jitter; }

  Time latency() const { return latency_; }
  const FaultStats& stats() const { return stats_; }

  // Attach a tracer; events are tagged with `session` (-1 = untagged).
  void SetTracer(const Tracer& tracer, std::int64_t session = -1) {
    tracer_ = tracer;
    session_ = session;
  }

  // The channel has no persistent RNG object: each request derives a fresh
  // stream from (plan seed, request index). Serializing stats_.requests IS
  // serializing the RNG stream position.
  void SaveState(StateWriter& w) const {
    w.Tag("FCH1");
    w.U64(commits_.size());
    for (const PendingCommit& c : commits_) {
      w.I64(c.at);
      w.I64(c.value.raw());
    }
    w.U64(nacks_.size());
    for (const Time t : nacks_) w.I64(t);
    w.I64(effective_.raw());
    w.I64(scheduled_tail_.raw());
    w.I64(acks_arrived_);
    w.I64(denials_arrived_);
    w.I64(stats_.requests);
    w.I64(stats_.commits);
    w.I64(stats_.losses);
    w.I64(stats_.denials);
    w.I64(stats_.partial_grants);
  }

  void LoadState(StateReader& r) {
    r.Tag("FCH1");
    commits_.clear();
    const std::uint64_t n_commits = r.Count(std::uint64_t{1} << 32);
    for (std::uint64_t i = 0; i < n_commits; ++i) {
      const Time at = r.I64();
      commits_.push_back({at, Bandwidth::FromRaw(r.I64())});
    }
    nacks_.clear();
    const std::uint64_t n_nacks = r.Count(std::uint64_t{1} << 32);
    for (std::uint64_t i = 0; i < n_nacks; ++i) nacks_.push_back(r.I64());
    effective_ = Bandwidth::FromRaw(r.I64());
    scheduled_tail_ = Bandwidth::FromRaw(r.I64());
    acks_arrived_ = r.I64();
    denials_arrived_ = r.I64();
    stats_.requests = r.I64();
    stats_.commits = r.I64();
    stats_.losses = r.I64();
    stats_.denials = r.I64();
    stats_.partial_grants = r.I64();
  }

 private:
  struct PendingCommit {
    Time at;
    Bandwidth value;
  };

  Time per_hop_latency(std::int64_t index) const {
    // Uniform split of the path latency; the remainder lands on hop 0 so
    // prefix sums stay exact.
    if (hops_ == 0) return 0;
    return latency_ / hops_ + (index == 0 ? latency_ % hops_ : 0);
  }

  void Advance(Time now) {
    while (!commits_.empty() && commits_.front().at <= now) {
      effective_ = commits_.front().value;
      commits_.pop_front();
      ++acks_arrived_;
    }
    while (!nacks_.empty() && nacks_.front() <= now) {
      nacks_.pop_front();
      ++denials_arrived_;
    }
  }

  FaultPlan plan_;
  Time latency_;
  std::int64_t hops_;
  std::deque<PendingCommit> commits_;
  std::deque<Time> nacks_;
  Bandwidth effective_;
  Bandwidth scheduled_tail_;  // last value scheduled to commit
  std::int64_t acks_arrived_ = 0;
  std::int64_t denials_arrived_ = 0;
  FaultStats stats_;
  Tracer tracer_;  // disabled unless SetTracer was called
  std::int64_t session_ = -1;
};

// Retry policy of both robust adapters. Only the backoff cap and the
// fallback drain rate are settable; SignalLane fixes the rest.
struct RobustOptions {
  Time max_backoff = 64;  // exponential backoff cap
  // RESET-style drain rate: B_A for one session, the algorithm's declared
  // total for each multi-session lane.
  Bits fallback_bandwidth = 0;

  void Validate() const;

  // Audit allowances for a run behind `hops` hops whose commits jitter by
  // up to `jitter` slots; `drain` is the fault-free drain horizon.
  struct AuditSlack {
    Time delay_slack;           // commits land up to one round trip late
    Time degraded_delay_slack;  // `drain` plus one capped backoff per hop
    Time fault_recovery_bound;  // one capped backoff plus the round trip
  };
  AuditSlack Slack(std::int64_t hops, Time jitter, Time drain) const {
    return {2 * (hops + jitter) + 2, drain + max_backoff * hops,
            max_backoff + 2 * (hops + jitter) + 8};
  }
};

// What a lane's owner hands each step: the policy, and where events go.
// Passed in rather than stored so a per-session lane stays small.
struct SignalContext {
  const RobustOptions& options;
  const Tracer& tracer;
  telemetry::RuntimeShard* telemetry;  // nullable; never affects decisions
  std::int64_t session;                // tag on trace events (-1 = none)
};

// One slot of a lane: the allocation in force, and whether the control
// plane pushed back this slot (a partial grant, a NACK or a timeout).
struct SignalStep {
  Bandwidth committed;
  bool setback = false;
};

// The stop-and-wait signalling state machine both robust adapters run, one
// per session. At most one request is outstanding; until it resolves the
// session keeps the last committed allocation. A request unresolved past
// the channel's worst-case response was lost: the lane times it out and
// retries with capped exponential backoff, as it does after a NACK. After
// kFallbackAfterDenials consecutive denials with a backlog present it
// abandons the caller's ask and requests the fallback drain rate — the
// Fig. 3 RESET move — until the caller reports the queue empty, which
// keeps the backlog bounded whenever a request can still succeed.
class SignalLane {
 public:
  static constexpr Time kTimeoutMargin = 2;   // slots past worst-case response
  static constexpr Time kInitialBackoff = 1;  // slots before the first retry
  static constexpr std::int64_t kFallbackAfterDenials = 3;  // K

  explicit SignalLane(FaultySignalingChannel channel)
      : channel_(std::move(channel)) {}

  // Slot `now`, before service: absorb ACKs, NACKs and timeouts, enter
  // fallback if due, and ask for `want` (or the fallback rate) once no
  // request is outstanding and the backoff has elapsed. `queue` is the
  // session's real backlog.
  SignalStep Step(Time now, Bandwidth want, Bits queue,
                  const SignalContext& ctx) {
    telemetry::RuntimeShard* const shard = ctx.telemetry;
    SignalStep out{channel_.Effective(now)};

    const std::int64_t acks = channel_.AcksArrived(now);
    if (acks > seen_acks_) {
      // Our request committed (possibly partially): progress, so reset the
      // backoff and the denial streak.
      if (shard != nullptr) {
        shard->Add(telemetry::Counter::kSignalAcks, acks - seen_acks_);
        if (request_slot_ >= 0) {
          shard->Record(telemetry::Histo::kSignalRttSlots,
                        now - request_slot_);
        }
        if (backoff_ > kInitialBackoff) {
          // A backoff episode just ended: its length is the value reached.
          shard->Record(telemetry::Histo::kBackoffEpisodeSlots, backoff_);
        }
      }
      request_slot_ = -1;
      // A partial grant commits below the ask: a setback all the same.
      out.setback = have_last_want_ && out.committed != last_want_;
      seen_acks_ = acks;
      outstanding_ = false;
      backoff_ = kInitialBackoff;
      consecutive_denials_ = 0;
      next_attempt_at_ = now;
    }
    const std::int64_t nacks = channel_.DenialsArrived(now);
    if (nacks > seen_nacks_) {
      if (shard != nullptr) {
        shard->Add(telemetry::Counter::kSignalNacks, nacks - seen_nacks_);
      }
      consecutive_denials_ += nacks - seen_nacks_;
      seen_nacks_ = nacks;
      BackOff(now, ctx.options);
      out.setback = true;
    }
    if (outstanding_ && now >= deadline_) {
      ++timeouts_;  // past worst-case response: the message was lost
      ctx.tracer.Emit(TraceEventType::kSignalTimeout, now, ctx.session,
                      deadline_);
      if (shard != nullptr) shard->Add(telemetry::Counter::kSignalTimeouts);
      BackOff(now, ctx.options);
      out.setback = true;
    }

    if (!fallback_ && queue > 0 &&
        consecutive_denials_ >= kFallbackAfterDenials) {
      fallback_ = true;
      ++fallbacks_;
      ctx.tracer.Emit(TraceEventType::kSignalFallback, now, ctx.session,
                      ctx.options.fallback_bandwidth);
      if (shard != nullptr) shard->Add(telemetry::Counter::kSignalFallbacks);
    }
    if (fallback_) {
      want = Bandwidth::FromBitsPerSlot(ctx.options.fallback_bandwidth);
    }

    if (!outstanding_ && want != out.committed && now >= next_attempt_at_) {
      if (have_last_want_ && want == last_want_) {
        ++retries_;
        ctx.tracer.Emit(TraceEventType::kSignalRetry, now, ctx.session,
                        want.raw(), backoff_);
      }
      channel_.Request(now, want);
      if (shard != nullptr) shard->Add(telemetry::Counter::kSignalsSent);
      request_slot_ = now;
      have_last_want_ = true;
      last_want_ = want;
      outstanding_ = true;
      deadline_ = now + channel_.WorstCaseResponse() + kTimeoutMargin;
      out.committed = channel_.Effective(now);  // zero-latency paths commit
    }
    return out;
  }

  // After the slot's service: a fallback drain that emptied the queue
  // hands the lane back to the caller's want.
  void OnServed(Bits queue_after) {
    if (fallback_ && queue_after == 0) {
      fallback_ = false;
      consecutive_denials_ = 0;
      backoff_ = kInitialBackoff;
    }
  }

  // The session departed: forget the outstanding request, the fallback
  // drain and the denial streak, so a rejoin starts from a clean lane.
  void Park(Time now) {
    outstanding_ = false;
    fallback_ = false;
    consecutive_denials_ = 0;
    backoff_ = kInitialBackoff;
    have_last_want_ = false;
    next_attempt_at_ = now;
    request_slot_ = -1;
  }

  // The allocation in force during slot `now`; idempotent within a slot.
  Bandwidth Committed(Time now) { return channel_.Effective(now); }

  bool outstanding() const { return outstanding_; }
  bool in_fallback() const { return fallback_; }

  // Channel ground truth plus the lane's endpoint-side counters.
  FaultStats stats() const {
    FaultStats s = channel_.stats();
    s.timeouts = timeouts_;
    s.retries = retries_;
    s.fallbacks = fallbacks_;
    return s;
  }

  // Tags the channel's own events; the lane's come from SignalContext.
  void SetTracer(const Tracer& tracer, std::int64_t session) {
    channel_.SetTracer(tracer, session);
  }

  void SaveState(StateWriter& w) const {
    channel_.SaveState(w);
    w.Bool(outstanding_);
    w.I64(deadline_);
    w.I64(next_attempt_at_);
    w.I64(backoff_);
    w.I64(consecutive_denials_);
    w.Bool(fallback_);
    w.I64(last_want_.raw());
    w.Bool(have_last_want_);
    w.I64(seen_acks_);
    w.I64(seen_nacks_);
    w.I64(timeouts_);
    w.I64(retries_);
    w.I64(fallbacks_);
  }

  void LoadState(StateReader& r) {
    channel_.LoadState(r);
    outstanding_ = r.Bool();
    deadline_ = r.I64();
    next_attempt_at_ = r.I64();
    backoff_ = r.I64();
    consecutive_denials_ = r.I64();
    fallback_ = r.Bool();
    last_want_ = Bandwidth::FromRaw(r.I64());
    have_last_want_ = r.Bool();
    seen_acks_ = r.I64();
    seen_nacks_ = r.I64();
    timeouts_ = r.I64();
    retries_ = r.I64();
    fallbacks_ = r.I64();
  }

 private:
  // A NACK or a timeout: wait out the backoff, then double it up to the cap.
  void BackOff(Time now, const RobustOptions& options) {
    outstanding_ = false;
    next_attempt_at_ = now + backoff_;
    backoff_ = std::min(backoff_ * 2, options.max_backoff);
  }

  FaultySignalingChannel channel_;
  bool outstanding_ = false;
  Time deadline_ = 0;
  Time next_attempt_at_ = 0;
  Time backoff_ = kInitialBackoff;
  std::int64_t consecutive_denials_ = 0;
  bool fallback_ = false;
  Bandwidth last_want_;
  bool have_last_want_ = false;
  std::int64_t seen_acks_ = 0;
  std::int64_t seen_nacks_ = 0;
  std::int64_t timeouts_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t fallbacks_ = 0;
  // Live lane only (not checkpointed): the slot of the last request, for
  // ack RTT telemetry. A resume restarts the measurement.
  Time request_slot_ = -1;
};

inline void RobustOptions::Validate() const {
  BW_REQUIRE(max_backoff >= SignalLane::kInitialBackoff,
             "RobustOptions: max_backoff >= initial backoff (1)");
  BW_REQUIRE(fallback_bandwidth > 0,
             "RobustOptions: fallback_bandwidth must be > 0");
}

// Wraps any single-session allocator behind one SignalLane. The inner
// allocator always advances, even while its decisions cannot be
// signalled, so its state machine tracks the actual traffic; its ask is
// the lane's want.
class RobustSignalingAdapter final : public SingleSessionAllocator {
 public:
  RobustSignalingAdapter(std::unique_ptr<SingleSessionAllocator> inner,
                         const NetworkPath& path, const FaultPlan& plan,
                         const RobustOptions& options)
      : inner_(std::move(inner)),
        lane_(FaultySignalingChannel(path, plan)),
        opts_(options) {
    BW_REQUIRE(inner_ != nullptr, "RobustSignalingAdapter: null inner");
    plan.ValidateRecoverable();
    opts_.Validate();
  }

  Bandwidth OnSlot(Time now, Bits arrivals, Bits queue) override {
    const Bandwidth want = inner_->OnSlot(now, arrivals, queue);
    return lane_.Step(now, want, queue, {opts_, tracer_, telemetry_, session_})
        .committed;
  }

  void OnServed(Time now, Bits served, Bits queue_after) override {
    inner_->OnServed(now, served, queue_after);
    lane_.OnServed(queue_after);
  }

  std::int64_t stages() const override { return inner_->stages(); }

  FaultStats fault_stats() const { return lane_.stats(); }
  bool in_fallback() const { return lane_.in_fallback(); }

  // Attach a tracer to the adapter and its channel; events are tagged with
  // `session` (-1 = untagged).
  void SetTracer(const Tracer& tracer, std::int64_t session = -1) {
    tracer_ = tracer;
    session_ = session;
    lane_.SetTracer(tracer, session);
  }

  // Live telemetry (signal RTT, backoff episodes, denial/timeout counts).
  // Nondeterministic lane: never saved in checkpoints, never affects the
  // adapter's decisions.
  void SetTelemetry(telemetry::RuntimeShard* shard) { telemetry_ = shard; }

  // --- checkpoint/restore ---------------------------------------------------
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }

  void SaveState(StateWriter& w) const override {
    w.Tag("RSA1");
    inner_->SaveState(w);
    lane_.SaveState(w);
  }

  void LoadState(StateReader& r) override {
    r.Tag("RSA1");
    inner_->LoadState(r);
    lane_.LoadState(r);
  }

 private:
  std::unique_ptr<SingleSessionAllocator> inner_;
  SignalLane lane_;
  RobustOptions opts_;
  Tracer tracer_;  // disabled unless SetTracer was called
  std::int64_t session_ = -1;
  telemetry::RuntimeShard* telemetry_ = nullptr;
};

}  // namespace bwalloc
