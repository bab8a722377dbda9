// Unreliable control plane for the multi-session algorithms.
//
// PR 2 gave the single-session allocator a fault-injected signalling path
// (net/faults.h); the multi-session engines still assumed every
// per-session renegotiation commits instantly and in full. This header
// closes that gap:
//
//   * PerSessionPlan derives session i's private fault lane from one
//     shared FaultPlan seed via SplitMix64, so lane i's loss/denial/jitter
//     stream is a pure function of (plan seed, i, attempt index) — it does
//     not depend on how many sessions exist or on the --jobs value.
//   * RobustMultiSessionAdapter wraps any MultiSessionSystem (phased,
//     continuous, combined) behind a shared NetworkPath with one
//     FaultySignalingChannel per session. Each lane runs the same
//     stop-and-wait / timeout-as-loss / capped-exponential-backoff /
//     RESET-fallback state machine as the single-session
//     RobustSignalingAdapter, independently per session.
//
// Degraded-mode discipline: the wrapped algorithm always advances,
// fault-free, on its own (phantom) channels — it is the control model
// whose per-session intents the lanes try to commit. The adapter owns the
// *real* SessionChannels: bits are enqueued there and served at the last
// committed per-session allocation. The inner system's trace events
// (phase boundaries, stage certifications, global RESETs) are suppressed
// because they describe allocations that may never have committed; the
// adapter instead emits per-session signal fault/recovery events so the
// auditor can suspend its delay and change-budget monitors exactly during
// each session's degraded window and assert the lane re-converges within
// the retry bound (kSignalRecover).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/faults.h"
#include "net/path.h"
#include "obs/tracer.h"
#include "sim/engine_multi.h"
#include "sim/run_result.h"
#include "sim/session_channels.h"
#include "state/serializer.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {

// Session i's private fault lane: same rates, a seed derived from the
// shared plan seed and the session index only.
FaultPlan PerSessionPlan(const FaultPlan& plan, std::int64_t session);

// Retry/degradation policy, applied independently per session lane.
struct RobustMultiOptions {
  Time timeout_margin = 2;    // extra slots past WorstCaseResponse
  Time initial_backoff = 1;   // slots before the first re-attempt
  Time max_backoff = 64;      // exponential backoff cap
  std::int64_t fallback_after_denials = 3;  // K consecutive denials
  Bits fallback_bandwidth = 0;  // per-session RESET drain rate, typically B_A

  void Validate() const {
    BW_REQUIRE(timeout_margin >= 1, "RobustMultiOptions: timeout_margin >= 1");
    BW_REQUIRE(initial_backoff >= 1,
               "RobustMultiOptions: initial_backoff >= 1");
    BW_REQUIRE(max_backoff >= initial_backoff,
               "RobustMultiOptions: max_backoff >= initial_backoff");
    BW_REQUIRE(fallback_after_denials >= 1,
               "RobustMultiOptions: fallback_after_denials >= 1");
    BW_REQUIRE(fallback_bandwidth > 0,
               "RobustMultiOptions: fallback_bandwidth must be > 0");
  }
};

class RobustMultiSessionAdapter final : public MultiSessionSystem {
 public:
  RobustMultiSessionAdapter(std::unique_ptr<MultiSessionSystem> inner,
                            const NetworkPath& path, const FaultPlan& plan,
                            const RobustMultiOptions& options);

  // The control model and the real data plane step sparsely; every active
  // lane still runs its retry state machine each slot.
  void StepSparse(Time now,
                  std::span<const SessionArrival> arrivals) override;
  void FullSweepForTest() override {
    inner_->FullSweepForTest();
    channels_.EnableFullSweepForTest();
  }

  // The adapter's channels are the real data plane; the inner system's
  // channels only model what the algorithm believes it has committed.
  const SessionChannels& channels() const override { return channels_; }

  std::int64_t stages() const override { return inner_->stages(); }
  std::int64_t global_stages() const override {
    return inner_->global_stages();
  }
  Bandwidth DeclaredTotalBandwidth() const override {
    return inner_->DeclaredTotalBandwidth();
  }
  // Extra* stay at their zero defaults on purpose: the combined
  // algorithm's global channel drains *phantom* copies of the arrivals
  // inside the control model; the real bits stay in the adapter's
  // channels, so forwarding the inner counters would double-count them
  // and break conservation.

  void SetTracer(const Tracer& tracer) override;

  // Live telemetry: per-lane signal counters, ack RTT, backoff episodes,
  // and the degraded-lane recovery-debt gauge. Nondeterministic lane only.
  void SetTelemetry(telemetry::RuntimeShard* shard) override;

  // Merged over all sessions (exact sum of per_session_fault_stats()).
  FaultStats fault_stats() const;
  std::vector<FaultStats> per_session_fault_stats() const;

  bool in_fallback(std::int64_t session) const;
  std::int64_t sessions() const { return sessions_; }

  // --- dynamic churn --------------------------------------------------------
  // Churn passes through to the control model; the adapter additionally
  // parks the departing session's lane (cancelling its outstanding request,
  // fallback drain, and any open degraded window) and drops the real
  // queues. A rejoining session restarts its lane from the parked state.
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  void OnSessionJoin(Time now, std::int64_t session) override;
  Bits OnSessionDepart(Time now, std::int64_t session) override;

  // --- checkpoint/restore ---------------------------------------------------
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }

  void SaveState(StateWriter& w) const override {
    w.Tag("RMA1");
    inner_->SaveState(w);
    channels_.SaveState(w);
    w.U64(lanes_.size());
    for (const Lane& lane : lanes_) {
      lane.channel.SaveState(w);
      w.Bool(lane.outstanding);
      w.I64(lane.deadline);
      w.I64(lane.next_attempt_at);
      w.I64(lane.backoff);
      w.I64(lane.consecutive_denials);
      w.Bool(lane.fallback);
      w.I64(lane.last_want.raw());
      w.Bool(lane.have_last_want);
      w.I64(lane.seen_acks);
      w.I64(lane.seen_nacks);
      w.I64(lane.timeouts);
      w.I64(lane.retries);
      w.I64(lane.fallbacks);
      w.Bool(lane.degraded);
      w.Bool(lane.active);
    }
  }

  void LoadState(StateReader& r) override {
    r.Tag("RMA1");
    inner_->LoadState(r);
    channels_.LoadState(r);
    const std::uint64_t n = r.U64();
    if (n != lanes_.size()) {
      throw StateFormatError("fault lane count mismatch in checkpoint");
    }
    for (Lane& lane : lanes_) {
      lane.channel.LoadState(r);
      lane.outstanding = r.Bool();
      lane.deadline = r.I64();
      lane.next_attempt_at = r.I64();
      lane.backoff = r.I64();
      lane.consecutive_denials = r.I64();
      lane.fallback = r.Bool();
      lane.last_want = Bandwidth::FromRaw(r.I64());
      lane.have_last_want = r.Bool();
      lane.seen_acks = r.I64();
      lane.seen_nacks = r.I64();
      lane.timeouts = r.I64();
      lane.retries = r.I64();
      lane.fallbacks = r.I64();
      lane.degraded = r.Bool();
      lane.active = r.Bool();
    }
    degraded_count_ = 0;
    for (const Lane& lane : lanes_) {
      if (lane.degraded) ++degraded_count_;
    }
  }

 private:
  // One independent stop-and-wait retry state machine per session.
  struct Lane {
    explicit Lane(FaultySignalingChannel ch) : channel(std::move(ch)) {}

    FaultySignalingChannel channel;
    bool outstanding = false;
    Time deadline = 0;
    Time next_attempt_at = 0;
    Time backoff = 1;
    std::int64_t consecutive_denials = 0;
    bool fallback = false;
    Bandwidth last_want;
    bool have_last_want = false;
    std::int64_t seen_acks = 0;
    std::int64_t seen_nacks = 0;
    std::int64_t timeouts = 0;
    std::int64_t retries = 0;
    std::int64_t fallbacks = 0;
    bool degraded = false;  // open fault window; closed by kSignalRecover
    bool active = true;     // churn mask; parked lanes are skipped entirely
    // Live-lane only (not checkpointed): slot of the last request, for
    // ack RTT telemetry. A resume restarts the measurement.
    Time request_slot = -1;
  };

  void StepLane(Time now, std::int64_t i, Bandwidth intended);

  std::unique_ptr<MultiSessionSystem> inner_;
  RobustMultiOptions opts_;
  std::int64_t sessions_;
  SessionChannels channels_;
  std::vector<Lane> lanes_;
  Tracer tracer_;  // disabled unless SetTracer was called
  // Lanes currently inside an open degraded window — the run's fault
  // recovery debt, maintained incrementally and exported as a gauge.
  std::int64_t degraded_count_ = 0;
  telemetry::RuntimeShard* telemetry_ = nullptr;
};

}  // namespace bwalloc
