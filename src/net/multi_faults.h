// Unreliable control plane for the multi-session algorithms.
//
//   * PerSessionPlan derives session i's private fault lane from one
//     shared FaultPlan seed via SplitMix64, so lane i's loss/denial/jitter
//     stream is a pure function of (plan seed, i, attempt index) — it does
//     not depend on how many sessions exist or on the --jobs value.
//   * RobustMultiSessionAdapter wraps any MultiSessionSystem (phased,
//     continuous, combined) behind a shared NetworkPath with one SignalLane
//     (net/faults.h) per session: the same retry state machine the
//     single-session RobustSignalingAdapter runs, stepped independently
//     per session.
//
// Degraded-mode discipline: the wrapped algorithm always advances,
// fault-free, on its own (phantom) channels — it is the control model
// whose per-session intents the lanes try to commit. The adapter owns the
// *real* SessionChannels: bits are enqueued there and served at the last
// committed per-session allocation, and a lane holds a decrease until its
// real queue empties. The inner system's trace events (phase boundaries,
// stage certifications, global RESETs) are suppressed because they
// describe allocations that may never have committed; the adapter instead
// emits per-session signal fault/recovery events. A partial grant, a NACK
// or a timeout opens a lane's degraded window, and kSignalRecover closes
// it once the lane's ask is committed again, so the auditor can suspend
// its delay and change-budget monitors exactly during each window and
// assert the lane re-converges within the retry bound.
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

// The former multi-session name of RobustOptions, still used by
// perfbench. The multi adapter's fallback drain rate is the algorithm's
// declared total.
using RobustMultiOptions = RobustOptions;

class RobustMultiSessionAdapter final : public MultiSessionSystem {
 public:
  RobustMultiSessionAdapter(std::unique_ptr<MultiSessionSystem> inner,
                            const NetworkPath& path, const FaultPlan& plan,
                            const RobustOptions& options);

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
      lane.signal.SaveState(w);
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
    degraded_count_ = 0;
    for (Lane& lane : lanes_) {
      lane.signal.LoadState(r);
      lane.degraded = r.Bool();
      lane.active = r.Bool();
      if (lane.degraded) ++degraded_count_;
    }
  }

 private:
  // Session i's signalling lane plus the multi-only bookkeeping around it.
  struct Lane {
    explicit Lane(FaultySignalingChannel ch) : signal(std::move(ch)) {}

    SignalLane signal;
    bool degraded = false;  // open fault window; closed by kSignalRecover
    bool active = true;     // churn mask; parked lanes are skipped entirely
  };

  void StepLane(Time now, std::int64_t i, Bandwidth intended);

  std::unique_ptr<MultiSessionSystem> inner_;
  RobustOptions opts_;
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
