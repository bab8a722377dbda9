// The combined algorithm (Section 4): k sessions, shared dynamic total
// bandwidth, per-session delay bound and aggregate utilization bound.
//
// Structure: GLOBAL stages x LOCAL stages.
//
//   * Global trackers run the single-session envelopes (low/high) over the
//     AGGREGATE arrival stream with the offline parameters (D_O, U_O).
//     B_on — the smallest power of two >= low(t) — tracks the offline
//     server's total bandwidth and plays the role of B_O inside the
//     multi-session machinery. B_on is monotone within a global stage, so
//     global changes per global stage <= log2(2 B_O) (and every completed
//     global stage certifies one offline change of total bandwidth).
//   * A local stage is one stage of the multi-session algorithm — phased
//     (Fig. 4) or continuous (Fig. 5), per CombinedParams — run with
//     parameter B_on. It ends when (1) a GLOBAL RESET starts, (2) B_on
//     changes, or (3) the total regular allocation exceeds 2 B_on. Every
//     completed local stage certifies one offline per-session change; the
//     online pays O(k) local changes per local stage.
//   * GLOBAL RESET (high < low): every session queue is shunted into a
//     global overflow queue served by a dedicated channel of size 2 B_O,
//     and — unlike the single-session RESET — a new global stage starts
//     immediately.
//
// Resource bounds: regular channel <= 2 B_on <= 4 B_O, session overflow
// channel <= 2 B_on <= ~2 B_O in steady state, global overflow channel
// 2 B_O, for a total within B_A = 7 B_O. Delay <= 2 D_O; utilization
// >= U_O / 3. Section 4 of the paper is a sketch; DESIGN.md records the
// interpretation choices.
#pragma once

#include <cstdint>
#include <vector>

#include "core/high_tracker.h"
#include "core/low_tracker.h"
#include "core/params.h"
#include "obs/tracer.h"
#include "sim/bit_queue.h"
#include "sim/engine_multi.h"
#include "sim/hot_set.h"
#include "sim/session_channels.h"
#include "sim/timer_wheel.h"
#include "state/serializer.h"
#include "util/fixed_point.h"
#include "util/histogram.h"
#include "util/types.h"

namespace bwalloc {

class CombinedOnline final : public MultiSessionSystem {
 public:
  explicit CombinedOnline(
      const CombinedParams& params,
      ServiceDiscipline discipline = ServiceDiscipline::kTwoChannel);

  // The global trackers need only the slot's aggregate demand (a sum over
  // the sparse arrivals); the inner machinery touches the hot set, except
  // that a share change (B_on level change or GLOBAL RESET) refills it for
  // the local-stage start, exactly where every session's value changes
  // anyway (differentially tested against the full sweep).
  void StepSparse(Time now,
                  std::span<const SessionArrival> arrivals) override;
  void PerturbEventWakeupsForTest() override { perturb_wakeups_ = 1; }
  void FullSweepForTest() override {
    hot_.PinAll();
    channels_.EnableFullSweepForTest();
  }
  const SessionChannels& channels() const override { return channels_; }

  // Completed local stages (offline per-session-change lower bound).
  std::int64_t stages() const override { return completed_local_stages_; }
  std::int64_t boundary_visits() const override { return hot_.visits(); }
  // Completed global stages (offline total-change lower bound).
  std::int64_t global_stages() const override {
    return completed_global_stages_;
  }

  // The inner channels (4 B_on phased / 5 B_on continuous) + 2 B_O (global
  // overflow channel): the reserved total whose transitions are the
  // "global changes".
  Bandwidth DeclaredTotalBandwidth() const override {
    return Bandwidth::FromBitsPerSlot(
        (params_.continuous_inner ? 5 : 4) * b_on_ +
        2 * params_.offline_bandwidth);
  }

  Bandwidth ExtraAllocatedBandwidth() const override { return global_bw_; }
  Bits ExtraQueuedBits() const override { return global_queue_.size(); }
  Bits ExtraDeliveredBits() const override { return global_delivered_; }
  const DelayHistogram* ExtraDelayHistogram() const override {
    return &global_delay_;
  }

  // Introspection for tests.
  Bits b_on() const { return b_on_; }
  Bits peak_global_queue() const { return peak_global_queue_; }

  void SetTracer(const Tracer& tracer) override { tracer_ = tracer; }
  void SetTelemetry(telemetry::RuntimeShard* shard) override {
    reduce_wheel_.SetTelemetry(shard);
  }

  // --- dynamic churn --------------------------------------------------------
  // Inactive sessions are skipped by every local-stage, phase-boundary, and
  // GLOBAL RESET loop, and Quiescent() reports
  // them quiescent so the hot set sheds them. A joining session starts at
  // the *current* share_ with empty queues — the quiescent fixed point —
  // and departure cancels any outstanding continuous-inner REDUCE leases.
  bool SupportsChurn() const override { return true; }
  void OnSessionJoin(Time now, std::int64_t session) override;
  Bits OnSessionDepart(Time now, std::int64_t session) override;

  // --- checkpoint/restore ---------------------------------------------------
  bool SupportsCheckpoint() const override { return true; }

  void SaveState(StateWriter& w) const override {
    w.Tag("CMB1");
    channels_.SaveState(w);
    low_tracker_.SaveState(w);
    high_tracker_.SaveState(w);
    w.I64(b_on_);
    w.I64(share_.raw());
    w.I64(next_phase_);
    w.Bool(started_);
    global_queue_.SaveState(w);
    w.I64(global_bw_.raw());
    w.I64(global_delivered_);
    global_delay_.SaveState(w);
    w.I64(peak_global_queue_);
    w.I64(completed_local_stages_);
    w.I64(completed_global_stages_);
    reduce_wheel_.SaveState(w, [](StateWriter& sw, const Reduction& red) {
      sw.I64(red.session);
      sw.I64(red.amount.raw());
    });
    hot_.SaveState(w);
    for (const char a : active_) w.Bool(a != 0);
  }

  void LoadState(StateReader& r) override {
    r.Tag("CMB1");
    channels_.LoadState(r);
    low_tracker_.LoadState(r);
    high_tracker_.LoadState(r);
    b_on_ = r.I64();
    share_ = Bandwidth::FromRaw(r.I64());
    next_phase_ = r.I64();
    started_ = r.Bool();
    global_queue_.LoadState(r);
    global_bw_ = Bandwidth::FromRaw(r.I64());
    global_delivered_ = r.I64();
    global_delay_.LoadState(r);
    peak_global_queue_ = r.I64();
    completed_local_stages_ = r.I64();
    completed_global_stages_ = r.I64();
    reduce_wheel_.LoadState(r, [](StateReader& sr, Reduction& red) {
      red.session = sr.I64();
      red.amount = Bandwidth::FromRaw(sr.I64());
    });
    hot_.LoadState(r);
    for (char& a : active_) a = r.Bool() ? 1 : 0;
  }

 private:
  void StartGlobalStage(Time ts);
  void StartLocalStage(Time now, bool shunt_regular);
  void PhaseBoundary(Time now);
  void ContinuousTest(Time now, std::int64_t i);
  void ShuntWithLease(Time now, std::int64_t i);
  bool RegularOverloaded(std::int64_t i) const;
  void GlobalReset(Time now);
  bool Quiescent(std::int64_t i) const;

  bool Active(std::int64_t i) const {
    return active_[static_cast<std::size_t>(i)] != 0;
  }

  CombinedParams params_;
  SessionChannels channels_;
  LowTracker low_tracker_;
  HighTracker high_tracker_;

  Bits b_on_ = 0;          // current power-of-two total-bandwidth estimate
  Bandwidth share_;        // B_on / k
  Time next_phase_ = 0;
  bool started_ = false;

  BitQueue global_queue_;  // GLOBAL RESET overflow queue
  Bandwidth global_bw_;    // 2 B_O while the global queue is non-empty
  Bits global_delivered_ = 0;
  DelayHistogram global_delay_;
  Bits peak_global_queue_ = 0;

  std::int64_t completed_local_stages_ = 0;
  std::int64_t completed_global_stages_ = 0;
  Tracer tracer_;          // disabled unless SetTracer was called

  // Continuous-inner lease timers (Fig. 5's REDUCE).
  struct Reduction {
    std::int64_t session;
    Bandwidth amount;
  };
  TimerWheel<Reduction> reduce_wheel_;  // one wakeup per lease
  HotSet hot_;                 // candidate non-quiescent sessions
  std::vector<char> active_;   // churn mask; all 1 for fixed populations
  Time perturb_wakeups_ = 0;   // test hook: delays boundaries / REDUCEs
};

}  // namespace bwalloc
