// The continuous multi-session algorithm (Section 3.2, Figure 5).
//
// Like the phased algorithm, but the overload test runs whenever bits are
// added to a regular queue instead of at phase boundaries, and overflow
// bandwidth is leased: TEST(i) adds q/D_O to session i's overflow channel
// and a REDUCE timer returns exactly that amount D_O slots later (by which
// time the shunted bits have drained). Total bandwidth B_A = 5 B_O: regular
// channel 2 B_O, overflow channel 3 B_O (Lemma 16).
//
// Guarantees (Theorem 17): delay <= 2 D_O; total bandwidth <= 5 B_O; at
// most 3k allocation changes per stage, each stage certifying >= 1 offline
// change.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.h"
#include "obs/tracer.h"
#include "sim/engine_multi.h"
#include "sim/hot_set.h"
#include "sim/session_channels.h"
#include "sim/timer_wheel.h"
#include "state/serializer.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {

class ContinuousMulti final : public MultiSessionSystem {
 public:
  explicit ContinuousMulti(
      const MultiSessionParams& params,
      ServiceDiscipline discipline = ServiceDiscipline::kTwoChannel);

  // Arrivals drive the Fig. 5 TESTs directly (already per-session
  // events), REDUCE timers live in a timer wheel, and stage ends iterate
  // only the hot set (differentially tested against the full sweep).
  void StepSparse(Time now,
                  std::span<const SessionArrival> arrivals) override;
  void PerturbEventWakeupsForTest() override { perturb_wakeups_ = 1; }
  void FullSweepForTest() override {
    hot_.PinAll();
    channels_.EnableFullSweepForTest();
  }
  const SessionChannels& channels() const override { return channels_; }
  std::int64_t stages() const override { return completed_stages_; }
  Bandwidth DeclaredTotalBandwidth() const override {
    return Bandwidth::FromBitsPerSlot(5 * params_.offline_bandwidth);
  }
  void SetTracer(const Tracer& tracer) override { tracer_ = tracer; }
  void SetTelemetry(telemetry::RuntimeShard* shard) override {
    reduce_wheel_.SetTelemetry(shard);
  }

  // --- dynamic churn --------------------------------------------------------
  // TEST fires only on arrivals, and the engine masks arrivals for inactive
  // sessions, so the only Fig. 5 actions that must skip a departed session
  // are the RESETs. Departure cancels the session's outstanding REDUCE
  // leases (their overflow allocation was just zeroed); Quiescent() reports
  // inactive sessions quiescent so the hot set sheds them.
  bool SupportsChurn() const override { return true; }
  void OnSessionJoin(Time now, std::int64_t session) override;
  Bits OnSessionDepart(Time now, std::int64_t session) override;

  // --- checkpoint/restore ---------------------------------------------------
  bool SupportsCheckpoint() const override { return true; }

  void SaveState(StateWriter& w) const override {
    w.Tag("CNM1");
    channels_.SaveState(w);
    w.I64(completed_stages_);
    w.Bool(started_);
    reduce_wheel_.SaveState(w, [](StateWriter& sw, const Reduction& red) {
      sw.I64(red.session);
      sw.I64(red.amount.raw());
    });
    hot_.SaveState(w);
    for (const char a : active_) w.Bool(a != 0);
  }

  void LoadState(StateReader& r) override {
    r.Tag("CNM1");
    channels_.LoadState(r);
    completed_stages_ = r.I64();
    started_ = r.Bool();
    reduce_wheel_.LoadState(r, [](StateReader& sr, Reduction& red) {
      red.session = sr.I64();
      red.amount = Bandwidth::FromRaw(sr.I64());
    });
    hot_.LoadState(r);
    for (char& a : active_) a = r.Bool() ? 1 : 0;
  }

 private:
  void Reset(Time now);
  void Test(Time now, std::int64_t i);
  void ShuntToOverflow(Time now, std::int64_t i);
  bool Quiescent(std::int64_t i) const;
  bool RegularOverloaded(std::int64_t i) const;

  bool Active(std::int64_t i) const {
    return active_[static_cast<std::size_t>(i)] != 0;
  }

  MultiSessionParams params_;
  SessionChannels channels_;
  std::vector<Bandwidth> shares_;  // per-session quantum (B_O/k or weighted)
  Bandwidth two_b_o_;  // 2 B_O
  std::int64_t completed_stages_ = 0;
  bool started_ = false;
  Tracer tracer_;      // disabled unless SetTracer was called

  struct Reduction {
    std::int64_t session;
    Bandwidth amount;
  };
  TimerWheel<Reduction> reduce_wheel_;  // one wakeup per lease
  HotSet hot_;                 // candidate non-quiescent sessions
  std::vector<char> active_;   // churn mask; all 1 for fixed populations
  Time perturb_wakeups_ = 0;   // test hook: delays REDUCE wakeups
};

}  // namespace bwalloc
