// The phased multi-session algorithm (Section 3.1, Figure 4).
//
// k sessions share total bandwidth B_A = 4 B_O, split into a regular
// channel (capacity 2 B_O) and an overflow channel (capacity 2 B_O,
// Lemma 10). The algorithm works in stages, each preceded by a RESET that
// sets every session's regular allocation to B_O / k. Phases last D_O slots;
// at each phase boundary, sessions whose regular queue cannot drain within
// D_O get +B_O/k of regular bandwidth and their backlog is shunted to the
// overflow channel, sized to drain it within the next phase. When the total
// regular allocation exceeds 2 B_O, the stage ends — at that point any
// offline (B_O, D_O)-server must have changed some allocation (Lemma 13) —
// and a RESET starts the next stage.
//
// Guarantees (Theorem 14): delay <= 2 D_O; total bandwidth <= 4 B_O; at
// most 3k allocation changes per stage.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.h"
#include "obs/tracer.h"
#include "sim/engine_multi.h"
#include "sim/hot_set.h"
#include "sim/session_channels.h"
#include "state/serializer.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {

class PhasedMulti final : public MultiSessionSystem {
 public:
  explicit PhasedMulti(
      const MultiSessionParams& params,
      ServiceDiscipline discipline = ServiceDiscipline::kTwoChannel);

  // Only sessions in the hot set (arrivals since the last quiescence
  // check, or carrying boosted/overflow allocation) are touched at phase
  // boundaries; all others are provably no-ops for every Fig. 4 action
  // (differentially tested against the full sweep).
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
    return Bandwidth::FromBitsPerSlot(4 * params_.offline_bandwidth);
  }
  void SetTracer(const Tracer& tracer) override { tracer_ = tracer; }

  // --- dynamic churn --------------------------------------------------------
  // Inactive sessions are invisible to every Fig. 4 action: RESET and the
  // phase boundary skip them, and Quiescent() reports them quiescent so
  // the hot set sheds them. A joining session starts at its share with
  // empty queues — exactly the quiescent fixed point — so pruned and
  // full-sweep runs stay event-for-event identical under churn.
  bool SupportsChurn() const override { return true; }
  void OnSessionJoin(Time now, std::int64_t session) override;
  Bits OnSessionDepart(Time now, std::int64_t session) override;

  // --- checkpoint/restore ---------------------------------------------------
  bool SupportsCheckpoint() const override { return true; }

  void SaveState(StateWriter& w) const override {
    w.Tag("PHM1");
    channels_.SaveState(w);
    w.I64(next_phase_);
    w.I64(completed_stages_);
    w.Bool(started_);
    hot_.SaveState(w);
    for (const char a : active_) w.Bool(a != 0);
  }

  void LoadState(StateReader& r) override {
    r.Tag("PHM1");
    channels_.LoadState(r);
    next_phase_ = r.I64();
    completed_stages_ = r.I64();
    started_ = r.Bool();
    hot_.LoadState(r);
    for (char& a : active_) a = r.Bool() ? 1 : 0;
  }

 private:
  void Reset(Time now);
  void PhaseBoundary(Time now);

  // True when session i can be skipped by every phase-boundary action:
  // empty queues, no overflow allocation, regular allocation at its share
  // — or the session is not active (departed / never admitted).
  bool Quiescent(std::int64_t i) const;

  bool Active(std::int64_t i) const {
    return active_[static_cast<std::size_t>(i)] != 0;
  }

  // Fig. 4's test |Q_r| > B_r * D_O, exact in fixed point.
  bool RegularOverloaded(std::int64_t i) const;

  MultiSessionParams params_;
  SessionChannels channels_;
  std::vector<Bandwidth> shares_;  // per-session quantum (B_O/k or weighted)
  Bandwidth two_b_o_;      // 2 B_O
  Time next_phase_ = 0;
  std::int64_t completed_stages_ = 0;
  bool started_ = false;
  Tracer tracer_;          // disabled unless SetTracer was called
  HotSet hot_;             // candidate non-quiescent sessions
  std::vector<char> active_;   // churn mask; all 1 for fixed populations
  Time perturb_wakeups_ = 0;   // test hook: delays phase boundaries
};

}  // namespace bwalloc
