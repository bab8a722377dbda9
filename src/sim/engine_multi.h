// Multi-session run engine.
//
// The multi-session algorithms own their SessionChannels (they move queue
// contents and re-allocate), so the system interface is coarser than the
// single-session one: the engine feeds each slot's sparse arrivals and the
// system does enqueue + allocate + serve. The engine owns all scoring:
// per-variable local change counting, declared-total (global) change
// counting, utilization, and delay aggregation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/telemetry/shard.h"
#include "obs/tracer.h"
#include "sim/run_result.h"
#include "sim/session_channels.h"
#include "state/checkpoint.h"
#include "state/serializer.h"
#include "util/assert.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {

class ChurnDriver;  // sim/churn.h

// One nonzero arrival for the sparse step interface.
struct SessionArrival {
  std::int64_t session = 0;
  Bits bits = 0;
};

// Column-compressed arrival trace: per slot, only the sessions that
// actually submit bits, sorted ascending by session id. This is the
// engine's input format — at a million sessions a dense per-slot vector is
// 8 MB of zeros per slot.
struct SparseMultiTrace {
  std::int64_t sessions = 0;
  Time horizon = 0;
  // slot_offsets has horizon + 1 entries; slot t's arrivals are
  // arrivals[slot_offsets[t] .. slot_offsets[t + 1]).
  std::vector<std::int64_t> slot_offsets;
  std::vector<SessionArrival> arrivals;

  std::span<const SessionArrival> Slot(Time t) const {
    const auto lo =
        static_cast<std::size_t>(slot_offsets[static_cast<std::size_t>(t)]);
    const auto hi = static_cast<std::size_t>(
        slot_offsets[static_cast<std::size_t>(t) + 1]);
    return std::span<const SessionArrival>(arrivals.data() + lo, hi - lo);
  }

  // Exact sparse view of a dense trace set (zeros dropped).
  static SparseMultiTrace FromDense(
      const std::vector<std::vector<Bits>>& traces);

  // Structural invariants: offsets monotone and spanning, sessions in
  // range and ascending within each slot, bits non-negative.
  void Validate() const;
};

class MultiSessionSystem {
 public:
  virtual ~MultiSessionSystem() = default;

  // Process one slot given only the sessions with nonzero demand, sorted
  // ascending by session id: enqueue arrivals, update allocations, serve.
  virtual void StepSparse(Time now,
                          std::span<const SessionArrival> arrivals) = 0;

  // Dense convenience form (one entry per session): gathers the nonzero
  // entries and calls StepSparse.
  virtual void Step(Time now, std::span<const Bits> arrivals);

  virtual const SessionChannels& channels() const = 0;

  // Completed stages (RESET count): the Lemma 13 offline lower bound.
  virtual std::int64_t stages() const = 0;

  // Combined algorithm only: completed global stages.
  virtual std::int64_t global_stages() const { return 0; }

  // Total bandwidth the algorithm has *reserved* this slot (the quantity
  // whose transitions are "global changes" for the combined algorithm).
  virtual Bandwidth DeclaredTotalBandwidth() const = 0;

  // Bandwidth allocated outside the per-session channels (the combined
  // algorithm's global overflow channel); counted into utilization.
  virtual Bandwidth ExtraAllocatedBandwidth() const { return {}; }
  virtual Bits ExtraQueuedBits() const { return 0; }
  virtual Bits ExtraDeliveredBits() const { return 0; }
  // Delays of bits delivered by the extra channel; nullptr if none.
  virtual const DelayHistogram* ExtraDelayHistogram() const { return nullptr; }

  // Attach a tracer for the system's internal events (stage certification,
  // RESETs, overflow shunts). Default: ignore — tracing stays optional for
  // every implementation.
  virtual void SetTracer(const Tracer& /*tracer*/) {}

  // Attach a live telemetry shard for the system's internal hot-path
  // instruments (timer-wheel scan costs, fault-lane counters). Default:
  // ignore — telemetry stays optional for every implementation, and it is
  // on the nondeterministic lane: it must never change behaviour.
  virtual void SetTelemetry(telemetry::RuntimeShard* /*shard*/) {}

  // Every system steps sparsely; always true. Decorators forward it.
  virtual bool SupportsSparseStep() const { return true; }

  // Test hook: shifts the system's scheduled wakeups (phase boundaries,
  // REDUCE leases) one slot late. The differential harness's negative
  // control proves such an off-by-one is *caught* by the byte-identity
  // gate.
  virtual void PerturbEventWakeupsForTest() {}

  // Test hook: the full-sweep reference. Pins the system's hot set to every
  // session and puts its SessionChannels in full-sweep mode (every session
  // reported alloc-dirty and served every slot), so each slot does what a
  // loop over all k sessions would. The differential harness
  // (tests/engine_equivalence_test.cc) holds pruned runs to the bytes of
  // this mode, and the engine checks the channel aggregates and bit
  // conservation against a full recount every slot while it is on.
  virtual void FullSweepForTest() {
    BW_REQUIRE(false, "FullSweepForTest: not implemented for this system");
  }

  // --- dynamic session churn (optional) ------------------------------------
  // True when the system supports mid-run session join/depart: an active-set
  // mask over its channel slots, queue drop + rate zeroing + lease
  // cancellation on departure. The engine refuses churn plans on systems
  // that opt out.
  virtual bool SupportsChurn() const { return false; }

  // `session` becomes active (admitted and its start slot arrived): unmask
  // it and, if the run has started, allocate its baseline regular rate.
  virtual void OnSessionJoin(Time /*now*/, std::int64_t /*session*/) {
    BW_REQUIRE(false, "OnSessionJoin: not implemented for this system");
  }

  // `session` leaves (departure, or pre-run deactivation of a slot that
  // has not been admitted yet): drop its queued bits, zero its committed
  // rates, cancel its pending leases/wakeups. Returns the bits dropped.
  virtual Bits OnSessionDepart(Time /*now*/, std::int64_t /*session*/) {
    BW_REQUIRE(false, "OnSessionDepart: not implemented for this system");
    return 0;
  }

  // --- checkpoint/restore (optional) ---------------------------------------
  // True when SaveState/LoadState round-trip the system's full state
  // (channels, stage machinery, leases, fault lanes). The engine refuses
  // to checkpoint systems that opt out.
  virtual bool SupportsCheckpoint() const { return false; }
  virtual void SaveState(StateWriter& /*w*/) const {
    BW_REQUIRE(false, "SaveState: not implemented for this system");
  }
  virtual void LoadState(StateReader& /*r*/) {
    BW_REQUIRE(false, "LoadState: not implemented for this system");
  }

 private:
  std::vector<SessionArrival> dense_step_arrivals_;  // reused by Step
};

// Counters the engine reports about its own sparsity; purely informational
// (never part of MultiRunResult, so results stay comparable between pruned
// and full-sweep runs). `touched_session_slots` is the denominator for the
// ns/slot-per-active-session bench metric.
struct EventEngineStats {
  std::int64_t touched_session_slots = 0;  // dirty-session visits, all slots
  std::int64_t arrival_events = 0;         // sparse arrival records fed
};

struct MultiEngineOptions {
  Time utilization_scan_window = 0;  // 0 disables the Lemma 5 scan
  Time drain_slots = 0;
  // Structured event tracing; also handed to the system via SetTracer.
  Tracer tracer;
  MetricsRegistry* metrics = nullptr;
  PhaseProfile* profile = nullptr;
  // Filled by RunMultiSessionEvent when non-null.
  EventEngineStats* event_stats = nullptr;
  // Optional live telemetry shard (nondeterministic lane); also handed to
  // the system via SetTelemetry. Null = no live metrics.
  telemetry::RuntimeShard* telemetry = nullptr;
  // Checkpoint capture / crash injection / resume (state/checkpoint.h).
  CheckpointOptions checkpoint;
  // Session churn (sim/churn.h): when non-null, the engine runs the
  // driver's lifecycle processing at the start of every slot and masks
  // arrivals by the live active set. Requires system.SupportsChurn(). The
  // driver's state rides inside the engine checkpoint.
  ChurnDriver* churn = nullptr;
};

// The multi-session engine. Each slot costs O(sessions touched), not O(k):
// the system is stepped with the slot's sparse arrivals, and only sessions
// whose allocation changed are scored.
MultiRunResult RunMultiSessionEvent(const SparseMultiTrace& sparse,
                                    MultiSessionSystem& system,
                                    const MultiEngineOptions& options = {});

// Dense-trace entry point: `traces[i]` is the arrival trace of session i;
// all traces must have equal length.
MultiRunResult RunMultiSessionEvent(
    const std::vector<std::vector<Bits>>& traces, MultiSessionSystem& system,
    const MultiEngineOptions& options = {});

}  // namespace bwalloc
