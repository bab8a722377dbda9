// Single-session run engine.
//
// Per slot t: (1) arrivals are enqueued, (2) the allocator is asked for this
// slot's bandwidth, (3) the queue is served at that rate, (4) the allocator
// observes the post-service queue (the Fig. 3 RESET needs the "queue became
// empty" event). The engine owns all measurement so that every allocator —
// paper algorithm or baseline — is scored identically.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry/shard.h"
#include "obs/tracer.h"
#include "sim/run_result.h"
#include "state/checkpoint.h"
#include "state/serializer.h"
#include "util/assert.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {

// Interface implemented by the paper's single-session algorithms and by the
// baseline allocators.
class SingleSessionAllocator {
 public:
  virtual ~SingleSessionAllocator() = default;

  // Decide this slot's bandwidth. `arrivals` = bits that just arrived,
  // `queue` = backlog including them.
  virtual Bandwidth OnSlot(Time now, Bits arrivals, Bits queue) = 0;

  // Observe the outcome of this slot's service.
  virtual void OnServed(Time /*now*/, Bits /*served*/, Bits /*queue_after*/) {}

  // Completed stages (each is a certified offline change, Lemma 1); 0 for
  // allocators without a stage structure.
  virtual std::int64_t stages() const { return 0; }

  // --- checkpoint/restore (optional) ---------------------------------------
  // True when SaveState/LoadState round-trip the allocator's full decision
  // state. The engine refuses to checkpoint allocators that opt out.
  virtual bool SupportsCheckpoint() const { return false; }
  virtual void SaveState(StateWriter& /*w*/) const {
    BW_REQUIRE(false, "SaveState: not implemented for this allocator");
  }
  virtual void LoadState(StateReader& /*r*/) {
    BW_REQUIRE(false, "LoadState: not implemented for this allocator");
  }
};

struct SingleEngineOptions {
  bool record_allocation_trace = false;
  // Finite end-station buffer in bits; overflow is tail-dropped and counted
  // (0 = unbounded, the paper's assumption).
  Bits buffer_capacity = 0;
  // Window used for the Lemma 5 utilization measurement (W + 5*D_O in the
  // paper); 0 disables the (quadratic) scan.
  Time utilization_scan_window = 0;
  // Extra empty-arrival slots appended after the trace so queued bits drain.
  Time drain_slots = 0;
  // Structured event tracing. Default-constructed = disabled: the hot loop
  // pays one branch on the tracer's null sink and nothing else.
  Tracer tracer;
  // Optional live telemetry shard (nondeterministic lane: slot counters,
  // sampled slot-step latency). Null = no live metrics, zero hot-path cost
  // beyond one pointer test per slot.
  telemetry::RuntimeShard* telemetry = nullptr;
  // Checkpoint capture / crash injection / resume (state/checkpoint.h).
  CheckpointOptions checkpoint;
};

// Runs `alloc` over the arrival trace (one entry per slot).
SingleRunResult RunSingleSession(const std::vector<Bits>& arrivals,
                                 SingleSessionAllocator& alloc,
                                 const SingleEngineOptions& options = {});

}  // namespace bwalloc
