// Adaptive (online) adversary support.
//
// The paper's lower bounds ("we prove that the competitive ratios for the
// single user case are tight") are established by adversaries that react
// to the online algorithm's allocations. A materialized trace cannot do
// that, so an adversary is the engines' other arrival source: the
// RunAdaptive* entry points (defined beside the slot loops in
// engine_single.cc and engine_multi.cc) run the same loop as the trace
// entry points, with the next slot's arrivals generated from what the
// algorithm held in the previous slot, and return the generated trace so
// the offline comparators can be run on exactly the instance the
// adversary produced. Every engine option applies, except that checkpoint
// options are refused (std::invalid_argument): the adversary's state is
// not checkpointed.
#pragma once

#include <span>
#include <vector>

#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "sim/session_channels.h"
#include "util/fixed_point.h"
#include "util/types.h"

namespace bwalloc {

class AdaptiveAdversary {
 public:
  virtual ~AdaptiveAdversary() = default;

  // Arrivals for slot `now`, knowing the allocation in effect during the
  // previous slot (zero bandwidth before the first slot).
  virtual Bits NextArrivals(Time now, Bandwidth last_allocation) = 0;
};

struct AdaptiveRunResult {
  SingleRunResult run;
  std::vector<Bits> trace;  // the instance the adversary generated
};

AdaptiveRunResult RunAdaptiveSingleSession(
    AdaptiveAdversary& adversary, SingleSessionAllocator& allocator,
    Time horizon, const SingleEngineOptions& options = {});

// Multi-session counterpart: the adversary sees the per-session channel
// state (allocations, queues) from the previous slot and picks each
// session's arrivals.
class MultiAdaptiveAdversary {
 public:
  virtual ~MultiAdaptiveAdversary() = default;

  // Fill `arrivals` (one entry per session) for slot `now`. `channels` is
  // the system's state after the previous slot (construction state before
  // the first).
  virtual void NextArrivals(Time now, const SessionChannels& channels,
                            std::span<Bits> arrivals) = 0;
};

struct MultiAdaptiveRunResult {
  MultiRunResult run;
  std::vector<std::vector<Bits>> traces;
};

MultiAdaptiveRunResult RunAdaptiveMultiSession(
    MultiAdaptiveAdversary& adversary, MultiSessionSystem& system,
    Time horizon, const MultiEngineOptions& options = {});

}  // namespace bwalloc
