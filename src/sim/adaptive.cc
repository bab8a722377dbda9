#include "sim/adaptive.h"

#include <algorithm>

#include "sim/bit_queue.h"
#include "sim/metrics.h"
#include "util/assert.h"

namespace bwalloc {

AdaptiveRunResult RunAdaptiveSingleSession(AdaptiveAdversary& adversary,
                                           SingleSessionAllocator& allocator,
                                           Time horizon,
                                           const SingleEngineOptions& options) {
  BW_REQUIRE(horizon >= 0, "RunAdaptiveSingleSession: negative horizon");
  AdaptiveRunResult result;
  result.trace.reserve(static_cast<std::size_t>(horizon));

  BitQueue queue;
  if (options.buffer_capacity > 0) queue.SetCapacity(options.buffer_capacity);
  ChangeCounter changes;
  UtilizationMeter util;
  Bandwidth last_bw;

  const Time total = horizon + options.drain_slots;
  result.run.horizon = total;
  if (options.record_allocation_trace) {
    result.run.allocation_trace.reserve(static_cast<std::size_t>(total));
  }

  for (Time t = 0; t < total; ++t) {
    const Bits in =
        t < horizon ? adversary.NextArrivals(t, last_bw) : Bits{0};
    BW_CHECK(in >= 0, "adversary produced negative arrivals");
    if (t < horizon) result.trace.push_back(in);
    queue.Enqueue(t, in);
    result.run.total_arrivals += in;

    const Bandwidth bw = allocator.OnSlot(t, in, queue.size());
    BW_CHECK(bw.raw() >= 0, "allocator returned negative bandwidth");
    changes.Observe(bw);
    util.Record(in, bw);
    if (bw > result.run.peak_allocation) result.run.peak_allocation = bw;
    if (options.record_allocation_trace) {
      result.run.allocation_trace.push_back(bw);
    }

    const Bits served = queue.ServeSlot(t, bw, &result.run.delay);
    result.run.total_delivered += served;
    allocator.OnServed(t, served, queue.size());
    last_bw = bw;
  }

  result.run.final_queue = queue.size();
  result.run.dropped = queue.dropped();
  result.run.peak_queue = queue.peak_size();
  result.run.changes = changes.transitions();
  result.run.stages = allocator.stages();
  result.run.global_utilization = util.GlobalUtilization();
  result.run.total_allocated_bits = util.TotalAllocatedBits();
  result.run.total_allocated_raw = util.TotalAllocatedRaw();
  if (options.utilization_scan_window > 0) {
    result.run.worst_best_window_utilization =
        util.WorstBestWindowUtilization(options.utilization_scan_window);
  }
  return result;
}

MultiAdaptiveRunResult RunAdaptiveMultiSession(
    MultiAdaptiveAdversary& adversary, MultiSessionSystem& system,
    Time horizon, const MultiEngineOptions& options) {
  BW_REQUIRE(horizon >= 0, "RunAdaptiveMultiSession: negative horizon");
  const auto k = static_cast<std::size_t>(system.channels().sessions());
  MultiAdaptiveRunResult result;
  result.traces.assign(k, {});

  UtilizationMeter util;
  ChangeCounter declared_total;
  std::vector<ChangeCounter> regular_counters(k);
  std::vector<ChangeCounter> overflow_counters(k);

  const Time total = horizon + options.drain_slots;
  result.run.sessions = static_cast<std::int64_t>(k);
  result.run.horizon = total;

  std::vector<Bits> arrivals(k, 0);
  for (Time t = 0; t < total; ++t) {
    if (t < horizon) {
      adversary.NextArrivals(t, system.channels(), arrivals);
    } else {
      std::fill(arrivals.begin(), arrivals.end(), Bits{0});
    }
    Bits slot_in = 0;
    for (std::size_t i = 0; i < k; ++i) {
      BW_CHECK(arrivals[i] >= 0, "adversary produced negative arrivals");
      if (t < horizon) result.traces[i].push_back(arrivals[i]);
      slot_in += arrivals[i];
    }

    system.Step(t, arrivals);

    const SessionChannels& ch = system.channels();
    Bandwidth allocated = system.ExtraAllocatedBandwidth();
    for (std::size_t i = 0; i < k; ++i) {
      const auto idx = static_cast<std::int64_t>(i);
      regular_counters[i].Observe(ch.regular_bw(idx));
      overflow_counters[i].Observe(ch.overflow_bw(idx));
      allocated += ch.regular_bw(idx) + ch.overflow_bw(idx);
    }
    declared_total.Observe(system.DeclaredTotalBandwidth());
    util.Record(slot_in, allocated);
    if (allocated > result.run.peak_total_allocation) {
      result.run.peak_total_allocation = allocated;
    }
    const Bandwidth reg = ch.TotalRegular();
    const Bandwidth ovf = ch.TotalOverflow();
    if (reg > result.run.peak_regular_allocation) {
      result.run.peak_regular_allocation = reg;
    }
    if (ovf > result.run.peak_overflow_allocation) {
      result.run.peak_overflow_allocation = ovf;
    }
  }

  const SessionChannels& ch = system.channels();
  result.run.total_arrivals = ch.total_arrivals();
  result.run.total_delivered =
      ch.total_delivered() + system.ExtraDeliveredBits();
  result.run.final_queue = ch.TotalQueued() + system.ExtraQueuedBits();
  result.run.per_session_delay = ch.SessionDelays();
  result.run.delay = ch.delay();
  if (const DelayHistogram* extra = system.ExtraDelayHistogram()) {
    result.run.delay.Merge(*extra);
  }
  for (std::size_t i = 0; i < k; ++i) {
    result.run.local_changes += regular_counters[i].transitions() +
                                overflow_counters[i].transitions();
  }
  result.run.global_changes = declared_total.transitions();
  result.run.stages = system.stages();
  result.run.global_stages = system.global_stages();
  result.run.global_utilization = util.GlobalUtilization();
  result.run.total_allocated_bits = util.TotalAllocatedBits();
  result.run.total_allocated_raw = util.TotalAllocatedRaw();
  return result;
}

}  // namespace bwalloc
