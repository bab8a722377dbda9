#include "sim/engine_single.h"

#include "obs/telemetry/hub.h"
#include "sim/adaptive.h"
#include "sim/bit_queue.h"
#include "sim/metrics.h"
#include "util/assert.h"

namespace bwalloc {

namespace {

// The engine's own accumulators (everything the loop carries across slots
// besides the allocator), as one "ENG1" section.
void SaveSingleEngineState(StateWriter& w, const BitQueue& queue,
                           const ChangeCounter& changes,
                           const UtilizationMeter& util, Bits queue_hwm,
                           const SingleRunResult& result) {
  w.Tag("ENG1");
  queue.SaveState(w);
  changes.SaveState(w);
  util.SaveState(w);
  w.I64(queue_hwm);
  w.I64(result.total_arrivals);
  w.I64(result.total_delivered);
  result.delay.SaveState(w);
  w.I64(result.peak_allocation.raw());
  w.U64(result.allocation_trace.size());
  for (const Bandwidth bw : result.allocation_trace) w.I64(bw.raw());
}

void LoadSingleEngineState(StateReader& r, BitQueue& queue,
                           ChangeCounter& changes, UtilizationMeter& util,
                           Bits& queue_hwm, SingleRunResult& result) {
  r.Tag("ENG1");
  queue.LoadState(r);
  changes.LoadState(r);
  util.LoadState(r);
  queue_hwm = r.I64();
  result.total_arrivals = r.I64();
  result.total_delivered = r.I64();
  result.delay.LoadState(r);
  result.peak_allocation = Bandwidth::FromRaw(r.I64());
  const std::uint64_t n = r.Count(std::uint64_t{1} << 32);
  result.allocation_trace.clear();
  result.allocation_trace.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    result.allocation_trace.push_back(Bandwidth::FromRaw(r.I64()));
  }
}

// The slot loop. Slot t < source_len takes its arrivals from
// next_arrivals(t, allocation of slot t - 1); the loop is templated on that
// source, so the trace path pays no indirect call per slot.
template <class NextArrivals>
SingleRunResult RunSlots(Time source_len, NextArrivals&& next_arrivals,
                         SingleSessionAllocator& alloc,
                         const SingleEngineOptions& options) {
  SingleRunResult result;
  BitQueue queue;
  if (options.buffer_capacity > 0) queue.SetCapacity(options.buffer_capacity);
  ChangeCounter changes;
  UtilizationMeter util;

  const Time horizon = source_len + options.drain_slots;
  result.horizon = horizon;
  if (options.record_allocation_trace) {
    result.allocation_trace.reserve(static_cast<std::size_t>(horizon));
  }

  const Tracer& tracer = options.tracer;
  // One branch hoisted out of the per-event checks: when tracing is off
  // (the default) each slot pays exactly this bool test per event site.
  const bool tracing = tracer.active();
  telemetry::RuntimeShard* const tele = options.telemetry;
  if (tele != nullptr) tele->GaugeSet(telemetry::Gauge::kActiveSessions, 1);
  Bits queue_hwm = 0;

  const CheckpointOptions& ckpt = options.checkpoint;
  StateWriter capture;  // reused by every capture of the run
  if (ckpt.enabled()) {
    BW_REQUIRE(alloc.SupportsCheckpoint(),
               "RunSingleSession: allocator does not support checkpointing");
  }
  Time start = 0;
  if (ckpt.resume != nullptr) {
    start = ResumeCheckpoint(
        *ckpt.resume, kSingleCheckpointKind, "RunSingleSession", 0, horizon,
        [&](StateReader& r) {
          LoadSingleEngineState(r, queue, changes, util, queue_hwm, result);
          r.Tag("SYS1");
          alloc.LoadState(r);
        });
    if (ckpt.perturb_restore_for_test) changes.PerturbCurrentForTest();
  }

  for (Time t = start; t < horizon; ++t) {
    // Live lane: sampled wall timing (1 slot in 64) so the steady-state
    // cost is one pointer test + two relaxed stores per slot.
    const bool step_sampled = tele != nullptr && (t & 63) == 0;
    const std::int64_t step_t0 =
        step_sampled ? telemetry::MonotonicNowNs() : 0;
    const Bits in =
        t < source_len ? next_arrivals(t, changes.current()) : Bits{0};
    queue.Enqueue(t, in);
    result.total_arrivals += in;
    if (tracing) {
      tracer.Emit(TraceEventType::kSlotTick, t, -1, in, queue.size());
      if (queue.size() > queue_hwm) {
        queue_hwm = queue.size();
        tracer.Emit(TraceEventType::kQueueHighWater, t, -1, queue_hwm);
      }
    }

    const Bandwidth bw = alloc.OnSlot(t, in, queue.size());
    BW_CHECK(bw.raw() >= 0, "allocator returned negative bandwidth");
    const bool alloc_changed = changes.initialized() && bw != changes.current();
    if (tracing && alloc_changed) {
      tracer.Emit(TraceEventType::kAllocChange, t, -1, changes.current().raw(),
                  bw.raw(), kChanSingle);
    }
    changes.Observe(bw);
    util.Record(in, bw);
    if (bw > result.peak_allocation) result.peak_allocation = bw;
    if (options.record_allocation_trace) result.allocation_trace.push_back(bw);

    const Bits served = queue.ServeSlot(t, bw, &result.delay);
    result.total_delivered += served;
    alloc.OnServed(t, served, queue.size());

    if (tele != nullptr) {
      tele->Add(telemetry::Counter::kSlots);
      tele->Add(telemetry::Counter::kSessionsTouched);
      if (alloc_changed) tele->Add(telemetry::Counter::kAllocChanges);
      if (step_sampled) {
        tele->Record(telemetry::Histo::kSlotStepNs,
                     telemetry::MonotonicNowNs() - step_t0);
      }
    }

    if (ckpt.every > 0 && (t + 1) % ckpt.every == 0) {
      CaptureCheckpoint(ckpt, tracer, kSingleCheckpointKind, t,
                        util.TotalAllocatedRaw(), capture,
                        [&](StateWriter& w) {
                          SaveSingleEngineState(w, queue, changes, util,
                                                queue_hwm, result);
                          w.Tag("SYS1");
                          alloc.SaveState(w);
                        });
    }
    if (t == ckpt.crash_at) throw CrashInjected(t);
  }

  result.final_queue = queue.size();
  result.dropped = queue.dropped();
  result.peak_queue = queue.peak_size();
  if (tele != nullptr) {
    tele->GaugeMax(telemetry::Gauge::kPeakQueueBits, result.peak_queue);
  }
  result.changes = changes.transitions();
  result.stages = alloc.stages();
  result.global_utilization = util.GlobalUtilization();
  result.total_allocated_bits = util.TotalAllocatedBits();
  result.total_allocated_raw = util.TotalAllocatedRaw();
  if (options.utilization_scan_window > 0) {
    result.worst_best_window_utilization =
        util.WorstBestWindowUtilization(options.utilization_scan_window);
  }
  return result;
}

}  // namespace

SingleRunResult RunSingleSession(const std::vector<Bits>& arrivals,
                                 SingleSessionAllocator& alloc,
                                 const SingleEngineOptions& options) {
  return RunSlots(
      static_cast<Time>(arrivals.size()),
      [&](Time t, Bandwidth /*last*/) {
        const Bits in = arrivals[static_cast<std::size_t>(t)];
        BW_REQUIRE(in >= 0, "RunSingleSession: negative arrivals in trace");
        return in;
      },
      alloc, options);
}

AdaptiveRunResult RunAdaptiveSingleSession(AdaptiveAdversary& adversary,
                                           SingleSessionAllocator& allocator,
                                           Time horizon,
                                           const SingleEngineOptions& options) {
  BW_REQUIRE(horizon >= 0, "RunAdaptiveSingleSession: negative horizon");
  BW_REQUIRE(!options.checkpoint.enabled(),
             "RunAdaptiveSingleSession: adversary state is not checkpointed");
  AdaptiveRunResult result;
  result.trace.reserve(static_cast<std::size_t>(horizon));
  result.run = RunSlots(
      horizon,
      [&](Time t, Bandwidth last) {
        const Bits in = adversary.NextArrivals(t, last);
        BW_CHECK(in >= 0, "adversary produced negative arrivals");
        result.trace.push_back(in);
        return in;
      },
      allocator, options);
  return result;
}

}  // namespace bwalloc
