#include "sim/engine_single.h"

#include <string>

#include "obs/telemetry/hub.h"
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

}  // namespace

SingleRunResult RunSingleSession(const std::vector<Bits>& arrivals,
                                 SingleSessionAllocator& alloc,
                                 const SingleEngineOptions& options) {
  SingleRunResult result;
  BitQueue queue;
  if (options.buffer_capacity > 0) queue.SetCapacity(options.buffer_capacity);
  ChangeCounter changes;
  UtilizationMeter util;

  const Time trace_len = static_cast<Time>(arrivals.size());
  const Time horizon = trace_len + options.drain_slots;
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
  if (ckpt.enabled()) {
    BW_REQUIRE(alloc.SupportsCheckpoint(),
               "RunSingleSession: allocator does not support checkpointing");
  }
  Time start = 0;
  if (ckpt.resume != nullptr) {
    const std::string payload = UnwrapCheckpoint(*ckpt.resume, "resume blob");
    try {
      StateReader r(payload);
      CheckpointMeta meta;
      meta.Load(r);
      if (meta.kind != kSingleCheckpointKind) {
        throw CheckpointError("checkpoint resume blob: kind is '" + meta.kind +
                              "', this engine resumes 'single' checkpoints");
      }
      BW_REQUIRE(meta.next_slot >= 0 && meta.next_slot <= horizon,
                 "RunSingleSession: checkpoint resume slot outside horizon");
      LoadSingleEngineState(r, queue, changes, util, queue_hwm, result);
      r.Tag("SYS1");
      alloc.LoadState(r);
      r.ExpectEnd();
      start = meta.next_slot;
    } catch (const StateFormatError& e) {
      throw CheckpointError(std::string("checkpoint resume blob: ") +
                            e.what());
    }
    if (ckpt.perturb_restore_for_test) changes.PerturbCurrentForTest();
  }

  {
    ScopedTimer loop_timer(options.profile, "engine_single.loop");
    for (Time t = start; t < horizon; ++t) {
      // Live lane: sampled wall timing (1 slot in 64) so the steady-state
      // cost is one pointer test + two relaxed stores per slot.
      const bool step_sampled = tele != nullptr && (t & 63) == 0;
      const std::int64_t step_t0 =
          step_sampled ? telemetry::MonotonicNowNs() : 0;
      const Bits in =
          t < trace_len ? arrivals[static_cast<std::size_t>(t)] : Bits{0};
      BW_REQUIRE(in >= 0, "RunSingleSession: negative arrivals in trace");
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
      const bool alloc_changed =
          changes.initialized() && bw != changes.current();
      if (tracing && alloc_changed) {
        tracer.Emit(TraceEventType::kAllocChange, t, -1,
                    changes.current().raw(), bw.raw(), kChanSingle);
      }
      changes.Observe(bw);
      util.Record(in, bw);
      if (bw > result.peak_allocation) result.peak_allocation = bw;
      if (options.record_allocation_trace) {
        result.allocation_trace.push_back(bw);
      }

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
        // The checkpoint event is journaled *before* the journal position
        // is captured, so a recovering run's replayed prefix ends with it
        // and the auditor sees the same event stream either way.
        tracer.Emit(TraceEventType::kCheckpoint, t, -1,
                    util.TotalAllocatedRaw(), t + 1);
        CheckpointMeta meta;
        meta.kind = kSingleCheckpointKind;
        meta.next_slot = t + 1;
        if (tracer.sink() != nullptr) {
          meta.trace_events = tracer.sink()->events_written();
          meta.journal_bytes = tracer.sink()->bytes_written();
        }
        meta.committed_total_raw = util.TotalAllocatedRaw();
        StateWriter w;
        meta.Save(w);
        SaveSingleEngineState(w, queue, changes, util, queue_hwm, result);
        w.Tag("SYS1");
        alloc.SaveState(w);
        PublishCheckpoint(ckpt, w.bytes());
      }
      if (t == ckpt.crash_at) throw CrashInjected(t);
    }
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
    ScopedTimer scan_timer(options.profile, "engine_single.util_scan");
    result.worst_best_window_utilization =
        util.WorstBestWindowUtilization(options.utilization_scan_window);
  }

  return result;
}

}  // namespace bwalloc
