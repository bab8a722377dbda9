// Multi-session engine.
//
// The per-slot cost is proportional to the number of sessions *touched*
// that slot, not to k. Three observations make that exact rather than
// approximate — each slot produces the trace bytes and result a scan over
// all k sessions would:
//
//   1. Allocation-change events and local-change counts depend only on
//      end-of-slot values per (session, channel). SessionChannels records
//      which sessions' bandwidth variables changed value during the slot
//      (the alloc-dirty list); comparing just those against a shadow copy
//      of last slot's values reproduces the per-session scan verbatim,
//      because an untouched session cannot have transitioned. The dirty
//      list is emitted in ascending session order (sorted before the
//      scan), matching a 0..k-1 iteration byte for byte.
//
//   2. Every aggregate the engine reads per slot (total regular/overflow
//      allocation, total queued bits, delivered bits) is an exact integer
//      sum maintained incrementally inside SessionChannels; integer sums
//      are order-independent, so the incremental values equal a recount.
//
//   3. Serving an empty session is a no-op in both disciplines (no bits
//      delivered, no credit banked), so the system's ServeActiveSlot —
//      which skips empty sessions — delivers exactly what a full scan does.
//
// The full-sweep test hook (MultiSessionSystem::FullSweepForTest) turns the
// pruning off: every session is dirty and served every slot. The engine
// then also re-checks observation 2 and bit conservation every slot.
#include <algorithm>
#include <vector>

#include "obs/telemetry/hub.h"
#include "sim/adaptive.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "sim/metrics.h"
#include "util/assert.h"

namespace bwalloc {

namespace {

void SaveEngineState(StateWriter& w, const UtilizationMeter& util,
                          const ChangeCounter& declared_total,
                          const std::vector<std::int64_t>& shadow_regular_raw,
                          const std::vector<std::int64_t>& shadow_overflow_raw,
                          Bits queue_hwm, const MultiRunResult& result,
                          const EventEngineStats& stats) {
  w.Tag("ENG1");
  util.SaveState(w);
  declared_total.SaveState(w);
  w.U64(shadow_regular_raw.size());
  for (std::size_t i = 0; i < shadow_regular_raw.size(); ++i) {
    w.I64(shadow_regular_raw[i]);
    w.I64(shadow_overflow_raw[i]);
  }
  w.I64(queue_hwm);
  w.I64(result.peak_total_allocation.raw());
  w.I64(result.peak_regular_allocation.raw());
  w.I64(result.peak_overflow_allocation.raw());
  w.I64(result.local_changes);
  w.I64(stats.touched_session_slots);
  w.I64(stats.arrival_events);
  w.I64(stats.session_serves);
  w.I64(stats.boundary_visits);
}

void LoadEngineState(StateReader& r, UtilizationMeter& util,
                          ChangeCounter& declared_total,
                          std::vector<std::int64_t>& shadow_regular_raw,
                          std::vector<std::int64_t>& shadow_overflow_raw,
                          Bits& queue_hwm, MultiRunResult& result,
                          EventEngineStats& stats) {
  r.Tag("ENG1");
  util.LoadState(r);
  declared_total.LoadState(r);
  const std::uint64_t n = r.U64();
  if (n != shadow_regular_raw.size()) {
    throw StateFormatError("session count mismatch in engine checkpoint");
  }
  for (std::size_t i = 0; i < shadow_regular_raw.size(); ++i) {
    shadow_regular_raw[i] = r.I64();
    shadow_overflow_raw[i] = r.I64();
  }
  queue_hwm = r.I64();
  result.peak_total_allocation = Bandwidth::FromRaw(r.I64());
  result.peak_regular_allocation = Bandwidth::FromRaw(r.I64());
  result.peak_overflow_allocation = Bandwidth::FromRaw(r.I64());
  result.local_changes = r.I64();
  stats.touched_session_slots = r.I64();
  stats.arrival_events = r.I64();
  stats.session_serves = r.I64();
  stats.boundary_visits = r.I64();
}

// Full-sweep mode only: the incremental aggregates against a recount over
// all sessions, and arrivals = delivered + queued + dropped (the combined
// algorithm's global channel holds the rest).
void CheckSlotInvariants(const SessionChannels& ch,
                         const MultiSessionSystem& system) {
  ch.CheckTotalsAgainstRecount();
  BW_CHECK(ch.total_arrivals() == ch.total_delivered() + ch.TotalQueued() +
                                      ch.total_dropped() +
                                      system.ExtraDeliveredBits() +
                                      system.ExtraQueuedBits(),
           "bit conservation violated: arrivals != delivered + queued + "
           "dropped");
}

// The nonzero entries of a dense per-session slot, ascending by session.
void GatherNonzero(std::span<const Bits> dense,
                   std::vector<SessionArrival>& out) {
  out.clear();
  for (std::size_t i = 0; i < dense.size(); ++i) {
    BW_REQUIRE(dense[i] >= 0, "dense arrival slot: negative bits");
    if (dense[i] > 0) out.push_back({static_cast<std::int64_t>(i), dense[i]});
  }
}

}  // namespace

void MultiSessionSystem::Step(Time now, std::span<const Bits> arrivals) {
  BW_REQUIRE(static_cast<std::int64_t>(arrivals.size()) ==
                 channels().sessions(),
             "MultiSessionSystem::Step: arrival vector size mismatch");
  GatherNonzero(arrivals, dense_step_arrivals_);
  StepSparse(now, dense_step_arrivals_);
}

SparseMultiTrace SparseMultiTrace::FromDense(
    const std::vector<std::vector<Bits>>& traces) {
  BW_REQUIRE(!traces.empty(), "SparseMultiTrace: need at least one trace");
  SparseMultiTrace out;
  out.sessions = static_cast<std::int64_t>(traces.size());
  out.horizon = static_cast<Time>(traces.front().size());
  for (const auto& tr : traces) {
    BW_REQUIRE(static_cast<Time>(tr.size()) == out.horizon,
               "SparseMultiTrace: traces must have equal length");
  }
  out.slot_offsets.reserve(static_cast<std::size_t>(out.horizon) + 1);
  out.slot_offsets.push_back(0);
  for (Time t = 0; t < out.horizon; ++t) {
    for (std::int64_t i = 0; i < out.sessions; ++i) {
      const Bits bits = traces[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(t)];
      BW_REQUIRE(bits >= 0, "SparseMultiTrace: negative arrivals");
      if (bits > 0) out.arrivals.push_back({i, bits});
    }
    out.slot_offsets.push_back(static_cast<std::int64_t>(out.arrivals.size()));
  }
  return out;
}

void SparseMultiTrace::Validate() const {
  BW_REQUIRE(sessions >= 1, "SparseMultiTrace: need at least one session");
  BW_REQUIRE(horizon >= 0, "SparseMultiTrace: negative horizon");
  BW_REQUIRE(static_cast<Time>(slot_offsets.size()) == horizon + 1,
             "SparseMultiTrace: slot_offsets must have horizon + 1 entries");
  BW_REQUIRE(slot_offsets.front() == 0 &&
                 slot_offsets.back() ==
                     static_cast<std::int64_t>(arrivals.size()),
             "SparseMultiTrace: slot_offsets must span arrivals");
  for (Time t = 0; t < horizon; ++t) {
    const std::int64_t lo = slot_offsets[static_cast<std::size_t>(t)];
    const std::int64_t hi = slot_offsets[static_cast<std::size_t>(t) + 1];
    BW_REQUIRE(lo <= hi, "SparseMultiTrace: slot_offsets must be monotone");
    std::int64_t prev_session = -1;
    for (std::int64_t a = lo; a < hi; ++a) {
      const SessionArrival& arr = arrivals[static_cast<std::size_t>(a)];
      BW_REQUIRE(arr.session >= 0 && arr.session < sessions,
                 "SparseMultiTrace: session id out of range");
      BW_REQUIRE(arr.session > prev_session,
                 "SparseMultiTrace: sessions must be ascending within a slot");
      BW_REQUIRE(arr.bits >= 0, "SparseMultiTrace: negative arrivals");
      prev_session = arr.session;
    }
  }
}

namespace {

// The slot loop. Slot t < source_len takes its sparse arrivals from
// next_slot(t); the loop is templated on that source, so the trace path
// pays no indirect call per slot.
template <class NextSlot>
MultiRunResult RunSlots(Time source_len, NextSlot&& next_slot,
                        MultiSessionSystem& system,
                        const MultiEngineOptions& options) {
  const SessionChannels& ch = system.channels();
  const std::int64_t k = ch.sessions();
  MultiRunResult result;
  result.sessions = k;
  const Time horizon = source_len + options.drain_slots;
  result.horizon = horizon;

  UtilizationMeter util;
  ChangeCounter declared_total;

  const Tracer& tracer = options.tracer;
  const bool tracing = tracer.active();
  if (tracing) system.SetTracer(tracer);
  telemetry::RuntimeShard* const tele = options.telemetry;
  if (tele != nullptr) {
    system.SetTelemetry(tele);
    tele->GaugeSet(telemetry::Gauge::kActiveSessions, k);
  }
  Bits queue_hwm = 0;

  EventEngineStats stats;
  const bool full_sweep = ch.full_sweep();
  ch.EnableAllocDirtyTracking();

  // Shadow copy of last slot's end-of-slot allocation values, one per
  // (session, channel) variable; Lemma 12's "3k changes per stage" counts
  // exactly their transitions. Initialized from the state after slot 0,
  // which counts no transition.
  std::vector<std::int64_t> shadow_regular_raw(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> shadow_overflow_raw(static_cast<std::size_t>(k),
                                                0);

  std::vector<std::int64_t> dirty;

  ChurnDriver* const churn = options.churn;
  if (churn != nullptr) {
    BW_REQUIRE(system.SupportsChurn(),
               "RunMultiSessionEvent: system does not support session churn");
  }
  std::vector<SessionArrival> masked;  // churn-filtered slot, reused

  const CheckpointOptions& ckpt = options.checkpoint;
  // One capture buffer for the whole run: each capture overwrites it in
  // place instead of regrowing a multi-megabyte payload from empty.
  StateWriter capture;
  if (ckpt.enabled()) {
    BW_REQUIRE(system.SupportsCheckpoint(),
               "RunMultiSessionEvent: system does not support checkpointing");
  }
  Time start = 0;
  if (ckpt.resume != nullptr) {
    // Checkpoints land after a finished slot, so the resume slot is >= 1
    // and the resumed loop never re-enters the t == 0 shadow
    // initialization.
    start = ResumeCheckpoint(
        *ckpt.resume, kMultiCheckpointKind, "RunMultiSessionEvent", 1,
        horizon, [&](StateReader& r) {
          LoadEngineState(r, util, declared_total, shadow_regular_raw,
                          shadow_overflow_raw, queue_hwm, result, stats);
          r.Tag("SYS1");
          system.LoadState(r);
          r.Tag("CHN1");
          if (r.Bool() != (churn != nullptr)) {
            throw StateFormatError(
                "churn configuration mismatch in checkpoint");
          }
          if (churn != nullptr) churn->LoadState(r);
        });
    if (ckpt.perturb_restore_for_test) shadow_regular_raw[0] += 1;
  } else if (churn != nullptr) {
    churn->Prepare(system);
  }

  for (Time t = start; t < horizon; ++t) {
    const bool step_sampled = tele != nullptr && (t & 63) == 0;
    const std::int64_t step_t0 =
        step_sampled ? telemetry::MonotonicNowNs() : 0;
    const std::int64_t touched_before = stats.touched_session_slots;
    const std::int64_t changes_before = result.local_changes;
    if (churn != nullptr) churn->BeginSlot(t, system, tracer, tele);
    std::span<const SessionArrival> slot =
        t < source_len ? next_slot(t) : std::span<const SessionArrival>();
    if (churn != nullptr) {
      // Offered traffic of sessions that are not currently admitted and
      // started (rejected, shed, booked-ahead, departed) never enters.
      masked.clear();
      for (const SessionArrival& a : slot) {
        if (churn->active(a.session)) masked.push_back(a);
      }
      slot = masked;
    }
    Bits slot_in = 0;
    for (const SessionArrival& a : slot) slot_in += a.bits;
    stats.arrival_events += static_cast<std::int64_t>(slot.size());

    const std::int64_t serves_before = ch.session_serves();
    const std::int64_t visits_before = system.boundary_visits();
    system.StepSparse(t, slot);
    stats.session_serves += ch.session_serves() - serves_before;
    stats.boundary_visits += system.boundary_visits() - visits_before;
    if (full_sweep) CheckSlotInvariants(ch, system);

    ch.DrainAllocDirty(&dirty);
    if (t == 0) {
      // First observation: initialize shadows, count no transitions.
      for (std::int64_t i = 0; i < k; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        shadow_regular_raw[idx] = ch.regular_bw(i).raw();
        shadow_overflow_raw[idx] = ch.overflow_bw(i).raw();
      }
      stats.touched_session_slots += k;
    } else {
      std::sort(dirty.begin(), dirty.end());
      stats.touched_session_slots += static_cast<std::int64_t>(dirty.size());
      for (const std::int64_t i : dirty) {
        const auto idx = static_cast<std::size_t>(i);
        const std::int64_t reg = ch.regular_bw(i).raw();
        if (reg != shadow_regular_raw[idx]) {
          if (tracing) {
            tracer.Emit(TraceEventType::kAllocChange, t, i,
                        shadow_regular_raw[idx], reg, kChanRegular);
          }
          shadow_regular_raw[idx] = reg;
          ++result.local_changes;
        }
        const std::int64_t ovf = ch.overflow_bw(i).raw();
        if (ovf != shadow_overflow_raw[idx]) {
          if (tracing) {
            tracer.Emit(TraceEventType::kAllocChange, t, i,
                        shadow_overflow_raw[idx], ovf, kChanOverflow);
          }
          shadow_overflow_raw[idx] = ovf;
          ++result.local_changes;
        }
      }
    }

    const Bandwidth reg_total = ch.TotalRegular();
    const Bandwidth ovf_total = ch.TotalOverflow();
    const Bandwidth allocated =
        system.ExtraAllocatedBandwidth() + reg_total + ovf_total;
    if (tracing) {
      tracer.Emit(TraceEventType::kSlotTick, t, -1, slot_in, ch.TotalQueued());
      if (declared_total.initialized() &&
          system.DeclaredTotalBandwidth() != declared_total.current()) {
        tracer.Emit(TraceEventType::kAllocChange, t, -1,
                    declared_total.current().raw(),
                    system.DeclaredTotalBandwidth().raw(), kChanTotal);
      }
      const Bits queued = ch.TotalQueued() + system.ExtraQueuedBits();
      if (queued > queue_hwm) {
        queue_hwm = queued;
        tracer.Emit(TraceEventType::kQueueHighWater, t, -1, queue_hwm);
      }
    }
    declared_total.Observe(system.DeclaredTotalBandwidth());
    util.Record(slot_in, allocated);

    if (allocated > result.peak_total_allocation) {
      result.peak_total_allocation = allocated;
    }
    if (reg_total > result.peak_regular_allocation) {
      result.peak_regular_allocation = reg_total;
    }
    if (ovf_total > result.peak_overflow_allocation) {
      result.peak_overflow_allocation = ovf_total;
    }

    if (tele != nullptr) {
      tele->Add(telemetry::Counter::kSlots);
      tele->Add(telemetry::Counter::kSessionsTouched,
                stats.touched_session_slots - touched_before);
      tele->Add(telemetry::Counter::kAllocChanges,
                result.local_changes - changes_before);
      if (step_sampled) {
        tele->Record(telemetry::Histo::kSlotStepNs,
                     telemetry::MonotonicNowNs() - step_t0);
      }
    }

    if (ckpt.every > 0 && (t + 1) % ckpt.every == 0) {
      CaptureCheckpoint(ckpt, tracer, kMultiCheckpointKind, t,
                        util.TotalAllocatedRaw(), capture,
                        [&](StateWriter& w) {
                          SaveEngineState(w, util, declared_total,
                                          shadow_regular_raw,
                                          shadow_overflow_raw, queue_hwm,
                                          result, stats);
                          w.Tag("SYS1");
                          system.SaveState(w);
                          w.Tag("CHN1");
                          w.Bool(churn != nullptr);
                          if (churn != nullptr) churn->SaveState(w);
                        });
    }
    if (t == ckpt.crash_at) throw CrashInjected(t);
  }

  result.total_arrivals = ch.total_arrivals();
  result.total_delivered = ch.total_delivered() + system.ExtraDeliveredBits();
  result.final_queue = ch.TotalQueued() + system.ExtraQueuedBits();
  result.per_session_delay = ch.SessionDelays();
  result.delay = ch.delay();
  if (const DelayHistogram* extra = system.ExtraDelayHistogram()) {
    result.delay.Merge(*extra);
  }
  result.global_changes = declared_total.transitions();
  result.stages = system.stages();
  result.global_stages = system.global_stages();
  if (churn != nullptr) result.churn = churn->stats();
  result.global_utilization = util.GlobalUtilization();
  result.total_allocated_bits = util.TotalAllocatedBits();
  result.total_allocated_raw = util.TotalAllocatedRaw();
  if (options.utilization_scan_window > 0) {
    result.worst_best_window_utilization =
        util.WorstBestWindowUtilization(options.utilization_scan_window);
  }

  if (options.event_stats != nullptr) *options.event_stats = stats;
  return result;
}

}  // namespace

MultiRunResult RunMultiSessionEvent(const SparseMultiTrace& sparse,
                                    MultiSessionSystem& system,
                                    const MultiEngineOptions& options) {
  sparse.Validate();
  BW_REQUIRE(sparse.sessions == system.channels().sessions(),
             "RunMultiSessionEvent: trace sessions != system sessions");
  return RunSlots(
      sparse.horizon, [&](Time t) { return sparse.Slot(t); }, system,
      options);
}

MultiRunResult RunMultiSessionEvent(
    const std::vector<std::vector<Bits>>& traces, MultiSessionSystem& system,
    const MultiEngineOptions& options) {
  return RunMultiSessionEvent(SparseMultiTrace::FromDense(traces), system,
                              options);
}

MultiAdaptiveRunResult RunAdaptiveMultiSession(
    MultiAdaptiveAdversary& adversary, MultiSessionSystem& system,
    Time horizon, const MultiEngineOptions& options) {
  BW_REQUIRE(horizon >= 0, "RunAdaptiveMultiSession: negative horizon");
  BW_REQUIRE(!options.checkpoint.enabled(),
             "RunAdaptiveMultiSession: adversary state is not checkpointed");
  const auto k = static_cast<std::size_t>(system.channels().sessions());
  MultiAdaptiveRunResult result;
  result.traces.assign(k, {});
  std::vector<Bits> dense(k, 0);
  std::vector<SessionArrival> sparse;
  result.run = RunSlots(
      horizon,
      [&](Time t) {
        adversary.NextArrivals(t, system.channels(), dense);
        for (std::size_t i = 0; i < k; ++i) {
          result.traces[i].push_back(dense[i]);
        }
        GatherNonzero(dense, sparse);
        return std::span<const SessionArrival>(sparse);
      },
      system, options);
  return result;
}

}  // namespace bwalloc
