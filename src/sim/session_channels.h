// Per-session regular/overflow channel machinery shared by the
// multi-session algorithms (Figs. 4 and 5) and the combined algorithm.
//
// Each session i owns a regular queue Q_r[i] fed by its arrivals and an
// overflow queue Q_o[i] that receives the regular queue's content when the
// algorithm "moves" it; each queue has its own bandwidth variable. Service
// is either per-channel (the paper's two conceptual channels) or
// FIFO-combined (the Remark after Theorem 14: serve the overflow queue —
// whose bits are always older — first, at the session's total rate).
//
// The aggregate views (TotalRegular/TotalOverflow/TotalQueued) are
// maintained incrementally as exact integer sums, so the engine reads them
// in O(1); integer addition is order-independent, so the incremental values
// are bit-identical to a recount over all k sessions (full-sweep mode
// re-checks exactly that every slot). Two further structures exist purely
// for the engine's sparse stepping:
//   - an active-session list (sessions with any queued bits) that lets
//     ServeActiveSlot skip sessions for which ServeSession is provably a
//     no-op (empty queues never deliver and never bank credit);
//   - an optional allocation-dirty list recording which sessions' bandwidth
//     variables changed this slot, drained by the engine's trace-emission
//     shadow compare. Tracking state is observer metadata, hence mutable —
//     the engine only holds a const reference.
// Full-sweep mode (a test hook, see MultiSessionSystem::FullSweepForTest)
// bypasses both: every session is served and reported dirty every slot.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/bit_queue.h"
#include "state/serializer.h"
#include "util/assert.h"
#include "util/fixed_point.h"
#include "util/histogram.h"
#include "util/types.h"

namespace bwalloc {

enum class ServiceDiscipline {
  kTwoChannel,     // regular and overflow served at their own rates
  kFifoCombined,   // one FIFO served at the summed rate (paper's Remark)
};

class SessionChannels {
 public:
  SessionChannels(std::int64_t sessions, ServiceDiscipline discipline)
      : discipline_(discipline),
        sessions_(static_cast<std::size_t>(sessions)) {
    BW_REQUIRE(sessions >= 1, "SessionChannels: need at least one session");
    regular_queue_.resize(sessions_);
    overflow_queue_.resize(sessions_);
    regular_bw_.resize(sessions_);
    overflow_bw_.resize(sessions_);
    fifo_credit_raw_.resize(sessions_, 0);
    delay_.resize(sessions_);
    in_active_.resize(sessions_, 0);
  }

  std::int64_t sessions() const {
    return static_cast<std::int64_t>(sessions_);
  }

  // --- arrivals -------------------------------------------------------------
  void Enqueue(std::int64_t i, Time now, Bits bits) {
    const std::size_t idx = Idx(i);
    const Bits admitted = regular_queue_[idx].Enqueue(now, bits);
    total_arrivals_ += bits;
    total_queued_ += admitted;
    if (admitted > 0 && in_active_[idx] == 0) {
      in_active_[idx] = 1;
      active_.push_back(i);
    }
  }

  // --- allocation -----------------------------------------------------------
  void SetRegular(std::int64_t i, Bandwidth bw) {
    Bandwidth& cur = regular_bw_[Idx(i)];
    if (cur.raw() == bw.raw()) return;
    total_regular_raw_ += bw.raw() - cur.raw();
    MarkAllocDirty(i);
    cur = bw;
  }
  void SetOverflow(std::int64_t i, Bandwidth bw) {
    Bandwidth& cur = overflow_bw_[Idx(i)];
    if (cur.raw() == bw.raw()) return;
    total_overflow_raw_ += bw.raw() - cur.raw();
    MarkAllocDirty(i);
    cur = bw;
  }
  void AddOverflow(std::int64_t i, Bandwidth delta) {
    if (delta.raw() == 0) return;
    Bandwidth& cur = overflow_bw_[Idx(i)];
    cur += delta;
    BW_CHECK(cur.raw() >= 0, "overflow bandwidth went negative");
    total_overflow_raw_ += delta.raw();
    MarkAllocDirty(i);
  }

  Bandwidth regular_bw(std::int64_t i) const { return regular_bw_[Idx(i)]; }
  Bandwidth overflow_bw(std::int64_t i) const { return overflow_bw_[Idx(i)]; }
  Bandwidth TotalRegular() const {
    return Bandwidth::FromRaw(total_regular_raw_);
  }
  Bandwidth TotalOverflow() const {
    return Bandwidth::FromRaw(total_overflow_raw_);
  }

  // --- queues ---------------------------------------------------------------
  Bits regular_queue_size(std::int64_t i) const {
    return regular_queue_[Idx(i)].size();
  }
  Bits overflow_queue_size(std::int64_t i) const {
    return overflow_queue_[Idx(i)].size();
  }
  Bits TotalQueued() const { return total_queued_; }

  // Fig. 4 / Fig. 5: "move the content of Q_r to Q_o". Queued totals and
  // the active list are unchanged: the bits stay within the session.
  void MoveRegularToOverflow(std::int64_t i) {
    regular_queue_[Idx(i)].DrainInto(overflow_queue_[Idx(i)]);
  }

  // GLOBAL RESET of the combined algorithm: drain every queue of session i
  // into an external queue. The session goes quiescent; its active-list
  // entry (if any) is reaped lazily by the next ServeActiveSlot.
  void DrainSessionInto(std::int64_t i, BitQueue& dst) {
    const std::size_t idx = Idx(i);
    total_queued_ -= overflow_queue_[idx].size() + regular_queue_[idx].size();
    overflow_queue_[idx].DrainInto(dst);
    regular_queue_[idx].DrainInto(dst);
  }

  // Mid-run departure: discard everything session i still has queued and
  // zero its FIFO credit. The dropped bits leave the conservation ledger
  // through total_dropped_ (arrivals = delivered + queued + dropped). The
  // session's active-list entry (if any) is reaped lazily, exactly like
  // DrainSessionInto. Bandwidth variables are the caller's to zero (the
  // transitions must flow through SetRegular/SetOverflow so the trace
  // shadows see them).
  Bits DropSession(std::int64_t i) {
    const std::size_t idx = Idx(i);
    const Bits dropped =
        regular_queue_[idx].size() + overflow_queue_[idx].size();
    if (dropped > 0) {
      BitQueue scratch;
      regular_queue_[idx].DrainInto(scratch);
      overflow_queue_[idx].DrainInto(scratch);
      total_queued_ -= dropped;
      total_dropped_ += dropped;
    }
    fifo_credit_raw_[idx] = 0;
    return dropped;
  }

  Bits total_dropped() const { return total_dropped_; }

  // --- service ---------------------------------------------------------------
  // Serve all sessions for slot `now`. Returns total bits delivered.
  Bits ServeSlot(Time now) {
    Bits served = 0;
    for (std::size_t i = 0; i < sessions_; ++i) {
      served += ServeSession(i, now);
    }
    CompactActive();
    total_delivered_ += served;
    total_queued_ -= served;
    return served;
  }

  // Serve only sessions with queued bits; identical delivery to ServeSlot
  // because an empty session delivers nothing and banks no credit (both
  // disciplines zero their credit when the queues are empty). Sessions that
  // drain during the pass are dropped from the active list.
  Bits ServeActiveSlot(Time now) {
    if (full_sweep_) return ServeSlot(now);
    Bits served = 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < active_.size(); ++r) {
      const std::int64_t i = active_[r];
      const std::size_t idx = static_cast<std::size_t>(i);
      served += ServeSession(idx, now);
      if (regular_queue_[idx].empty() && overflow_queue_[idx].empty()) {
        in_active_[idx] = 0;
      } else {
        active_[w++] = i;
      }
    }
    active_.resize(w);
    total_delivered_ += served;
    total_queued_ -= served;
    return served;
  }

  // --- event-engine support ---------------------------------------------------
  // Turns on allocation-dirty tracking. From this point every session whose
  // regular/overflow bandwidth actually changes value is recorded (once)
  // until the next DrainAllocDirty.
  void EnableAllocDirtyTracking() const {
    track_alloc_dirty_ = true;
    alloc_dirty_flag_.assign(sessions_, 0);
    alloc_dirty_.clear();
  }

  // Moves the accumulated dirty-session list into `out` (unsorted) and
  // resets the tracker for the next slot. In full-sweep mode `out` is every
  // session, ascending.
  void DrainAllocDirty(std::vector<std::int64_t>* out) const {
    out->clear();
    out->swap(alloc_dirty_);
    for (const std::int64_t i : *out) {
      alloc_dirty_flag_[static_cast<std::size_t>(i)] = 0;
    }
    if (full_sweep_) {
      out->resize(sessions_);
      std::iota(out->begin(), out->end(), std::int64_t{0});
    }
  }

  // --- full-sweep reference (test hook) -------------------------------------
  void EnableFullSweepForTest() { full_sweep_ = true; }
  bool full_sweep() const { return full_sweep_; }

  // Recounts TotalRegular/TotalOverflow/TotalQueued over all sessions and
  // aborts on any mismatch with the incremental values.
  void CheckTotalsAgainstRecount() const {
    std::int64_t regular_raw = 0;
    std::int64_t overflow_raw = 0;
    Bits queued = 0;
    for (std::size_t i = 0; i < sessions_; ++i) {
      regular_raw += regular_bw_[i].raw();
      overflow_raw += overflow_bw_[i].raw();
      queued += regular_queue_[i].size() + overflow_queue_[i].size();
    }
    BW_CHECK(regular_raw == total_regular_raw_,
             "TotalRegular differs from a recount over all sessions");
    BW_CHECK(overflow_raw == total_overflow_raw_,
             "TotalOverflow differs from a recount over all sessions");
    BW_CHECK(queued == total_queued_,
             "TotalQueued differs from a recount over all sessions");
  }

  // --- measurement ------------------------------------------------------------
  const DelayHistogram& session_delay(std::int64_t i) const {
    return delay_[Idx(i)];
  }
  const std::vector<DelayHistogram>& all_delays() const { return delay_; }
  Bits total_arrivals() const { return total_arrivals_; }
  Bits total_delivered() const { return total_delivered_; }

  // Checkpoints are captured at slot boundaries, where the dirty tracker is
  // always drained — so only the durable state travels; in_active_ is
  // rebuilt from active_ (they are two views of one set).
  void SaveState(StateWriter& w) const {
    w.Tag("SCH1");
    w.U64(sessions_);
    for (std::size_t i = 0; i < sessions_; ++i) {
      regular_queue_[i].SaveState(w);
      overflow_queue_[i].SaveState(w);
      w.I64(regular_bw_[i].raw());
      w.I64(overflow_bw_[i].raw());
      w.I64(fifo_credit_raw_[i]);
      delay_[i].SaveState(w);
    }
    w.I64(total_arrivals_);
    w.I64(total_delivered_);
    w.I64(total_dropped_);
    w.I64(total_regular_raw_);
    w.I64(total_overflow_raw_);
    w.I64(total_queued_);
    w.U64(active_.size());
    for (const std::int64_t i : active_) w.I64(i);
  }

  void LoadState(StateReader& r) {
    r.Tag("SCH1");
    const std::uint64_t n = r.U64();
    if (n != sessions_) {
      throw StateFormatError("session count mismatch in checkpoint");
    }
    for (std::size_t i = 0; i < sessions_; ++i) {
      regular_queue_[i].LoadState(r);
      overflow_queue_[i].LoadState(r);
      regular_bw_[i] = Bandwidth::FromRaw(r.I64());
      overflow_bw_[i] = Bandwidth::FromRaw(r.I64());
      fifo_credit_raw_[i] = r.I64();
      delay_[i].LoadState(r);
    }
    total_arrivals_ = r.I64();
    total_delivered_ = r.I64();
    total_dropped_ = r.I64();
    total_regular_raw_ = r.I64();
    total_overflow_raw_ = r.I64();
    total_queued_ = r.I64();
    active_.resize(r.Count(sessions_));
    in_active_.assign(sessions_, 0);
    for (std::int64_t& i : active_) {
      i = r.I64();
      if (i < 0 || static_cast<std::size_t>(i) >= sessions_) {
        throw StateFormatError("active session index out of range");
      }
      in_active_[static_cast<std::size_t>(i)] = 1;
    }
  }

 private:
  std::size_t Idx(std::int64_t i) const {
    BW_CHECK(i >= 0 && static_cast<std::size_t>(i) < sessions_,
             "session index out of range");
    return static_cast<std::size_t>(i);
  }

  void MarkAllocDirty(std::int64_t i) {
    if (!track_alloc_dirty_) return;
    auto& flag = alloc_dirty_flag_[static_cast<std::size_t>(i)];
    if (flag) return;
    flag = 1;
    alloc_dirty_.push_back(i);
  }

  // Drops active-list entries whose session went empty through a path that
  // bypasses ServeActiveSlot (the full ServeSlot).
  void CompactActive() {
    std::size_t w = 0;
    for (std::size_t r = 0; r < active_.size(); ++r) {
      const std::size_t idx = static_cast<std::size_t>(active_[r]);
      if (regular_queue_[idx].empty() && overflow_queue_[idx].empty()) {
        in_active_[idx] = 0;
      } else {
        active_[w++] = active_[r];
      }
    }
    active_.resize(w);
  }

  Bits ServeSession(std::size_t i, Time now) {
    DelayHistogram* hist = &delay_[i];
    if (discipline_ == ServiceDiscipline::kTwoChannel) {
      Bits served = overflow_queue_[i].ServeSlot(now, overflow_bw_[i], hist);
      served += regular_queue_[i].ServeSlot(now, regular_bw_[i], hist);
      return served;
    }
    // FIFO-combined: overflow bits are always older than regular bits (every
    // move empties the regular queue), so overflow-first is arrival order.
    fifo_credit_raw_[i] += (regular_bw_[i] + overflow_bw_[i]).raw();
    Bits deliverable = fifo_credit_raw_[i] >> Bandwidth::kShift;
    Bits served = overflow_queue_[i].Take(now, deliverable, hist);
    served += regular_queue_[i].Take(now, deliverable - served, hist);
    fifo_credit_raw_[i] -= served << Bandwidth::kShift;
    if (overflow_queue_[i].empty() && regular_queue_[i].empty()) {
      fifo_credit_raw_[i] = 0;
    }
    return served;
  }

  ServiceDiscipline discipline_;
  std::size_t sessions_;
  std::vector<BitQueue> regular_queue_;
  std::vector<BitQueue> overflow_queue_;
  std::vector<Bandwidth> regular_bw_;
  std::vector<Bandwidth> overflow_bw_;
  std::vector<std::int64_t> fifo_credit_raw_;
  std::vector<DelayHistogram> delay_;
  Bits total_arrivals_ = 0;
  Bits total_delivered_ = 0;
  Bits total_dropped_ = 0;
  std::int64_t total_regular_raw_ = 0;
  std::int64_t total_overflow_raw_ = 0;
  Bits total_queued_ = 0;
  std::vector<std::int64_t> active_;
  std::vector<char> in_active_;
  bool full_sweep_ = false;
  mutable bool track_alloc_dirty_ = false;
  mutable std::vector<char> alloc_dirty_flag_;
  mutable std::vector<std::int64_t> alloc_dirty_;
};

}  // namespace bwalloc
