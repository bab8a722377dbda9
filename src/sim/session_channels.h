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
// Each session's state (both queues, both rates, the FIFO credit, its delay
// summary and its active-list flag) is one record in one vector, so serving
// a session touches one contiguous block. Delays go two ways: every
// delivered bit is recorded into one aggregate DelayHistogram (the run's
// distribution) and into its session's DelaySummary (total, mean and max:
// all a result reads per session).
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
    session_.resize(sessions_);
  }

  std::int64_t sessions() const {
    return static_cast<std::int64_t>(sessions_);
  }

  // --- arrivals -------------------------------------------------------------
  void Enqueue(std::int64_t i, Time now, Bits bits) {
    Session& s = session_[Idx(i)];
    const Bits admitted = s.regular.Enqueue(now, bits);
    total_arrivals_ += bits;
    total_queued_ += admitted;
    if (admitted > 0 && !s.in_active) {
      s.in_active = true;
      active_.push_back(i);
    }
  }

  // --- allocation -----------------------------------------------------------
  void SetRegular(std::int64_t i, Bandwidth bw) {
    Bandwidth& cur = session_[Idx(i)].regular_bw;
    if (cur.raw() == bw.raw()) return;
    total_regular_raw_ += bw.raw() - cur.raw();
    MarkAllocDirty(i);
    cur = bw;
  }
  void SetOverflow(std::int64_t i, Bandwidth bw) {
    Bandwidth& cur = session_[Idx(i)].overflow_bw;
    if (cur.raw() == bw.raw()) return;
    total_overflow_raw_ += bw.raw() - cur.raw();
    MarkAllocDirty(i);
    cur = bw;
  }
  void AddOverflow(std::int64_t i, Bandwidth delta) {
    if (delta.raw() == 0) return;
    Bandwidth& cur = session_[Idx(i)].overflow_bw;
    cur += delta;
    BW_CHECK(cur.raw() >= 0, "overflow bandwidth went negative");
    total_overflow_raw_ += delta.raw();
    MarkAllocDirty(i);
  }

  Bandwidth regular_bw(std::int64_t i) const {
    return session_[Idx(i)].regular_bw;
  }
  Bandwidth overflow_bw(std::int64_t i) const {
    return session_[Idx(i)].overflow_bw;
  }
  Bandwidth TotalRegular() const {
    return Bandwidth::FromRaw(total_regular_raw_);
  }
  Bandwidth TotalOverflow() const {
    return Bandwidth::FromRaw(total_overflow_raw_);
  }

  // --- queues ---------------------------------------------------------------
  Bits regular_queue_size(std::int64_t i) const {
    return session_[Idx(i)].regular.size();
  }
  Bits overflow_queue_size(std::int64_t i) const {
    return session_[Idx(i)].overflow.size();
  }
  Bits TotalQueued() const { return total_queued_; }

  // Fig. 4 / Fig. 5: "move the content of Q_r to Q_o". Queued totals and
  // the active list are unchanged: the bits stay within the session.
  void MoveRegularToOverflow(std::int64_t i) {
    Session& s = session_[Idx(i)];
    s.regular.DrainInto(s.overflow);
  }

  // GLOBAL RESET of the combined algorithm: drain every queue of session i
  // into an external queue. The session goes quiescent; its active-list
  // entry (if any) is reaped lazily by the next ServeActiveSlot.
  void DrainSessionInto(std::int64_t i, BitQueue& dst) {
    Session& s = session_[Idx(i)];
    total_queued_ -= s.overflow.size() + s.regular.size();
    s.overflow.DrainInto(dst);
    s.regular.DrainInto(dst);
  }

  // Mid-run departure: discard everything session i still has queued and
  // zero its FIFO credit. The dropped bits leave the conservation ledger
  // through total_dropped_ (arrivals = delivered + queued + dropped). The
  // session's active-list entry (if any) is reaped lazily, exactly like
  // DrainSessionInto. Bandwidth variables are the caller's to zero (the
  // transitions must flow through SetRegular/SetOverflow so the trace
  // shadows see them).
  Bits DropSession(std::int64_t i) {
    Session& s = session_[Idx(i)];
    const Bits dropped = s.regular.size() + s.overflow.size();
    if (dropped > 0) {
      BitQueue scratch;
      s.regular.DrainInto(scratch);
      s.overflow.DrainInto(scratch);
      total_queued_ -= dropped;
      total_dropped_ += dropped;
    }
    s.fifo_credit_raw = 0;
    return dropped;
  }

  Bits total_dropped() const { return total_dropped_; }

  // --- service ---------------------------------------------------------------
  // Serve all sessions for slot `now`. Returns total bits delivered.
  Bits ServeSlot(Time now) {
    Bits served = 0;
    for (Session& s : session_) served += ServeSession(s, now);
    session_serves_ += static_cast<std::int64_t>(sessions_);
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
      Session& s = session_[static_cast<std::size_t>(i)];
      served += ServeSession(s, now);
      if (s.regular.empty() && s.overflow.empty()) {
        s.in_active = false;
      } else {
        active_[w++] = i;
      }
    }
    session_serves_ += static_cast<std::int64_t>(active_.size());
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

  // Recounts TotalRegular/TotalOverflow/TotalQueued and the delivered bits
  // over all sessions and aborts on any mismatch with the incremental
  // values: the aggregate delay histogram, the per-session summaries and
  // the delivered counter must all hold the same number of bits.
  void CheckTotalsAgainstRecount() const {
    std::int64_t regular_raw = 0;
    std::int64_t overflow_raw = 0;
    Bits queued = 0;
    Bits summarized = 0;
    for (const Session& s : session_) {
      regular_raw += s.regular_bw.raw();
      overflow_raw += s.overflow_bw.raw();
      queued += s.regular.size() + s.overflow.size();
      summarized += s.delay.total_bits();
    }
    BW_CHECK(regular_raw == total_regular_raw_,
             "TotalRegular differs from a recount over all sessions");
    BW_CHECK(overflow_raw == total_overflow_raw_,
             "TotalOverflow differs from a recount over all sessions");
    BW_CHECK(queued == total_queued_,
             "TotalQueued differs from a recount over all sessions");
    BW_CHECK(summarized == total_delivered_,
             "per-session delay summaries differ from the delivered bits");
    BW_CHECK(delay_.total_bits() == total_delivered_,
             "aggregate delay histogram differs from the delivered bits");
  }

  // --- measurement ------------------------------------------------------------
  // Delays of every bit delivered by any session.
  const DelayHistogram& delay() const { return delay_; }
  const DelaySummary& session_delay(std::int64_t i) const {
    return session_[Idx(i)].delay;
  }
  // Copies of every session's summary, in session order. O(k).
  std::vector<DelaySummary> SessionDelays() const {
    std::vector<DelaySummary> out;
    out.reserve(sessions_);
    for (const Session& s : session_) out.push_back(s.delay);
    return out;
  }
  Bits total_arrivals() const { return total_arrivals_; }
  Bits total_delivered() const { return total_delivered_; }

  // Work counter: sessions served so far (each session a serve pass
  // visited, per slot). Observer metadata: not checkpointed.
  std::int64_t session_serves() const { return session_serves_; }

  // Checkpoints are captured at slot boundaries, where the dirty tracker is
  // always drained — so only the durable state travels; the in_active
  // flags are rebuilt from active_ (they are two views of one set).
  void SaveState(StateWriter& w) const {
    w.Tag("SCH1");
    w.U64(sessions_);
    for (const Session& s : session_) {
      s.regular.SaveState(w);
      s.overflow.SaveState(w);
      w.I64(s.regular_bw.raw());
      w.I64(s.overflow_bw.raw());
      w.I64(s.fifo_credit_raw);
      s.delay.SaveState(w);
    }
    delay_.SaveState(w);
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
    for (Session& s : session_) {
      s.regular.LoadState(r);
      s.overflow.LoadState(r);
      s.regular_bw = Bandwidth::FromRaw(r.I64());
      s.overflow_bw = Bandwidth::FromRaw(r.I64());
      s.fifo_credit_raw = r.I64();
      s.delay.LoadState(r);
      s.in_active = false;
    }
    delay_.LoadState(r);
    total_arrivals_ = r.I64();
    total_delivered_ = r.I64();
    total_dropped_ = r.I64();
    total_regular_raw_ = r.I64();
    total_overflow_raw_ = r.I64();
    total_queued_ = r.I64();
    active_.resize(r.Count(sessions_));
    for (std::int64_t& i : active_) {
      i = r.I64();
      if (i < 0 || static_cast<std::size_t>(i) >= sessions_) {
        throw StateFormatError("active session index out of range");
      }
      session_[static_cast<std::size_t>(i)].in_active = true;
    }
  }

 private:
  // One session's whole state. The flag sits before the 16-byte-aligned
  // summary, in padding, rather than after it.
  struct Session {
    BitQueue regular;
    BitQueue overflow;
    Bandwidth regular_bw;
    Bandwidth overflow_bw;
    std::int64_t fifo_credit_raw = 0;
    bool in_active = false;  // listed in active_
    DelaySummary delay;
  };

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
      Session& s = session_[static_cast<std::size_t>(active_[r])];
      if (s.regular.empty() && s.overflow.empty()) {
        s.in_active = false;
      } else {
        active_[w++] = active_[r];
      }
    }
    active_.resize(w);
  }

  Bits ServeSession(Session& s, Time now) {
    DelayHistogram* hist = &delay_;
    DelaySummary* summary = &s.delay;
    if (discipline_ == ServiceDiscipline::kTwoChannel) {
      Bits served = s.overflow.ServeSlot(now, s.overflow_bw, hist, summary);
      served += s.regular.ServeSlot(now, s.regular_bw, hist, summary);
      return served;
    }
    // FIFO-combined: overflow bits are always older than regular bits (every
    // move empties the regular queue), so overflow-first is arrival order.
    s.fifo_credit_raw += (s.regular_bw + s.overflow_bw).raw();
    Bits deliverable = s.fifo_credit_raw >> Bandwidth::kShift;
    Bits served = s.overflow.Take(now, deliverable, hist, summary);
    served += s.regular.Take(now, deliverable - served, hist, summary);
    s.fifo_credit_raw -= served << Bandwidth::kShift;
    if (s.overflow.empty() && s.regular.empty()) s.fifo_credit_raw = 0;
    return served;
  }

  ServiceDiscipline discipline_;
  std::size_t sessions_;
  std::vector<Session> session_;
  DelayHistogram delay_;  // every delivered bit, all sessions
  Bits total_arrivals_ = 0;
  Bits total_delivered_ = 0;
  Bits total_dropped_ = 0;
  std::int64_t total_regular_raw_ = 0;
  std::int64_t total_overflow_raw_ = 0;
  Bits total_queued_ = 0;
  std::vector<std::int64_t> active_;
  std::int64_t session_serves_ = 0;
  bool full_sweep_ = false;
  mutable bool track_alloc_dirty_ = false;
  mutable std::vector<char> alloc_dirty_flag_;
  mutable std::vector<std::int64_t> alloc_dirty_;
};

}  // namespace bwalloc
