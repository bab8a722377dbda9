// FIFO queue of bits with per-chunk arrival stamps and fluid service.
//
// This is the end-station queue of the paper's model: bits enter when the
// session submits them and leave at the allocated bandwidth; the latency of
// a bit is the time between those two events. Service is fluid — a Q16
// credit accumulator carries the fractional remainder of the allocated
// bandwidth across slots, so fractional allocations (B_O / k) serve exactly
// the right long-run rate. Credits do not accumulate while the queue is
// empty (a real link cannot bank unused capacity).
//
// Storage is a vector-backed ring (head index + compaction) rather than a
// deque: a default-constructed deque allocates a spine eagerly, which at
// the event engine's million-session scale would burn hundreds of bytes
// per idle session. An empty BitQueue holds no heap allocation at all.
#pragma once

#include <cstddef>
#include <vector>

#include "state/serializer.h"
#include "util/assert.h"
#include "util/fixed_point.h"
#include "util/histogram.h"
#include "util/types.h"

namespace bwalloc {

class BitQueue {
 public:
  // Optional finite buffer: bits beyond the capacity are tail-dropped and
  // counted (the paper's "fourth parameter — data loss"; by default the
  // queue is infinite, matching the paper's assumption). Capacity 0 means
  // unbounded.
  void SetCapacity(Bits capacity) {
    BW_REQUIRE(capacity >= 0, "BitQueue::SetCapacity: negative capacity");
    capacity_ = capacity;
  }

  // Append bits that arrived at time `now`. Arrival stamps must be
  // non-decreasing (FIFO). Returns the bits actually admitted.
  Bits Enqueue(Time now, Bits bits) {
    BW_REQUIRE(bits >= 0, "BitQueue::Enqueue: negative bits");
    if (bits == 0) return 0;
    BW_CHECK(head_ == chunks_.size() || chunks_.back().arrival <= now,
             "BitQueue: arrival stamps must be non-decreasing");
    Bits admitted = bits;
    if (capacity_ > 0) {
      const Bits room = capacity_ - size_;
      if (admitted > room) {
        dropped_ += admitted - room;
        admitted = room;
      }
    }
    if (admitted == 0) return 0;
    if (head_ != chunks_.size() && chunks_.back().arrival == now) {
      chunks_.back().bits += admitted;
    } else {
      chunks_.push_back({now, admitted});
    }
    size_ += admitted;
    if (size_ > peak_size_) peak_size_ = size_;
    return admitted;
  }

  // Remove up to `max_bits` from the head (no service credits involved),
  // recording the delay (now - arrival) of each delivered bit into `hist`
  // and `summary` (each if non-null). Returns bits removed. Used directly
  // by FIFO-combined service across a session's two conceptual channels.
  Bits Take(Time now, Bits max_bits, DelayHistogram* hist,
            DelaySummary* summary = nullptr) {
    BW_REQUIRE(max_bits >= 0, "BitQueue::Take: negative amount");
    Bits remaining = max_bits;
    Bits served = 0;
    while (remaining > 0 && head_ != chunks_.size()) {
      Chunk& head = chunks_[head_];
      const Bits take = head.bits < remaining ? head.bits : remaining;
      if (hist != nullptr) hist->Record(now - head.arrival, take);
      if (summary != nullptr) summary->Record(now - head.arrival, take);
      head.bits -= take;
      remaining -= take;
      served += take;
      if (head.bits == 0) PopFront();
    }
    size_ -= served;
    return served;
  }

  // Serve one slot at rate `bw`, recording the delay (now - arrival) of each
  // delivered bit into `hist` and `summary` (each if non-null). Returns bits
  // delivered.
  Bits ServeSlot(Time now, Bandwidth bw, DelayHistogram* hist,
                 DelaySummary* summary = nullptr) {
    BW_REQUIRE(bw.raw() >= 0, "BitQueue::ServeSlot: negative bandwidth");
    credit_raw_ += bw.raw();
    const Bits deliverable = credit_raw_ >> Bandwidth::kShift;
    const Bits served = Take(now, deliverable, hist, summary);
    credit_raw_ -= served << Bandwidth::kShift;
    if (head_ == chunks_.size()) credit_raw_ = 0;  // no banking while idle
    return served;
  }

  // Move the entire content of this queue into `dst`, preserving arrival
  // stamps and keeping `dst` sorted by arrival (a stable merge — needed
  // when several sessions' queues drain into one shared queue, e.g. the
  // combined algorithm's GLOBAL RESET; the common move-to-tail case takes
  // the O(n) append fast path).
  void DrainInto(BitQueue& dst) {
    if (head_ == chunks_.size()) {
      Reset();
      return;
    }
    if (dst.head_ == dst.chunks_.size() ||
        dst.chunks_.back().arrival <= chunks_[head_].arrival) {
      for (std::size_t i = head_; i < chunks_.size(); ++i) {
        dst.Enqueue(chunks_[i].arrival, chunks_[i].bits);
      }
    } else {
      std::vector<Chunk> merged;
      merged.reserve((dst.chunks_.size() - dst.head_) +
                     (chunks_.size() - head_));
      auto a = dst.chunks_.begin() + static_cast<std::ptrdiff_t>(dst.head_);
      auto b = chunks_.begin() + static_cast<std::ptrdiff_t>(head_);
      while (a != dst.chunks_.end() && b != chunks_.end()) {
        if (a->arrival <= b->arrival) {
          merged.push_back(*a++);
        } else {
          merged.push_back(*b++);
        }
      }
      merged.insert(merged.end(), a, dst.chunks_.end());
      merged.insert(merged.end(), b, chunks_.end());
      dst.chunks_ = std::move(merged);
      dst.head_ = 0;
      dst.size_ += size_;
      if (dst.size_ > dst.peak_size_) dst.peak_size_ = dst.size_;
    }
    Reset();
  }

  Bits size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Bits dropped() const { return dropped_; }
  Bits peak_size() const { return peak_size_; }

  // Arrival time of the oldest bit still queued; kNoTime if empty.
  Time OldestArrival() const {
    return head_ == chunks_.size() ? kNoTime : chunks_[head_].arrival;
  }

  // Only live chunks are saved; a restored queue starts with head_ = 0,
  // which is behaviorally identical to the original (head_ is only a
  // storage detail of the ring).
  void SaveState(StateWriter& w) const {
    w.Tag("BQU1");
    w.U64(chunks_.size() - head_);
    for (std::size_t i = head_; i < chunks_.size(); ++i) {
      w.I64(chunks_[i].arrival);
      w.I64(chunks_[i].bits);
    }
    w.I64(size_);
    w.I64(capacity_);
    w.I64(dropped_);
    w.I64(peak_size_);
    w.I64(credit_raw_);
  }

  void LoadState(StateReader& r) {
    r.Tag("BQU1");
    chunks_.resize(r.Count(std::uint64_t{1} << 32));
    head_ = 0;
    Bits total = 0;
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      Chunk& c = chunks_[i];
      c.arrival = r.I64();
      c.bits = r.I64();
      // A corrupted payload can clear the CRC (it is recomputed on wrap)
      // yet violate the invariants Enqueue/Drain assert with BW_CHECK;
      // restoring such state must fail structurally, not abort later.
      if (c.bits <= 0) {
        throw StateFormatError("BitQueue: chunk bits must be positive");
      }
      if (i > 0 && chunks_[i - 1].arrival > c.arrival) {
        throw StateFormatError(
            "BitQueue: chunk arrival stamps must be non-decreasing");
      }
      total += c.bits;
    }
    size_ = r.I64();
    capacity_ = r.I64();
    dropped_ = r.I64();
    peak_size_ = r.I64();
    credit_raw_ = r.I64();
    if (size_ != total) {
      throw StateFormatError("BitQueue: size does not match chunk total");
    }
    if (dropped_ < 0 || peak_size_ < size_) {
      throw StateFormatError("BitQueue: negative or inconsistent counters");
    }
  }

 private:
  struct Chunk {
    Time arrival;
    Bits bits;
  };

  void PopFront() {
    ++head_;
    if (head_ == chunks_.size()) {
      chunks_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= chunks_.size()) {
      // Slide the live tail down so the dead prefix doesn't grow without
      // bound under steady enqueue/serve churn.
      chunks_.erase(chunks_.begin(),
                    chunks_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void Reset() {
    chunks_.clear();
    head_ = 0;
    size_ = 0;
    credit_raw_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t head_ = 0;  // index of the live front chunk
  Bits size_ = 0;
  Bits capacity_ = 0;   // 0 = unbounded
  Bits dropped_ = 0;
  Bits peak_size_ = 0;
  std::int64_t credit_raw_ = 0;
};

}  // namespace bwalloc
