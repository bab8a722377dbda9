// Bit-weighted delay histogram.
//
// Delays in the slotted model are small non-negative integers (bounded by
// D_A on correct runs), so a dense vector of counters indexed by delay is
// both exact and fast. Percentiles are weighted by bits, matching the
// paper's "maximum over all bits" latency definition (max = 100th pct).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "state/serializer.h"
#include "util/assert.h"
#include "util/types.h"

namespace bwalloc {

// The part of a delay distribution that needs no per-delay counters:
// total bits, the bit-weighted delay sum and the maximum delay. It is what
// a multi-session run keeps per session; DelayHistogram adds the counters
// on top of one of these.
class DelaySummary {
 public:
  void Record(Time delay, Bits bits) {
    BW_REQUIRE(delay >= 0, "DelayHistogram: negative delay");
    BW_REQUIRE(bits >= 0, "DelayHistogram: negative bits");
    if (bits == 0) return;
    BW_CHECK(bits <= std::numeric_limits<Bits>::max() - total_bits_,
             "DelayHistogram: bit count overflow");
    total_bits_ += bits;
    // The weighted sum is 128-bit: delay * bits alone can approach the
    // int64 range, and merged soak runs accumulate many such products.
    weighted_sum_ += static_cast<Int128>(delay) * static_cast<Int128>(bits);
    if (delay > max_delay_) max_delay_ = delay;
  }

  Bits total_bits() const { return total_bits_; }
  Time max_delay() const { return total_bits_ == 0 ? 0 : max_delay_; }

  double MeanDelay() const {
    return total_bits_ == 0
               ? 0.0
               : static_cast<double>(weighted_sum_) /
                     static_cast<double>(total_bits_);
  }

  friend bool operator==(const DelaySummary&, const DelaySummary&) = default;

  void Merge(const DelaySummary& other) {
    BW_CHECK(other.total_bits_ <=
                 std::numeric_limits<Bits>::max() - total_bits_,
             "DelayHistogram: merge overflows the bit count");
    total_bits_ += other.total_bits_;
    weighted_sum_ += other.weighted_sum_;
    if (other.max_delay_ > max_delay_) max_delay_ = other.max_delay_;
  }

  // Untagged: it travels inside a tagged record (a histogram's HIS1, or a
  // session's record in the channels' SCH1).
  void SaveState(StateWriter& w) const {
    w.I64(total_bits_);
    // The 128-bit weighted sum travels as a lo/hi u64 pair.
    const auto u = static_cast<Uint128>(weighted_sum_);
    w.U64(static_cast<std::uint64_t>(u));
    w.U64(static_cast<std::uint64_t>(u >> 64));
    w.I64(max_delay_);
  }

  void LoadState(StateReader& r) {
    total_bits_ = r.I64();
    const std::uint64_t lo = r.U64();
    const std::uint64_t hi = r.U64();
    weighted_sum_ =
        static_cast<Int128>((static_cast<Uint128>(hi) << 64) | lo);
    max_delay_ = r.I64();
  }

 private:
  Int128 weighted_sum_ = 0;  // 128-bit: exact across merged soak runs
  Bits total_bits_ = 0;
  Time max_delay_ = 0;
};

class DelayHistogram {
 public:
  void Record(Time delay, Bits bits) {
    // The summary validates and guards the total; no bucket can exceed
    // the total, so the bucket add below cannot overflow either.
    summary_.Record(delay, bits);
    if (bits == 0) return;
    const auto d = static_cast<std::size_t>(delay);
    if (d >= counts_.size()) counts_.resize(d + 1, 0);
    counts_[d] += bits;
  }

  const DelaySummary& summary() const { return summary_; }
  Bits total_bits() const { return summary_.total_bits(); }
  Time max_delay() const { return summary_.max_delay(); }
  double MeanDelay() const { return summary_.MeanDelay(); }

  // Smallest delay d such that at least p (in (0,1]) of all bits have
  // delay <= d; p = 0 is defined as the minimum recorded delay (NOT the
  // vacuous d = 0, which no bit may have).
  Time Percentile(double p) const {
    BW_REQUIRE(p >= 0.0 && p <= 1.0, "Percentile: p out of range");
    if (total_bits() == 0) return 0;
    const double target = p * static_cast<double>(total_bits());
    Bits acc = 0;
    for (std::size_t d = 0; d < counts_.size(); ++d) {
      acc += counts_[d];
      // Requiring a non-empty bucket makes p = 0 the minimum recorded
      // delay; for p > 0 the target is only ever crossed at a non-empty
      // bucket, so the extra condition changes nothing.
      if (counts_[d] > 0 && static_cast<double>(acc) >= target) {
        return static_cast<Time>(d);
      }
    }
    return max_delay();
  }

  // Exact structural equality (counts can never hold trailing zeros, so
  // equal content implies equal representation).
  friend bool operator==(const DelayHistogram&,
                         const DelayHistogram&) = default;

  void Merge(const DelayHistogram& other) {
    summary_.Merge(other.summary_);
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (std::size_t d = 0; d < other.counts_.size(); ++d) {
      counts_[d] += other.counts_[d];
    }
  }

  void SaveState(StateWriter& w) const {
    w.Tag("HIS1");
    w.U64(counts_.size());
    for (const Bits c : counts_) w.I64(c);
    summary_.SaveState(w);
  }

  void LoadState(StateReader& r) {
    r.Tag("HIS1");
    counts_.assign(r.Count(std::uint64_t{1} << 32), 0);
    for (Bits& c : counts_) c = r.I64();
    summary_.LoadState(r);
  }

 private:
  std::vector<Bits> counts_;
  DelaySummary summary_;
};

}  // namespace bwalloc
