// Striped runtime metric shard: the hot-path write surface.
//
// One RuntimeShard belongs to exactly one writer thread (an engine loop,
// a pool worker). Writes are relaxed atomic load+store pairs — a plain
// add in machine code, no locked RMW, no contention, no false sharing
// across shards (the shard is cache-line aligned and padded by the hub's
// deque storage). The snapshot side may read from any thread at any
// time; it sees a coherent-enough view because every cell is monotone
// or last-value, and exact totals are only claimed after the writers
// quiesce (end of run).
//
// The shard is the *live* surface. The deterministic *result* surface is
// the run result and its AggregateStats (merged in task-index order);
// nothing here feeds it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/telemetry/log_histogram.h"
#include "obs/telemetry/metric_ids.h"

namespace bwalloc::telemetry {

class alignas(64) RuntimeShard {
 public:
  void Add(Counter c, std::int64_t delta = 1) {
    auto& a = counters_[static_cast<std::size_t>(c)];
    a.store(a.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  void GaugeSet(Gauge g, std::int64_t value) {
    gauges_[static_cast<std::size_t>(g)].store(value,
                                               std::memory_order_relaxed);
  }

  void GaugeMax(Gauge g, std::int64_t value) {
    auto& a = gauges_[static_cast<std::size_t>(g)];
    if (value > a.load(std::memory_order_relaxed)) {
      a.store(value, std::memory_order_relaxed);
    }
  }

  void Record(Histo h, std::int64_t value) {
    histos_[static_cast<std::size_t>(h)].Record(value);
  }

  std::int64_t counter(Counter c) const {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  std::int64_t gauge(Gauge g) const {
    return gauges_[static_cast<std::size_t>(g)].load(
        std::memory_order_relaxed);
  }

  HistogramSnapshot histo(Histo h) const {
    return histos_[static_cast<std::size_t>(h)].Snapshot();
  }

 private:
  std::array<std::atomic<std::int64_t>, kCounterCount> counters_{};
  std::array<std::atomic<std::int64_t>, kGaugeCount> gauges_{};
  std::array<LogHistogram, kHistoCount> histos_{};
};

}  // namespace bwalloc::telemetry
