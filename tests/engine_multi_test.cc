#include "sim/engine_multi.h"

#include <gtest/gtest.h>

namespace bwalloc {
namespace {

// Minimal test system: fixed equal split of a given total.
class FixedSplitSystem final : public MultiSessionSystem {
 public:
  FixedSplitSystem(std::int64_t k, Bits total)
      : channels_(k, ServiceDiscipline::kTwoChannel), total_(total) {
    for (std::int64_t i = 0; i < k; ++i) {
      channels_.SetRegular(i, Bandwidth::FromBitsPerSlot(total) / k);
    }
  }

  void StepSparse(Time now,
                  std::span<const SessionArrival> arrivals) override {
    for (const SessionArrival& a : arrivals) {
      channels_.Enqueue(a.session, now, a.bits);
    }
    channels_.ServeActiveSlot(now);
  }

  const SessionChannels& channels() const override { return channels_; }
  std::int64_t stages() const override { return 0; }
  Bandwidth DeclaredTotalBandwidth() const override {
    return Bandwidth::FromBitsPerSlot(total_);
  }

 private:
  SessionChannels channels_;
  Bits total_;
};

TEST(EngineMulti, ConservationAndAggregation) {
  const std::vector<std::vector<Bits>> traces = {{4, 0, 4}, {0, 4, 0}};
  FixedSplitSystem sys(2, 8);
  MultiEngineOptions opt;
  opt.drain_slots = 5;
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);
  EXPECT_EQ(r.sessions, 2);
  EXPECT_EQ(r.total_arrivals, 12);
  EXPECT_EQ(r.total_delivered, 12);
  EXPECT_EQ(r.final_queue, 0);
  EXPECT_EQ(r.per_session_delay.size(), 2u);
  EXPECT_EQ(r.delay.total_bits(), 12);
  EXPECT_EQ(r.global_changes, 0);
  EXPECT_EQ(r.local_changes, 0);
}

TEST(EngineMulti, PeakAllocationsTracked) {
  const std::vector<std::vector<Bits>> traces = {{1}, {1}};
  FixedSplitSystem sys(2, 8);
  const MultiRunResult r = RunMultiSessionEvent(traces, sys);
  EXPECT_EQ(r.peak_regular_allocation, Bandwidth::FromBitsPerSlot(8));
  EXPECT_EQ(r.peak_total_allocation, Bandwidth::FromBitsPerSlot(8));
  EXPECT_TRUE(r.peak_overflow_allocation.is_zero());
}

TEST(EngineMulti, RejectsMismatchedTraces) {
  FixedSplitSystem sys(2, 8);
  const std::vector<std::vector<Bits>> bad_len = {{1, 2}, {1}};
  EXPECT_THROW(RunMultiSessionEvent(bad_len, sys), std::invalid_argument);
  const std::vector<std::vector<Bits>> bad_count = {{1}};
  EXPECT_THROW(RunMultiSessionEvent(bad_count, sys), std::invalid_argument);
}

}  // namespace
}  // namespace bwalloc
