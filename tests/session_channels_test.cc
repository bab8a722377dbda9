#include "sim/session_channels.h"

#include <vector>

#include <gtest/gtest.h>

namespace bwalloc {
namespace {

TEST(SessionChannels, TwoChannelServiceIsIndependent) {
  SessionChannels ch(2, ServiceDiscipline::kTwoChannel);
  ch.Enqueue(0, 0, 10);
  ch.Enqueue(1, 0, 10);
  ch.SetRegular(0, Bandwidth::FromBitsPerSlot(10));
  ch.SetRegular(1, Bandwidth::FromBitsPerSlot(2));
  EXPECT_EQ(ch.ServeSlot(0), 12);
  EXPECT_EQ(ch.regular_queue_size(0), 0);
  EXPECT_EQ(ch.regular_queue_size(1), 8);
  EXPECT_EQ(ch.total_delivered(), 12);
  EXPECT_EQ(ch.total_arrivals(), 20);
}

TEST(SessionChannels, MoveRegularToOverflow) {
  SessionChannels ch(1, ServiceDiscipline::kTwoChannel);
  ch.Enqueue(0, 0, 7);
  ch.MoveRegularToOverflow(0);
  EXPECT_EQ(ch.regular_queue_size(0), 0);
  EXPECT_EQ(ch.overflow_queue_size(0), 7);
  ch.SetOverflow(0, Bandwidth::FromBitsPerSlot(7));
  EXPECT_EQ(ch.ServeSlot(1), 7);
  // Delay stamp survives the move: bit arrived at 0, served at 1.
  EXPECT_EQ(ch.session_delay(0).max_delay(), 1);
}

TEST(SessionChannels, FifoCombinedServesOverflowFirst) {
  SessionChannels ch(1, ServiceDiscipline::kFifoCombined);
  ch.Enqueue(0, 0, 4);
  ch.MoveRegularToOverflow(0);
  ch.Enqueue(0, 1, 4);
  ch.SetRegular(0, Bandwidth::FromBitsPerSlot(2));
  ch.SetOverflow(0, Bandwidth::FromBitsPerSlot(2));
  // Combined rate 4: serves the (older) overflow bits first.
  EXPECT_EQ(ch.ServeSlot(1), 4);
  EXPECT_EQ(ch.overflow_queue_size(0), 0);
  EXPECT_EQ(ch.regular_queue_size(0), 4);
  EXPECT_EQ(ch.ServeSlot(2), 4);
  // Oldest bits (arrival 0) served at t=1 -> delay 1; newest at t=2 -> 1.
  EXPECT_EQ(ch.session_delay(0).max_delay(), 1);
}

TEST(SessionChannels, TotalsAcrossSessions) {
  SessionChannels ch(3, ServiceDiscipline::kTwoChannel);
  ch.SetRegular(0, Bandwidth::FromBitsPerSlot(1));
  ch.SetRegular(1, Bandwidth::FromBitsPerSlot(2));
  ch.SetOverflow(2, Bandwidth::FromBitsPerSlot(4));
  EXPECT_EQ(ch.TotalRegular(), Bandwidth::FromBitsPerSlot(3));
  EXPECT_EQ(ch.TotalOverflow(), Bandwidth::FromBitsPerSlot(4));
  ch.Enqueue(0, 0, 5);
  ch.Enqueue(2, 0, 5);
  EXPECT_EQ(ch.TotalQueued(), 10);
}

// Delivered bits are recorded twice: into the one aggregate histogram and
// into the serving session's summary. Both account for every delivered
// bit, and merging the summaries gives the aggregate's summary.
TEST(SessionChannels, AggregateDelayMatchesSessionSummaries) {
  SessionChannels ch(3, ServiceDiscipline::kTwoChannel);
  ch.SetRegular(0, Bandwidth::FromBitsPerSlot(2));
  ch.SetRegular(1, Bandwidth::FromBitsPerSlot(5));
  ch.Enqueue(0, 0, 6);  // served 2 per slot: delays 0, 1, 2
  ch.Enqueue(1, 0, 5);  // served at once: delay 0
  ch.Enqueue(1, 1, 4);  // served at once: delay 0
  for (Time t = 0; t < 4; ++t) ch.ServeActiveSlot(t);
  EXPECT_EQ(ch.total_delivered(), 15);
  EXPECT_EQ(ch.delay().total_bits(), 15);
  EXPECT_EQ(ch.delay().max_delay(), 2);
  EXPECT_EQ(ch.delay().Percentile(0.5), 0);
  EXPECT_EQ(ch.session_delay(0).total_bits(), 6);
  EXPECT_EQ(ch.session_delay(0).max_delay(), 2);
  EXPECT_DOUBLE_EQ(ch.session_delay(0).MeanDelay(), 1.0);
  EXPECT_EQ(ch.session_delay(1).total_bits(), 9);
  EXPECT_EQ(ch.session_delay(1).max_delay(), 0);
  EXPECT_EQ(ch.session_delay(2).total_bits(), 0);
  const std::vector<DelaySummary> all = ch.SessionDelays();
  ASSERT_EQ(all.size(), 3u);
  DelaySummary merged;
  for (const DelaySummary& d : all) merged.Merge(d);
  EXPECT_EQ(merged, ch.delay().summary());
  ch.CheckTotalsAgainstRecount();
}

TEST(SessionChannels, AddOverflowAccumulatesAndChecksSign) {
  SessionChannels ch(1, ServiceDiscipline::kTwoChannel);
  ch.AddOverflow(0, Bandwidth::FromBitsPerSlot(3));
  ch.AddOverflow(0, Bandwidth::FromBitsPerSlot(2));
  EXPECT_EQ(ch.overflow_bw(0), Bandwidth::FromBitsPerSlot(5));
  ch.AddOverflow(0, Bandwidth::Zero() - Bandwidth::FromBitsPerSlot(5));
  EXPECT_TRUE(ch.overflow_bw(0).is_zero());
}

TEST(SessionChannels, DrainSessionInto) {
  SessionChannels ch(1, ServiceDiscipline::kTwoChannel);
  ch.Enqueue(0, 0, 3);
  ch.MoveRegularToOverflow(0);
  ch.Enqueue(0, 1, 4);
  BitQueue global;
  ch.DrainSessionInto(0, global);
  EXPECT_EQ(global.size(), 7);
  EXPECT_EQ(ch.TotalQueued(), 0);
  EXPECT_EQ(global.OldestArrival(), 0);
}

TEST(SessionChannels, RequiresAtLeastOneSession) {
  EXPECT_THROW(SessionChannels(0, ServiceDiscipline::kTwoChannel),
               std::invalid_argument);
}

}  // namespace
}  // namespace bwalloc
