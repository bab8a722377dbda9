#include "util/histogram.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

namespace bwalloc {
namespace {

TEST(DelayHistogram, EmptyDefaults) {
  DelayHistogram h;
  EXPECT_EQ(h.total_bits(), 0);
  EXPECT_EQ(h.max_delay(), 0);
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_DOUBLE_EQ(h.MeanDelay(), 0.0);
}

TEST(DelayHistogram, BitWeightedStats) {
  DelayHistogram h;
  h.Record(0, 70);
  h.Record(10, 30);
  EXPECT_EQ(h.total_bits(), 100);
  EXPECT_EQ(h.max_delay(), 10);
  EXPECT_DOUBLE_EQ(h.MeanDelay(), 3.0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Percentile(0.7), 0);
  EXPECT_EQ(h.Percentile(0.71), 10);
  EXPECT_EQ(h.Percentile(1.0), 10);
}

TEST(DelayHistogram, ZeroBitsIgnored) {
  DelayHistogram h;
  h.Record(5, 0);
  EXPECT_EQ(h.total_bits(), 0);
  EXPECT_EQ(h.max_delay(), 0);
}

TEST(DelayHistogram, Merge) {
  DelayHistogram a;
  DelayHistogram b;
  a.Record(1, 10);
  b.Record(3, 10);
  a.Merge(b);
  EXPECT_EQ(a.total_bits(), 20);
  EXPECT_EQ(a.max_delay(), 3);
  EXPECT_DOUBLE_EQ(a.MeanDelay(), 2.0);
}

TEST(DelayHistogram, PreconditionsThrow) {
  DelayHistogram h;
  EXPECT_THROW(h.Record(-1, 5), std::invalid_argument);
  EXPECT_THROW(h.Record(1, -5), std::invalid_argument);
  EXPECT_THROW(h.Percentile(1.5), std::invalid_argument);
  EXPECT_THROW(h.Percentile(-0.1), std::invalid_argument);
}

TEST(DelayHistogram, PercentileZeroIsMinimumRecordedDelay) {
  DelayHistogram h;
  h.Record(3, 10);
  h.Record(7, 10);
  // No bit has delay 0, so p = 0 must be the smallest recorded delay,
  // not the vacuous 0.
  EXPECT_EQ(h.Percentile(0.0), 3);
  EXPECT_EQ(h.Percentile(1.0), 7);
}

TEST(DelayHistogram, PercentileEdgesOnEmptyHistogram) {
  DelayHistogram h;
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
}

TEST(DelayHistogram, PercentileOneIsMaxRecordedDelay) {
  DelayHistogram h;
  h.Record(0, 1);
  h.Record(12, 1);
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 12);
}

TEST(DelayHistogram, WeightedSumStaysExactPastInt64) {
  // Each product fits in int64 but the running sum does not: with a 64-bit
  // accumulator this overflows (UB); the 128-bit accumulator keeps the
  // mean exact.
  DelayHistogram h;
  const Bits big = 200'000'000'000'000'000;  // 2e17 bits
  h.Record(50, big);
  h.Record(100, big);  // weighted sum = 3e19 > INT64_MAX
  EXPECT_DOUBLE_EQ(h.MeanDelay(), 75.0);
  DelayHistogram other;
  other.Record(150, big);
  h.Merge(other);
  EXPECT_DOUBLE_EQ(h.MeanDelay(), 100.0);
}

TEST(DelaySummary, EmptyDefaults) {
  const DelaySummary s;
  EXPECT_EQ(s.total_bits(), 0);
  EXPECT_EQ(s.max_delay(), 0);
  EXPECT_DOUBLE_EQ(s.MeanDelay(), 0.0);
  EXPECT_EQ(s, DelayHistogram().summary());
}

// A summary and a histogram fed the same sequence agree on everything the
// summary keeps, including a zero-bit record's non-effect on the max.
TEST(DelaySummary, MatchesHistogramOnTheSameSequence) {
  const std::vector<std::pair<Time, Bits>> seq = {
      {3, 10}, {0, 5}, {17, 0}, {9, 1}, {3, 7}, {2, 200}};
  DelaySummary s;
  DelayHistogram h;
  for (const auto& [delay, bits] : seq) {
    s.Record(delay, bits);
    h.Record(delay, bits);
  }
  EXPECT_EQ(s.total_bits(), h.total_bits());
  EXPECT_EQ(s.max_delay(), h.max_delay());
  EXPECT_EQ(s.max_delay(), 9);
  EXPECT_DOUBLE_EQ(s.MeanDelay(), h.MeanDelay());
  EXPECT_EQ(s, h.summary());
}

TEST(DelaySummary, MergeMatchesHistogramMerge) {
  DelaySummary sa;
  DelaySummary sb;
  DelayHistogram ha;
  DelayHistogram hb;
  sa.Record(4, 8);
  ha.Record(4, 8);
  sb.Record(11, 3);
  hb.Record(11, 3);
  sa.Merge(sb);
  ha.Merge(hb);
  EXPECT_EQ(sa, ha.summary());
  EXPECT_EQ(sa.max_delay(), 11);
}

TEST(DelaySummary, StateRoundTrips) {
  DelaySummary s;
  s.Record(5, 200'000'000'000'000'000);
  s.Record(9, 200'000'000'000'000'000);  // weighted sum past INT64_MAX
  StateWriter w;
  s.SaveState(w);
  DelaySummary back;
  StateReader r(w.bytes());
  back.LoadState(r);
  r.ExpectEnd();
  EXPECT_EQ(back, s);
}

using DelayHistogramDeathTest = ::testing::Test;

TEST(DelayHistogramDeathTest, RecordBitCountOverflowAborts) {
  DelayHistogram h;
  h.Record(1, std::numeric_limits<Bits>::max() - 1);
  EXPECT_DEATH(h.Record(1, 2), "bit count overflow");
}

TEST(DelayHistogramDeathTest, MergeBitCountOverflowAborts) {
  DelayHistogram a;
  DelayHistogram b;
  a.Record(1, std::numeric_limits<Bits>::max() - 1);
  b.Record(2, 2);
  EXPECT_DEATH(a.Merge(b), "merge overflows");
}

}  // namespace
}  // namespace bwalloc
