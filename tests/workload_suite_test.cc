#include "traffic/workload_suite.h"

#include <gtest/gtest.h>
#include <numeric>

#include "traffic/shaper.h"

namespace bwalloc {
namespace {

constexpr Bits kBo = 64;
constexpr Time kDo = 8;

TEST(WorkloadSuite, AllSingleWorkloadsAreFeasible) {
  for (const NamedTrace& w : SingleSessionSuite(kBo, kDo, 2000, 17)) {
    SCOPED_TRACE(w.name);
    EXPECT_EQ(w.trace.size(), 2000u);
    EXPECT_TRUE(SatisfiesArrivalCurve(w.trace, kBo, kDo, /*max_window=*/256));
    const Bits total =
        std::accumulate(w.trace.begin(), w.trace.end(), Bits{0});
    EXPECT_GT(total, 0) << "workload generated no traffic";
  }
}

TEST(WorkloadSuite, DeterministicBySeed) {
  const auto a = SingleSessionWorkload("pareto", kBo, kDo, 500, 3);
  const auto b = SingleSessionWorkload("pareto", kBo, kDo, 500, 3);
  const auto c = SingleSessionWorkload("pareto", kBo, kDo, 500, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(WorkloadSuite, UnknownNameThrows) {
  EXPECT_THROW(SingleSessionWorkload("nope", kBo, kDo, 10, 1),
               std::invalid_argument);
}

class MultiWorkloadTest
    : public ::testing::TestWithParam<MultiWorkloadKind> {};

TEST_P(MultiWorkloadTest, AggregateIsFeasibleAndShaped) {
  const std::int64_t k = 5;
  const auto traces = MultiSessionWorkload(GetParam(), k, kBo, kDo, 1500, 7);
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(k));
  std::vector<Bits> agg(traces[0].size(), 0);
  Bits total = 0;
  for (const auto& tr : traces) {
    ASSERT_EQ(tr.size(), agg.size());
    for (std::size_t t = 0; t < tr.size(); ++t) {
      ASSERT_GE(tr[t], 0);
      agg[t] += tr[t];
      total += tr[t];
    }
  }
  EXPECT_TRUE(SatisfiesArrivalCurve(agg, kBo, kDo, /*max_window=*/256));
  EXPECT_GT(total, 0);
}

TEST_P(MultiWorkloadTest, EverySessionSendsSomething) {
  const auto traces =
      MultiSessionWorkload(GetParam(), 4, kBo, kDo, 4000, 11);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const Bits total =
        std::accumulate(traces[i].begin(), traces[i].end(), Bits{0});
    EXPECT_GT(total, 0) << "session " << i << " silent";
  }
}

// FNV-1a over the little-endian bytes of every value, session-major.
std::uint64_t TraceDigest(const std::vector<std::vector<Bits>>& traces) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::vector<Bits>& trace : traces) {
    for (const Bits bits : trace) {
      auto v = static_cast<std::uint64_t>(bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= v & 0xFFu;
        h *= 1099511628211ULL;
        v >>= 8;
      }
    }
  }
  return h;
}

// Pins the skewed generator's output bit for bit: the harmonic normalizer
// is hoisted out of the per-slot loop, and the summation order it keeps
// must leave every Poisson mean, and so every trace, unchanged.
TEST(WorkloadSuite, SkewedTracesArePinned) {
  const auto traces =
      MultiSessionWorkload(MultiWorkloadKind::kSkewed, 64, 1024, kDo, 2000, 5);
  EXPECT_EQ(TraceDigest(traces), 39062787238658888ULL);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MultiWorkloadTest,
    ::testing::Values(MultiWorkloadKind::kBalanced,
                      MultiWorkloadKind::kRotatingHotspot,
                      MultiWorkloadKind::kChurn, MultiWorkloadKind::kSkewed),
    [](const ::testing::TestParamInfo<MultiWorkloadKind>& param_info) {
      std::string name = ToString(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace bwalloc
