// Fairness metrics for the multi-session algorithms.
//
// The paper bounds each session's delay individually, but a provider also
// cares that no tenant is systematically worse off. Jain's fairness index
// (sum x)^2 / (n * sum x^2) is 1 for perfectly equal vectors and 1/n for a
// single-winner vector.
#pragma once

#include <vector>

#include "sim/run_result.h"
#include "util/assert.h"

namespace bwalloc {

inline double JainIndex(const std::vector<double>& values) {
  BW_REQUIRE(!values.empty(), "JainIndex: empty vector");
  double sum = 0;
  double sum_sq = 0;
  for (const double v : values) {
    BW_REQUIRE(v >= 0, "JainIndex: negative value");
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0) return 1.0;  // all zeros: perfectly equal
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

// Fairness of mean per-session delays in a multi-session run (sessions
// that delivered nothing are skipped).
inline double DelayFairness(const MultiRunResult& run) {
  std::vector<double> means;
  for (const DelaySummary& h : run.per_session_delay) {
    if (h.total_bits() > 0) means.push_back(h.MeanDelay() + 1.0);
  }
  return means.empty() ? 1.0 : JainIndex(means);
}

// Fairness of delivered volume per session.
inline double ThroughputFairness(const MultiRunResult& run) {
  std::vector<double> delivered;
  for (const DelaySummary& h : run.per_session_delay) {
    delivered.push_back(static_cast<double>(h.total_bits()));
  }
  return delivered.empty() ? 1.0 : JainIndex(delivered);
}

}  // namespace bwalloc
