#include "offline/offline_multi.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_map>

#include "offline/segment_envelope.h"
#include "sim/bit_queue.h"
#include "util/assert.h"
#include "util/ratio.h"

namespace bwalloc {
namespace {

using Chunk = QueuedChunk;

Bits ArrivalAt(const std::vector<Bits>& trace, Time t) {
  return t < static_cast<Time>(trace.size())
             ? trace[static_cast<std::size_t>(t)]
             : Bits{0};
}

Bandwidth CeilRatioToBandwidth(const Ratio& r) {
  const Int128 num = (static_cast<Int128>(r.num()) << Bandwidth::kShift) +
                     r.den() - 1;
  return Bandwidth::FromRaw(static_cast<std::int64_t>(num / r.den()));
}

// One forward scan from state (s, carried): each session's ceil(lo(t)) of
// its deadline envelope, in raw Q16 units, for every prefix end t up to the
// longest feasible end (prefix-closed, as in the single-session case). A
// candidate segment end then reads its rates from the record instead of
// re-advancing the envelopes.
struct MultiStateScan {
  Time max_e = kNoTime;               // s - 1 when nothing is feasible
  std::vector<std::int64_t> lo_raw;   // k entries per slot, row t - s
};

MultiStateScan ScanMultiState(const std::vector<std::vector<Bits>>& traces,
                              Bits offline_bandwidth, Time offline_delay,
                              Time s, Time horizon,
                              const std::vector<std::deque<Chunk>>& carried) {
  const std::size_t k = traces.size();
  MultiStateScan scan;
  scan.max_e = s - 1;
  for (const auto& q : carried) {
    for (const Chunk& c : q) {
      if (c.arrival + offline_delay < s) return scan;
    }
  }
  std::vector<SegmentDeadlineEnvelope> envelopes;
  envelopes.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    envelopes.emplace_back(offline_delay, s, carried[i]);
  }
  const std::int64_t budget_raw =
      Bandwidth::FromBitsPerSlot(offline_bandwidth).raw();
  for (Time t = s; t < horizon; ++t) {
    const std::size_t row = scan.lo_raw.size();
    std::int64_t total_raw = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const Ratio lo = envelopes[i].Advance(t, ArrivalAt(traces[i], t));
      const std::int64_t lo_raw = CeilRatioToBandwidth(lo).raw();
      scan.lo_raw.push_back(lo_raw);
      total_raw += lo_raw;
    }
    if (total_raw > budget_raw) {
      scan.lo_raw.resize(row);
      break;
    }
    scan.max_e = t;
  }
  return scan;
}

struct MultiSegmentResult {
  std::vector<Bandwidth> rates;
  std::vector<std::deque<Chunk>> carried_out;
};

// Commits the segment [s, e] (e <= scan.max_e): each session's rate is its
// envelope ceiling at e, plus the unused remainder of B_O spread evenly
// (draining carried backlog instead of piling it into the next segment's
// first-slot dues), and its queue is served through the segment.
MultiSegmentResult CommitMultiSegment(
    const std::vector<std::vector<Bits>>& traces, Bits offline_bandwidth,
    Time offline_delay, Time s, Time e, const MultiStateScan& scan,
    const std::vector<std::deque<Chunk>>& carried) {
  const std::size_t k = traces.size();
  MultiSegmentResult result;
  result.rates.resize(k);
  std::int64_t used_raw = 0;
  const auto row = static_cast<std::size_t>(e - s) * k;
  for (std::size_t i = 0; i < k; ++i) {
    result.rates[i] = Bandwidth::FromRaw(scan.lo_raw[row + i]);
    used_raw += result.rates[i].raw();
  }
  const std::int64_t budget_raw =
      Bandwidth::FromBitsPerSlot(offline_bandwidth).raw();
  BW_CHECK(used_raw <= budget_raw,
           "prefix of a feasible multi segment must be feasible");
  const std::int64_t leftover = budget_raw - used_raw;
  for (std::size_t i = 0; i < k; ++i) {
    result.rates[i] +=
        Bandwidth::FromRaw(leftover / static_cast<std::int64_t>(k));
  }

  // Simulate each session.
  result.carried_out = carried;
  for (std::size_t i = 0; i < k; ++i) {
    auto& q = result.carried_out[i];
    std::int64_t credit = 0;
    for (Time t = s; t <= e; ++t) {
      const Bits in = ArrivalAt(traces[i], t);
      if (in > 0) q.push_back({t, in});
      credit += result.rates[i].raw();
      Bits deliverable = credit >> Bandwidth::kShift;
      while (deliverable > 0 && !q.empty()) {
        Chunk& head = q.front();
        const Bits take = std::min(head.bits, deliverable);
        BW_CHECK(head.arrival + offline_delay >= t,
                 "multi offline served a bit past its deadline");
        head.bits -= take;
        deliverable -= take;
        credit -= take << Bandwidth::kShift;
        if (head.bits == 0) q.pop_front();
      }
      if (q.empty()) credit = 0;
    }
    for (const Chunk& c : q) {
      BW_CHECK(c.arrival + offline_delay > e,
               "multi offline left an overdue bit queued");
    }
  }
  return result;
}

std::uint64_t HashState(Time t0,
                        const std::vector<std::deque<Chunk>>& carried) {
  std::uint64_t h = 1469598103934665603ULL ^
                    static_cast<std::uint64_t>(t0) * 1099511628211ULL;
  for (const auto& q : carried) {
    h = (h ^ 0x5bd1e995ULL) * 1099511628211ULL;
    for (const Chunk& c : q) {
      h = (h ^ static_cast<std::uint64_t>(c.arrival)) * 1099511628211ULL;
      h = (h ^ static_cast<std::uint64_t>(c.bits)) * 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace

std::int64_t MultiOfflineSchedule::local_changes() const {
  if (pieces.empty()) return 0;
  std::int64_t c = 0;
  for (std::size_t p = 1; p < pieces.size(); ++p) {
    for (std::size_t i = 0; i < pieces[p].rates.size(); ++i) {
      if (pieces[p].rates[i] != pieces[p - 1].rates[i]) ++c;
    }
  }
  return c;
}

MultiOfflineSchedule GreedyMultiSchedule(
    const std::vector<std::vector<Bits>>& traces, Bits offline_bandwidth,
    Time offline_delay) {
  BW_REQUIRE(!traces.empty(), "GreedyMultiSchedule: no traces");
  BW_REQUIRE(offline_bandwidth >= 1, "GreedyMultiSchedule: B_O >= 1");
  BW_REQUIRE(offline_delay >= 1, "GreedyMultiSchedule: D_O >= 1");
  const std::size_t k = traces.size();
  const Time n = static_cast<Time>(traces.front().size());
  for (const auto& tr : traces) {
    BW_REQUIRE(static_cast<Time>(tr.size()) == n,
               "GreedyMultiSchedule: trace length mismatch");
  }
  const Time horizon = n + offline_delay;

  MultiOfflineSchedule schedule;
  schedule.horizon = horizon;
  if (horizon == 0) {
    schedule.feasible = true;
    return schedule;
  }

  // Longest-segment-first DFS with failure memoization (the same search as
  // the single-session scheduler; a maximal segment can dead-end, so the
  // search backtracks to shorter segments).
  std::unordered_map<std::uint64_t, bool> failed;
  std::int64_t work = 64 * horizon + 20000;
  std::vector<MultiOfflinePiece> pieces;
  bool capped = false;

  std::function<bool(Time, const std::vector<std::deque<Chunk>>&)> solve =
      [&](Time t0, const std::vector<std::deque<Chunk>>& carried) -> bool {
    if (t0 >= horizon) {
      for (const auto& q : carried) {
        if (!q.empty()) return false;
      }
      return true;
    }
    const std::uint64_t key = HashState(t0, carried);
    if (failed.contains(key)) return false;
    const MultiStateScan scan = ScanMultiState(
        traces, offline_bandwidth, offline_delay, t0, horizon, carried);
    for (Time e = scan.max_e; e >= t0; --e) {
      if (--work < 0) {
        capped = true;
        return false;
      }
      MultiSegmentResult seg = CommitMultiSegment(
          traces, offline_bandwidth, offline_delay, t0, e, scan, carried);
      if (solve(e + 1, seg.carried_out)) {
        MultiOfflinePiece piece;
        piece.start = t0;
        piece.rates = std::move(seg.rates);
        pieces.push_back(std::move(piece));
        return true;
      }
    }
    failed.emplace(key, true);
    return false;
  };

  const std::vector<std::deque<Chunk>> empty(k);
  schedule.feasible = solve(0, empty) && !capped;
  if (schedule.feasible) {
    std::reverse(pieces.begin(), pieces.end());
    schedule.pieces = std::move(pieces);
  } else {
    schedule.pieces.clear();
  }
  return schedule;
}

MultiScheduleCheck ValidateMultiSchedule(
    const std::vector<std::vector<Bits>>& traces,
    const MultiOfflineSchedule& schedule, Bits offline_bandwidth) {
  MultiScheduleCheck check;
  const std::size_t k = traces.size();
  std::vector<BitQueue> queues(k);
  DelayHistogram hist;
  std::size_t piece = 0;
  std::vector<Bandwidth> rates(k);
  // Slack for the per-piece rounding of k rates.
  const Bandwidth budget =
      Bandwidth::FromBitsPerSlot(offline_bandwidth) +
      Bandwidth::FromRaw(static_cast<std::int64_t>(k));
  for (Time t = 0; t < schedule.horizon; ++t) {
    while (piece < schedule.pieces.size() &&
           schedule.pieces[piece].start == t) {
      rates = schedule.pieces[piece].rates;
      ++piece;
    }
    Bandwidth total;
    for (std::size_t i = 0; i < k; ++i) {
      queues[i].Enqueue(t, ArrivalAt(traces[i], t));
      queues[i].ServeSlot(t, rates[i], &hist);
      total += rates[i];
    }
    if (total > budget) check.within_budget = false;
  }
  check.max_delay = hist.max_delay();
  for (const auto& q : queues) check.final_queue += q.size();
  return check;
}

}  // namespace bwalloc
