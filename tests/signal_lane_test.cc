// The signalling retry state machine behind both fault adapters.
//
// SignalLane's tests drive one lane slot by slot over a one-hop path
// (commits land 1 slot after the request, NACKs 2 slots after, timeouts
// 4 slots after) with certain denial or certain loss, so every transition
// lands on a known slot. The adapter tests reach these transitions only
// statistically.
//
// FaultCheckpointLayout pins the bytes both adapters write into a
// checkpoint mid-outage (a request in flight, a lane in fallback). A
// layout change fails here even when save/restore still round-trips,
// because checkpoints already on disk would stop loading. Each pin also
// restores the blob into a fresh adapter and requires the resumed run to
// finish exactly like the uninterrupted one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/multi_phased.h"
#include "core/single_session.h"
#include "net/faults.h"
#include "net/multi_faults.h"
#include "net/path.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "state/serializer.h"
#include "traffic/workload_suite.h"
#include "util/rng.h"

namespace bwalloc {
namespace {

// FNV-1a over the blob's bytes.
std::uint64_t BlobDigest(const std::string& blob) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : blob) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

FaultPlan StormPlan(std::uint64_t seed) {
  FaultPlan plan;
  plan.loss_rate = 0.1;
  plan.denial_rate = 0.3;
  plan.partial_grant_rate = 0.1;
  plan.max_jitter = 2;
  plan.seed = seed;
  return plan;
}

// --- SignalLane ---------------------------------------------------------------

constexpr Bits kFallback = 64;

Bandwidth Bw(Bits bits) { return Bandwidth::FromBitsPerSlot(bits); }

// A lane on a one-hop path whose committed allocation starts at 16.
SignalLane MakeLane(const FaultPlan& plan) {
  return SignalLane(FaultySignalingChannel(NetworkPath::Uniform(1, 1, 1.0),
                                           plan, Bw(16)));
}

FaultPlan CertainDenial() {
  FaultPlan plan;
  plan.denial_rate = 1.0;  // every increase is NACKed; decreases commit
  return plan;
}

FaultPlan CertainLoss() {
  FaultPlan plan;
  plan.loss_rate = 1.0;  // every request is lost and times out
  return plan;
}

class SignalLaneTest : public ::testing::Test {
 protected:
  SignalLaneTest() { opts_.fallback_bandwidth = kFallback; }

  // Steps `lane` over slots [from, to) asking `want` with backlog `queue`;
  // returns the slots in which it sent a request.
  std::vector<Time> Drive(SignalLane& lane, Time from, Time to,
                          Bandwidth want, Bits queue) {
    std::vector<Time> sent;
    for (Time t = from; t < to; ++t) {
      const std::int64_t before = lane.stats().requests;
      last_ = lane.Step(t, want, queue, {opts_, tracer_, nullptr, 0});
      if (lane.stats().requests > before) sent.push_back(t);
    }
    return sent;
  }

  RobustOptions opts_;  // max_backoff 64 unless a test lowers it
  Tracer tracer_;
  SignalStep last_;
};

TEST_F(SignalLaneTest, NackDoublesTheBackoffUpToTheCap) {
  opts_.max_backoff = 8;
  SignalLane lane = MakeLane(CertainDenial());
  // NACKs land at 2, 5, 9, 15, 25 and the waits after them go 1, 2, 4, 8,
  // then stay at the cap.
  EXPECT_EQ(Drive(lane, 0, 34, Bw(32), 0),
            (std::vector<Time>{0, 3, 7, 13, 23, 33}));
  EXPECT_EQ(lane.stats().denials, 6);
  EXPECT_FALSE(lane.in_fallback()) << "no backlog, no fallback";
}

TEST_F(SignalLaneTest, TimeoutDoublesTheBackoffUpToTheCap) {
  opts_.max_backoff = 8;
  SignalLane lane = MakeLane(CertainLoss());
  // Each request times out 4 slots later (at 4, 9, 15, 23); the waits
  // after them go 1, 2, 4, 8.
  EXPECT_EQ(Drive(lane, 0, 23, Bw(32), 0),
            (std::vector<Time>{0, 5, 11, 19}));
  EXPECT_FALSE(last_.setback);
  EXPECT_EQ(lane.stats().timeouts, 3);
  Drive(lane, 23, 24, Bw(32), 0);
  EXPECT_TRUE(last_.setback) << "the fourth timeout";
  EXPECT_EQ(lane.stats().timeouts, 4);
  // Waits of 8 after the timeouts at 23 and 35: the cap, not 16.
  EXPECT_EQ(Drive(lane, 24, 44, Bw(32), 0), (std::vector<Time>{31, 43}));
  EXPECT_EQ(last_.committed, Bw(16)) << "a lost request commits nothing";
}

TEST_F(SignalLaneTest, AckResetsTheBackoffAndTheDenialStreak) {
  SignalLane lane = MakeLane(CertainDenial());
  // Two denied increases (NACKs at 2 and 5) leave the backoff at 4 and the
  // streak at 2, one short of fallback.
  EXPECT_EQ(Drive(lane, 0, 7, Bw(32), 10), (std::vector<Time>{0, 3}));
  // A decrease is always admitted: it commits at 8, and its ACK resets the
  // backoff and the streak.
  EXPECT_EQ(Drive(lane, 7, 9, Bw(8), 10), (std::vector<Time>{7}));
  EXPECT_EQ(last_.committed, Bw(8));
  EXPECT_FALSE(last_.setback) << "a full grant is no setback";
  // The next NACK (at 11) waits 1 slot, not 4; two more denials do not
  // reach K = 3 because the streak restarted.
  EXPECT_EQ(Drive(lane, 9, 15, Bw(32), 10), (std::vector<Time>{9, 12}));
  EXPECT_FALSE(lane.in_fallback());
  // The third denial since the ACK (NACK at 18) does.
  Drive(lane, 15, 18, Bw(32), 10);
  EXPECT_FALSE(lane.in_fallback());
  Drive(lane, 18, 19, Bw(32), 10);
  EXPECT_TRUE(lane.in_fallback());
  EXPECT_EQ(lane.stats().fallbacks, 1);
}

TEST_F(SignalLaneTest, RetryCountsOnlyARepeatedAsk) {
  SignalLane lane = MakeLane(CertainLoss());
  Drive(lane, 0, 5, Bw(32), 0);  // sent at 0, timed out at 4
  EXPECT_EQ(lane.stats().retries, 0);
  // The want moved: the next request is a new ask, not a retry.
  EXPECT_EQ(Drive(lane, 5, 6, Bw(40), 0), (std::vector<Time>{5}));
  EXPECT_EQ(lane.stats().retries, 0);
  // Timed out at 9; re-asking the same 40 at 11 is a retry.
  EXPECT_EQ(Drive(lane, 6, 12, Bw(40), 0), (std::vector<Time>{11}));
  EXPECT_EQ(lane.stats().retries, 1);
}

TEST_F(SignalLaneTest, DenialsWithBacklogEnterFallbackAndAnEmptyQueueLeaves) {
  SignalLane lane = MakeLane(CertainDenial());
  BufferTraceSink sink;
  lane.SetTracer(Tracer(&sink, kAllEvents, {"lane", 0}), 0);
  // Three NACKs (at 2, 5, 9) with no backlog leave the lane on its own ask.
  Drive(lane, 0, 10, Bw(32), 0);
  EXPECT_FALSE(lane.in_fallback());
  // A backlog with the streak at K enters fallback; once the backoff from
  // the last NACK runs out (at 13) the lane asks for the drain rate.
  Drive(lane, 10, 11, Bw(32), 5);
  EXPECT_TRUE(lane.in_fallback());
  EXPECT_EQ(lane.stats().fallbacks, 1);
  EXPECT_EQ(Drive(lane, 11, 14, Bw(32), 5), (std::vector<Time>{13}));
  ASSERT_EQ(sink.events().back().type, TraceEventType::kSignalDenial);
  const TraceEvent& ask = sink.events()[sink.size() - 2];
  ASSERT_EQ(ask.type, TraceEventType::kSignalRequest);
  EXPECT_EQ(ask.a, Bw(kFallback).raw());
  // Service that leaves bits queued keeps the drain going; an empty queue
  // ends it.
  lane.OnServed(3);
  EXPECT_TRUE(lane.in_fallback());
  lane.OnServed(0);
  EXPECT_FALSE(lane.in_fallback());
  // The drain's end also cleared the streak: one more NACK (at 15) with a
  // backlog does not re-enter fallback.
  Drive(lane, 14, 16, Bw(32), 5);
  EXPECT_EQ(lane.stats().denials, 4);
  EXPECT_FALSE(lane.in_fallback());
}

TEST_F(SignalLaneTest, ParkClearsAnOutstandingRequest) {
  SignalLane lane = MakeLane(CertainLoss());
  EXPECT_EQ(Drive(lane, 0, 1, Bw(32), 0), (std::vector<Time>{0}));
  EXPECT_TRUE(lane.outstanding());
  lane.Park(1);
  EXPECT_FALSE(lane.outstanding());
  // A rejoin asks at once, as a fresh ask, and the abandoned request never
  // times out.
  EXPECT_EQ(Drive(lane, 1, 2, Bw(32), 0), (std::vector<Time>{1}));
  EXPECT_EQ(lane.stats().retries, 0);
  Drive(lane, 2, 5, Bw(32), 0);
  EXPECT_EQ(lane.stats().timeouts, 0);
}

// --- adapter checkpoint layout ------------------------------------------------

// Every retry counter has moved and a request went out this slot.
bool MidOutage(const FaultStats& s, std::int64_t requests_before) {
  return s.timeouts > 0 && s.retries > 0 && s.partial_grants > 0 &&
         s.requests > requests_before;
}

// --- single-session adapter -------------------------------------------------

constexpr Bits kBa = 64;
constexpr Time kSingleHorizon = 3000;

std::unique_ptr<RobustSignalingAdapter> MakeSingleAdapter() {
  SingleSessionParams p;
  p.max_bandwidth = kBa;
  p.max_delay = 16;
  p.min_utilization = Ratio(1, 6);
  p.window = 8;
  RobustOptions opts;
  opts.fallback_bandwidth = kBa;
  return std::make_unique<RobustSignalingAdapter>(
      std::make_unique<SingleSessionOnline>(p),
      NetworkPath::Uniform(3, 1, 1.0), StormPlan(21), opts);
}

// On/off bursts that keep asking for increases the storm plan denies.
std::vector<Bits> SingleTrace() {
  Rng rng(5);
  std::vector<Bits> trace(static_cast<std::size_t>(kSingleHorizon), 0);
  for (Time t = 0; t < kSingleHorizon; ++t) {
    if ((t / 40) % 2 == 0) {
      trace[static_cast<std::size_t>(t)] = rng.UniformInt(0, 2 * kBa);
    }
  }
  return trace;
}

// A minimal data plane: serve floor(rate) bits per slot from one queue.
struct SingleDriver {
  Bits queue = 0;
  std::uint64_t rates = 14695981039346656037ULL;  // digest of every rate

  void Step(RobustSignalingAdapter& a, Time now, Bits arrivals) {
    queue += arrivals;
    const Bandwidth bw = a.OnSlot(now, arrivals, queue);
    const Bits served = std::min(queue, bw.FloorBits());
    queue -= served;
    a.OnServed(now, served, queue);
    rates = (rates ^ static_cast<std::uint64_t>(bw.raw())) * 1099511628211ULL;
  }
};

TEST(FaultCheckpointLayout, SingleAdapterBlobIsPinned) {
  const std::vector<Bits> trace = SingleTrace();
  auto adapter = MakeSingleAdapter();
  SingleDriver run;
  // Step until the adapter, having timed out and retried, is in fallback
  // with a request issued this slot: on a 3-hop path nothing can resolve
  // it before slot t + 2, so the checkpoint catches the request in flight.
  Time t = 0;
  for (; t < kSingleHorizon; ++t) {
    const std::int64_t before = adapter->fault_stats().requests;
    run.Step(*adapter, t, trace[static_cast<std::size_t>(t)]);
    if (MidOutage(adapter->fault_stats(), before) && adapter->in_fallback()) {
      break;
    }
  }
  ASSERT_LT(t, kSingleHorizon) << "never in fallback with a request out";
  StateWriter w;
  adapter->SaveState(w);
  EXPECT_EQ(t, 228);
  EXPECT_EQ(BlobDigest(w.bytes()), 13951701999065110329ULL);

  auto restored = MakeSingleAdapter();
  StateReader r(w.bytes());
  restored->LoadState(r);
  SingleDriver resumed = run;
  for (Time s = t + 1; s < kSingleHorizon + 400; ++s) {
    const Bits bits = s < kSingleHorizon ? trace[static_cast<std::size_t>(s)]
                                         : Bits{0};
    run.Step(*adapter, s, bits);
    resumed.Step(*restored, s, bits);
  }
  EXPECT_EQ(run.queue, 0);
  EXPECT_EQ(resumed.queue, run.queue);
  EXPECT_EQ(resumed.rates, run.rates);
  EXPECT_TRUE(restored->fault_stats() == adapter->fault_stats());
}

// --- multi-session adapter --------------------------------------------------

constexpr std::int64_t kK = 4;
constexpr Bits kBo = 64;
constexpr Time kDo = 8;
constexpr Time kMultiHorizon = 2000;

std::unique_ptr<RobustMultiSessionAdapter> MakeMultiAdapter() {
  MultiSessionParams p;
  p.sessions = kK;
  p.offline_bandwidth = kBo;
  p.offline_delay = kDo;
  RobustOptions opts;
  opts.fallback_bandwidth = 4 * kBo;
  return std::make_unique<RobustMultiSessionAdapter>(
      std::make_unique<PhasedMulti>(p), NetworkPath::Uniform(3, 1, 1.0),
      StormPlan(33), opts);
}

struct MultiDriver {
  std::uint64_t rates = 14695981039346656037ULL;  // digest of every rate

  void Step(RobustMultiSessionAdapter& a, Time now,
            const std::vector<std::vector<Bits>>& traces) {
    std::vector<SessionArrival> arrivals;
    for (std::int64_t i = 0; i < kK; ++i) {
      const auto& trace = traces[static_cast<std::size_t>(i)];
      const Bits bits = now < static_cast<Time>(trace.size())
                            ? trace[static_cast<std::size_t>(now)]
                            : Bits{0};
      if (bits > 0) arrivals.push_back({i, bits});
    }
    a.StepSparse(now, arrivals);
    for (std::int64_t i = 0; i < kK; ++i) {
      rates = (rates ^ static_cast<std::uint64_t>(
                           a.channels().regular_bw(i).raw())) *
              1099511628211ULL;
    }
  }
};

bool AnyFallback(const RobustMultiSessionAdapter& a) {
  for (std::int64_t i = 0; i < kK; ++i) {
    if (a.in_fallback(i)) return true;
  }
  return false;
}

TEST(FaultCheckpointLayout, MultiAdapterBlobIsPinned) {
  const auto traces = MultiSessionWorkload(MultiWorkloadKind::kRotatingHotspot,
                                           kK, kBo, kDo, kMultiHorizon, 9);
  auto adapter = MakeMultiAdapter();
  MultiDriver run;
  Time t = 0;
  for (; t < kMultiHorizon; ++t) {
    const std::int64_t before = adapter->fault_stats().requests;
    run.Step(*adapter, t, traces);
    if (MidOutage(adapter->fault_stats(), before) && AnyFallback(*adapter)) {
      break;
    }
  }
  ASSERT_LT(t, kMultiHorizon) << "never in fallback with a request out";
  StateWriter w;
  adapter->SaveState(w);
  EXPECT_EQ(t, 101);
  EXPECT_EQ(BlobDigest(w.bytes()), 15188452972051283725ULL);

  auto restored = MakeMultiAdapter();
  StateReader r(w.bytes());
  restored->LoadState(r);
  MultiDriver resumed = run;
  for (Time s = t + 1; s < kMultiHorizon + 800; ++s) {
    run.Step(*adapter, s, traces);
    resumed.Step(*restored, s, traces);
  }
  EXPECT_EQ(adapter->channels().TotalQueued(), 0);
  EXPECT_EQ(restored->channels().TotalQueued(), 0);
  EXPECT_EQ(resumed.rates, run.rates);
  const auto want = adapter->per_session_fault_stats();
  const auto got = restored->per_session_fault_stats();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "lane " << i;
  }
}

}  // namespace
}  // namespace bwalloc
