// The streaming theorem auditor (obs/audit): clean runs audit clean both
// live (AuditingSink) and via NDJSON replay, seeded violations are caught,
// the degraded-mode switch keeps faulted runs free of false positives,
// and a wrapped flight-recorder ring is flagged as an incomplete trace.
#include "obs/audit/auditor.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/multi_phased.h"
#include "core/params.h"
#include "core/single_session.h"
#include "core/stage_trace.h"
#include "net/faults.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "traffic/arrivals.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

constexpr Bits kBa = 64;
constexpr Time kDa = 16;
constexpr Time kW = 16;
constexpr Time kHorizon = 1500;

SingleSessionParams Params() {
  SingleSessionParams p;
  p.max_bandwidth = kBa;
  p.max_delay = kDa;
  p.min_utilization = Ratio(1, 6);
  p.window = kW;
  return p;
}

// Runs the Fig. 3 algorithm over the `mixed` workload with every event
// traced into `sink`; mirrors the bwsim `single --audit` wiring.
SingleRunResult RunTraced(TraceSink* sink, std::uint64_t seed = 11) {
  const auto trace = SingleSessionWorkload("mixed", kBa, kDa / 2, kHorizon,
                                           seed);
  SingleSessionOnline alg(Params());
  SingleEngineOptions opt;
  opt.drain_slots = 4 * kDa;
  opt.utilization_scan_window = kW + 5 * (kDa / 2);
  opt.tracer = Tracer(sink, kAllEvents, {"t", 0});
  TracerStageObserver observer(opt.tracer);
  alg.SetObserver(&observer);
  return RunSingleSession(trace, alg, opt);
}

TEST(Auditor, LiveCleanRunHasNoViolations) {
  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  AuditingSink sink(&auditor);
  RunTraced(&sink);
  auditor.Finish();
  EXPECT_TRUE(auditor.ok()) << auditor.FormatReport();
  EXPECT_EQ(auditor.total_violations(), 0);
  EXPECT_GT(auditor.events(), kHorizon);
  EXPECT_EQ(auditor.streams(), 1);
}

TEST(Auditor, AuditingSinkForwardsDownstream) {
  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  BufferTraceSink buffer;
  AuditingSink sink(&auditor, &buffer);
  RunTraced(&sink);
  auditor.Finish();
  EXPECT_TRUE(auditor.ok()) << auditor.FormatReport();
  EXPECT_EQ(static_cast<std::int64_t>(buffer.size()), auditor.events());
}

TEST(Auditor, NdjsonReplayOfCleanRunIsClean) {
  std::ostringstream out;
  NdjsonTraceSink sink(out);
  RunTraced(&sink);

  std::istringstream in(out.str());
  const auto records = ReadTrace(in);
  ASSERT_FALSE(records.empty());
  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  for (const TraceRecord& rec : records) auditor.OnRecord(rec);
  auditor.Finish();
  EXPECT_TRUE(auditor.ok()) << auditor.FormatReport();
  EXPECT_EQ(auditor.events(), static_cast<std::int64_t>(records.size()));
}

// Negative control: a committed rate above B_A must be caught — replay the
// clean run with one alloc_change payload bumped past the cap.
TEST(Auditor, SeededBandwidthCapViolationIsCaught) {
  BufferTraceSink buffer;
  RunTraced(&buffer);

  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  bool seeded = false;
  for (TraceEvent event : buffer.events()) {
    if (!seeded && event.type == TraceEventType::kAllocChange) {
      event.b = Bandwidth::FromBitsPerSlot(4 * kBa).raw();
      seeded = true;
    }
    auditor.OnEvent({"t", 0}, event);
  }
  ASSERT_TRUE(seeded);
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("bandwidth_cap"), 1);
  // The violation record names the stream and carries the measured rate.
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].suite, "t");
}

// Negative control: breaking queue bookkeeping (a slot_tick whose queue
// jumps by more than its arrivals) must trip the conservation monitor.
TEST(Auditor, SeededConservationViolationIsCaught) {
  BufferTraceSink buffer;
  RunTraced(&buffer);

  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  std::int64_t ticks = 0;
  for (TraceEvent event : buffer.events()) {
    if (event.type == TraceEventType::kSlotTick && ++ticks == 100) {
      event.b += 10 * kBa;  // queue grew without matching arrivals
    }
    auditor.OnEvent({"t", 0}, event);
  }
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("conservation"), 1);
}

// A faulted control plane erodes delay, but only inside degraded episodes;
// with the degraded-mode slacks (the bwsim live-audit wiring) the auditor
// must not raise false positives.
TEST(Auditor, DegradedModeHasNoFalsePositivesUnderFaults) {
  const std::int64_t hops = 3;
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    RobustOptions ropts;
    ropts.fallback_bandwidth = kBa;
    const RobustOptions::AuditSlack slack = ropts.Slack(hops, 2, 4 * kDa);
    AuditConfig cfg = SingleAuditConfig(kBa, kDa, 6, kW);
    cfg.delay_slack = slack.delay_slack;
    cfg.degraded_delay_slack = slack.degraded_delay_slack;
    Auditor auditor(cfg);
    AuditingSink sink(&auditor);

    const auto trace =
        SingleSessionWorkload("onoff", kBa, kDa / 2, kHorizon, seed);
    FaultPlan plan;
    plan.loss_rate = 0.2;
    plan.denial_rate = 0.2;
    plan.max_jitter = 2;
    plan.seed = seed;
    auto online = std::make_unique<SingleSessionOnline>(Params());
    SingleSessionOnline* inner = online.get();
    RobustSignalingAdapter adapter(std::move(online),
                                   NetworkPath::Uniform(hops, 1, 1.0), plan,
                                   ropts);
    SingleEngineOptions opt;
    opt.drain_slots = slack.degraded_delay_slack;
    opt.tracer = Tracer(&sink, kAllEvents, {"faulted", 0});
    TracerStageObserver observer(opt.tracer);
    inner->SetObserver(&observer);
    adapter.SetTracer(opt.tracer);
    RunSingleSession(trace, adapter, opt);
    auditor.Finish();
    EXPECT_TRUE(auditor.ok())
        << "seed " << seed << ":\n" << auditor.FormatReport();
    // The fault plan actually fired (the run really was degraded).
    EXPECT_GT(adapter.fault_stats().losses + adapter.fault_stats().denials,
              0);
  }
}

// A wrapped flight-recorder ring starts mid-run: the auditor must flag it
// as an incomplete trace instead of auditing the fragment as if it were
// a whole run (and instead of raising bogus per-slot violations).
TEST(Auditor, WrappedRingBufferIsFlaggedIncomplete) {
  RingBufferTraceSink ring(64);
  RunTraced(&ring);
  ASSERT_GT(ring.emitted(), static_cast<std::int64_t>(ring.capacity()));

  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  for (const TraceEvent& event : ring.Snapshot()) {
    auditor.OnEvent({"t", 0}, event);
  }
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("incomplete_trace"), 1);
}

// An unwrapped ring (capacity >= the whole run) audits clean: the flight
// recorder is lossless until it wraps.
TEST(Auditor, UnwrappedRingBufferAuditsClean) {
  RingBufferTraceSink ring(1u << 20);
  RunTraced(&ring);
  ASSERT_EQ(ring.emitted(), static_cast<std::int64_t>(ring.size()));

  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  for (const TraceEvent& event : ring.Snapshot()) {
    auditor.OnEvent({"t", 0}, event);
  }
  auditor.Finish();
  EXPECT_TRUE(auditor.ok()) << auditor.FormatReport();
}

TEST(Auditor, UnknownEventNameIsAFormatViolationNotAThrow) {
  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  TraceRecord rec;
  rec.suite = "t";
  rec.event = "no_such_event";
  auditor.OnRecord(rec);
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("format"), 1);
}

TEST(Auditor, ReportJsonIsWellFormedAndStable) {
  Auditor auditor(SingleAuditConfig(kBa, kDa, 6, kW));
  AuditingSink sink(&auditor);
  RunTraced(&sink);
  auditor.Finish();
  const std::string a = auditor.ReportJson();
  const std::string b = auditor.ReportJson();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(a.find("\"violations_total\":0"), std::string::npos);
}

// ---------------------------------------------------------------------
// feasibility_churn: dynamic-admission runs audit clean, and each of the
// monitor's claims has a seeded negative control that must trip it.

constexpr Bits kBo = 64;
constexpr Time kDo = 8;

// A churned phased run with full tracing: Poisson arrivals through greedy
// admission and a bounded pending queue — mirrors
// `bwsim multi --arrivals poisson --audit`.
MultiRunResult RunChurnTraced(TraceSink* sink, std::int64_t* sessions_out) {
  ArrivalParams ap;
  ap.horizon = 600;
  ap.offline_bandwidth = kBo;
  ap.offline_delay = kDo;
  ap.arrival_rate = 0.3;
  ap.max_book_ahead = 4;
  ap.seed = 5;
  const ChurnPlan plan = GenerateArrivals(ArrivalProcess::kPoisson, ap);
  AdmissionConfig ac;
  ac.policy = AdmissionPolicyKind::kGreedy;
  ac.capacity = kBo;
  AdmissionController policy(ac);
  ChurnDriver driver(plan, policy, /*max_pending=*/6);
  MultiSessionParams mp;
  mp.sessions = plan.sessions;
  mp.offline_bandwidth = kBo;
  mp.offline_delay = kDo;
  PhasedMulti system(mp);
  MultiEngineOptions opt;
  opt.drain_slots = 8 * kDo;
  opt.churn = &driver;
  opt.tracer = Tracer(sink, kAllEvents, {"t", 0});
  if (sessions_out != nullptr) *sessions_out = plan.sessions;
  return RunMultiSessionEvent(plan.MaterializeTraces(), system, opt);
}

TEST(Auditor, ChurnedRunAuditsClean) {
  BufferTraceSink buffer;
  std::int64_t sessions = 0;
  const MultiRunResult r = RunChurnTraced(&buffer, &sessions);
  ASSERT_GT(r.churn.admitted, 0);
  ASSERT_GT(r.churn.departed, 0);
  Auditor auditor(MultiAuditConfig(sessions, kBo, kDo, /*phased=*/true));
  for (const TraceEvent& event : buffer.events()) {
    auditor.OnEvent({"t", 0}, event);
  }
  auditor.Finish();
  EXPECT_TRUE(auditor.ok()) << auditor.FormatReport();
}

// Negative control: an admitted rate pushed past B_O makes the active
// committed sum infeasible at its start slot.
TEST(Auditor, SeededChurnOverAdmissionIsCaught) {
  BufferTraceSink buffer;
  std::int64_t sessions = 0;
  RunChurnTraced(&buffer, &sessions);
  Auditor auditor(MultiAuditConfig(sessions, kBo, kDo, /*phased=*/true));
  bool seeded = false;
  for (TraceEvent event : buffer.events()) {
    if (!seeded && event.type == TraceEventType::kAdmit) {
      event.a = 2 * kBo;  // a committed rate no feasible schedule can hold
      seeded = true;
    }
    auditor.OnEvent({"t", 0}, event);
  }
  ASSERT_TRUE(seeded);
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("feasibility_churn"), 1);
}

// Negative control: shedding must never take a session at or past its
// start slot. A depart rewritten into a shed is exactly that violation
// (departures only happen to started sessions).
TEST(Auditor, SeededShedAfterStartIsCaught) {
  BufferTraceSink buffer;
  std::int64_t sessions = 0;
  RunChurnTraced(&buffer, &sessions);
  Auditor auditor(MultiAuditConfig(sessions, kBo, kDo, /*phased=*/true));
  bool seeded = false;
  for (TraceEvent event : buffer.events()) {
    if (!seeded && event.type == TraceEventType::kDepart) {
      event.type = TraceEventType::kShed;
      seeded = true;
    }
    auditor.OnEvent({"t", 0}, event);
  }
  ASSERT_TRUE(seeded);
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("feasibility_churn"), 1);
}

// Negative control: a departed session's allocation must stay released —
// raising it again means graceful degradation leaked bandwidth back.
TEST(Auditor, SeededAllocationToDepartedSessionIsCaught) {
  BufferTraceSink buffer;
  std::int64_t sessions = 0;
  RunChurnTraced(&buffer, &sessions);
  Auditor auditor(MultiAuditConfig(sessions, kBo, kDo, /*phased=*/true));
  bool seeded = false;
  for (const TraceEvent& event : buffer.events()) {
    auditor.OnEvent({"t", 0}, event);
    if (!seeded && event.type == TraceEventType::kDepart) {
      TraceEvent raise;
      raise.type = TraceEventType::kAllocChange;
      raise.slot = event.slot;
      raise.session = event.session;
      raise.a = 0;
      raise.b = Bandwidth::FromBitsPerSlot(1).raw();
      raise.c = kChanRegular;
      auditor.OnEvent({"t", 0}, raise);
      seeded = true;
    }
  }
  ASSERT_TRUE(seeded);
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("feasibility_churn"), 1);
}

// Lifecycle sanity: depart/shed without a committed admission is flagged.
TEST(Auditor, ChurnLifecycleWithoutAdmissionIsCaught) {
  Auditor auditor(MultiAuditConfig(4, kBo, kDo, /*phased=*/true));
  TraceEvent depart;
  depart.type = TraceEventType::kDepart;
  depart.slot = 3;
  depart.session = 2;
  auditor.OnEvent({"t", 0}, depart);
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.counts().at("feasibility_churn"), 1);
}

}  // namespace
}  // namespace bwalloc
