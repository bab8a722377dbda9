// Trace summarization: the per-session timelines must agree with the
// ground-truth counters the instrumented components already expose —
// FaultStats for the signalling stack, stages()/changes for the engines —
// and the suite-level NDJSON stream must be byte-identical at every
// --jobs value.
#include "obs/trace_summary.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/multi_phased.h"
#include "core/single_session.h"
#include "core/stage_trace.h"
#include "net/faults.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "runner/batch_runner.h"
#include "runner/suite.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "traffic/workload_suite.h"

namespace bwalloc {
namespace {

SingleSessionParams Params() {
  SingleSessionParams p;
  p.max_bandwidth = 64;
  p.max_delay = 16;
  p.min_utilization = Ratio(1, 6);
  p.window = 8;
  return p;
}

std::vector<TraceRecord> ParseNdjson(const std::string& ndjson) {
  std::istringstream in(ndjson);
  return ReadTrace(in);
}

// One row per (suite, cell, session); find by session tag.
const SessionTimeline* FindSession(const TraceSummary& summary,
                                   std::int64_t session) {
  for (const SessionTimeline& s : summary.sessions) {
    if (s.session == session) return &s;
  }
  return nullptr;
}

TEST(TraceSummary, FaultRunTimelineMatchesFaultStats) {
  FaultPlan plan;
  plan.loss_rate = 0.15;
  plan.denial_rate = 0.2;
  plan.partial_grant_rate = 0.1;
  plan.max_jitter = 2;
  plan.seed = 99;
  RobustOptions ropts;
  ropts.fallback_bandwidth = 64;
  RobustSignalingAdapter adapter(
      std::make_unique<SingleSessionOnline>(Params()),
      NetworkPath::Uniform(4, 1, 1.0), plan, ropts);

  BufferTraceSink sink;
  Tracer tracer(&sink, kAllEvents, {"faulted", 0});
  adapter.SetTracer(tracer, /*session=*/0);

  SingleEngineOptions opt;
  opt.drain_slots = 512;
  opt.tracer = tracer;
  const auto trace = SingleSessionWorkload("onoff", 64, 8, 2000, 7);
  RunSingleSession(trace, adapter, opt);
  const FaultStats stats = adapter.fault_stats();
  ASSERT_GT(stats.losses + stats.denials, 0)
      << "plan too gentle to exercise the fault paths";

  const TraceSummary summary = Summarize(ParseNdjson(sink.ToNdjson()));
  const SessionTimeline* s = FindSession(summary, 0);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->requests, stats.requests);
  EXPECT_EQ(s->commits, stats.commits);
  EXPECT_EQ(s->losses, stats.losses);
  EXPECT_EQ(s->denials, stats.denials);
  EXPECT_EQ(s->partial_grants, stats.partial_grants);
  EXPECT_EQ(s->timeouts, stats.timeouts);
  EXPECT_EQ(s->retries, stats.retries);
  EXPECT_EQ(s->fallbacks, stats.fallbacks);

  // Signal outcomes land in the chronological milestone listing too.
  std::int64_t milestone_losses = 0;
  for (const TraceRecord& rec : summary.milestones) {
    if (rec.event == "signal_loss") ++milestone_losses;
  }
  EXPECT_EQ(milestone_losses, stats.losses);
}

TEST(TraceSummary, SingleRunStageAndAllocEventsMatchEngineCounts) {
  SingleSessionOnline alg(Params());
  BufferTraceSink sink;
  Tracer tracer(&sink, kAllEvents, {"single", 0});
  TracerStageObserver observer(tracer);
  alg.SetObserver(&observer);

  SingleEngineOptions opt;
  opt.drain_slots = 64;
  opt.tracer = tracer;
  const auto trace = SingleSessionWorkload("mixed", 64, 8, 3000, 3);
  const SingleRunResult r = RunSingleSession(trace, alg, opt);
  ASSERT_GT(r.stages, 0);
  ASSERT_GT(r.changes, 0);

  const TraceSummary summary = Summarize(ParseNdjson(sink.ToNdjson()));
  const SessionTimeline* s = FindSession(summary, -1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->stages_certified, r.stages);
  EXPECT_EQ(s->alloc_changes, r.changes);
  // Every slot ticked once, including the drain tail.
  EXPECT_EQ(summary.total_events > 0, true);
  EXPECT_EQ(s->last_slot, r.horizon - 1);
}

TEST(TraceSummary, PhasedMultiEmitsStageAndShuntEvents) {
  MultiSessionParams p;
  p.sessions = 4;
  p.offline_bandwidth = 64;
  p.offline_delay = 8;
  PhasedMulti sys(p);

  BufferTraceSink sink;
  MultiEngineOptions opt;
  opt.drain_slots = 32;
  opt.tracer = Tracer(&sink, kAllEvents, {"multi", 0});
  const auto traces = MultiSessionWorkload(MultiWorkloadKind::kRotatingHotspot,
                                           4, 64, 8, 3000, 11);
  const MultiRunResult r = RunMultiSessionEvent(traces, sys, opt);

  std::int64_t certified = 0;
  std::int64_t alloc_changes = 0;
  for (const TraceRecord& rec : ParseNdjson(sink.ToNdjson())) {
    if (rec.event == "stage_certified") ++certified;
    // Per-variable transitions only: the declared-total line (session -1,
    // channel 3) is the engine's global change count, not a local one.
    if (rec.event == "alloc_change" && rec.session >= 0) ++alloc_changes;
  }
  EXPECT_EQ(certified, r.stages);
  EXPECT_EQ(alloc_changes, r.local_changes);
}

TEST(TraceSummary, SuiteTraceIsInvariantAcrossJobCounts) {
  SuiteSpec spec;
  spec.kind = SuiteSpec::Kind::kSingle;
  spec.name = "invariance";
  spec.workloads = {"onoff", "mixed"};
  spec.seeds = 2;
  spec.horizon = 600;
  spec.fault_hops = 2;
  spec.fault_loss = 0.1;
  spec.fault_denial = 0.1;
  spec.trace = true;

  std::string first;
  for (const int jobs : {1, 4}) {
    BatchRunner runner(BatchOptions{jobs, 0});
    const SuiteReport report = RunSuite(spec, runner);
    ASSERT_TRUE(report.ok());
    ASSERT_FALSE(report.trace_ndjson.empty());
    if (first.empty()) {
      first = report.trace_ndjson;
    } else {
      EXPECT_EQ(report.trace_ndjson, first) << "jobs=" << jobs;
    }
  }

  // Cells appear in index order in the concatenated stream.
  std::int64_t last_cell = -1;
  for (const TraceRecord& rec : ParseNdjson(first)) {
    EXPECT_GE(rec.cell, last_cell);
    last_cell = std::max(last_cell, rec.cell);
    EXPECT_EQ(rec.suite, "invariance");
  }
  EXPECT_EQ(last_cell, spec.CellCount() - 1);
}

TEST(TraceSummary, EventMaskLimitsSuiteTraceToRequestedGroups) {
  SuiteSpec spec;
  spec.kind = SuiteSpec::Kind::kSingle;
  spec.workloads = {"onoff"};
  spec.seeds = 1;
  spec.horizon = 400;
  spec.trace = true;
  spec.trace_events = ParseEventMask("stage");

  BatchRunner runner(BatchOptions{1, 0});
  const SuiteReport report = RunSuite(spec, runner);
  ASSERT_TRUE(report.ok());
  for (const TraceRecord& rec : ParseNdjson(report.trace_ndjson)) {
    EXPECT_TRUE(rec.event == "stage_start" || rec.event == "stage_certified" ||
                rec.event == "reset_drain" || rec.event == "global_reset" ||
                rec.event == "level_change")
        << rec.event;
  }
}

TEST(TraceSummary, UnknownFutureEventTypesAreCountedNotMiscounted) {
  // A trace from a newer writer: two event names this reader's enum does
  // not know, interleaved with ordinary events. The reader keeps unknown
  // payload keys, so the lines parse; the summarizer must tally them as
  // skipped instead of folding them into a typed counter or milestones.
  const std::string ndjson =
      R"({"suite":"future","cell":0,"slot":0,"event":"slot_tick","arrival_bits":8,"queue_bits":8})"
      "\n"
      R"({"suite":"future","cell":0,"slot":1,"session":0,"event":"signal_loss","hop":1})"
      "\n"
      R"({"suite":"future","cell":0,"slot":2,"session":0,"event":"quantum_handoff","qubits":3})"
      "\n"
      R"({"suite":"future","cell":0,"slot":3,"event":"quantum_handoff","qubits":4})"
      "\n"
      R"({"suite":"future","cell":0,"slot":4,"event":"lane_teleport","lane":9})"
      "\n"
      R"({"suite":"future","cell":0,"slot":5,"event":"stage_certified","stage":0})"
      "\n";
  const TraceSummary summary = Summarize(ParseNdjson(ndjson));

  EXPECT_EQ(summary.total_events, 6);
  EXPECT_EQ(summary.first_slot, 0);
  EXPECT_EQ(summary.last_slot, 5);
  EXPECT_EQ(summary.skipped_unknown, 3);
  ASSERT_EQ(summary.unknown_events.size(), 2u);
  EXPECT_EQ(summary.unknown_events.at("quantum_handoff"), 2);
  EXPECT_EQ(summary.unknown_events.at("lane_teleport"), 1);

  // Unknown events still count toward the group's event totals but never
  // reach the milestone listing or a typed counter.
  for (const TraceRecord& rec : summary.milestones) {
    EXPECT_TRUE(rec.event == "signal_loss" || rec.event == "stage_certified")
        << rec.event;
  }
  const SessionTimeline* scoped = FindSession(summary, 0);
  ASSERT_NE(scoped, nullptr);
  EXPECT_EQ(scoped->events, 2);  // signal_loss + one quantum_handoff
  EXPECT_EQ(scoped->losses, 1);
  const SessionTimeline* run_scope = FindSession(summary, -1);
  ASSERT_NE(run_scope, nullptr);
  EXPECT_EQ(run_scope->stages_certified, 1);

  // Known-but-uncounted names (checkpoint/restore/signal_recover) are NOT
  // unknown: they stay in the milestone listing.
  const TraceSummary known = Summarize(ParseNdjson(
      R"({"suite":"s","cell":0,"slot":7,"event":"checkpoint","committed_raw":0,"resume_slot":8})"
      "\n"));
  EXPECT_EQ(known.skipped_unknown, 0);
  ASSERT_EQ(known.milestones.size(), 1u);
  EXPECT_EQ(known.milestones[0].event, "checkpoint");
}

}  // namespace
}  // namespace bwalloc
