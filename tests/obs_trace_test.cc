// The obs layer: tracer/sink plumbing, event masks, NDJSON formatting and
// parsing, the ring buffer, and the scoped timers.
#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/stopwatch.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"

namespace bwalloc {
namespace {

TEST(Tracer, DefaultConstructedIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.active());
  EXPECT_FALSE(tracer.enabled(TraceEventType::kSlotTick));
  // Emitting through a disabled tracer must be a no-op, not a crash.
  tracer.Emit(TraceEventType::kSlotTick, 0, -1, 1, 2);
}

TEST(Tracer, MaskFiltersEventTypes) {
  BufferTraceSink sink;
  Tracer tracer(&sink, EventBit(TraceEventType::kAllocChange), {"t", 0});
  EXPECT_TRUE(tracer.active());
  EXPECT_TRUE(tracer.enabled(TraceEventType::kAllocChange));
  EXPECT_FALSE(tracer.enabled(TraceEventType::kSlotTick));
  tracer.Emit(TraceEventType::kSlotTick, 1, -1, 10, 20);
  tracer.Emit(TraceEventType::kAllocChange, 2, 3, 100, 200, kChanRegular);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].type, TraceEventType::kAllocChange);
  EXPECT_EQ(sink.events()[0].session, 3);
}

TEST(ParseEventMask, AcceptsGroupsAndExactNames) {
  EXPECT_EQ(ParseEventMask("all"), kAllEvents);
  EXPECT_EQ(ParseEventMask("alloc"), EventBit(TraceEventType::kAllocChange));
  EXPECT_EQ(ParseEventMask("slot_tick"), EventBit(TraceEventType::kSlotTick));
  const EventMask stage_and_signal = ParseEventMask("stage,signal");
  EXPECT_NE(stage_and_signal & EventBit(TraceEventType::kStageCertified), 0u);
  EXPECT_NE(stage_and_signal & EventBit(TraceEventType::kSignalLoss), 0u);
  EXPECT_EQ(stage_and_signal & EventBit(TraceEventType::kSlotTick), 0u);
}

TEST(ParseEventMask, RejectsUnknownAndEmpty) {
  EXPECT_THROW(ParseEventMask("bogus"), std::invalid_argument);
  EXPECT_THROW(ParseEventMask(""), std::invalid_argument);
  EXPECT_THROW(ParseEventMask("alloc,bogus"), std::invalid_argument);
}

TEST(FormatNdjson, RoundTripsThroughParseTraceLine) {
  const TraceContext ctx{"suite-x", 7};
  const TraceEvent event{TraceEventType::kSignalDenial, 42, 3, 2, 55, 0};
  const std::string line = FormatNdjson(ctx, event);
  const TraceRecord rec = ParseTraceLine(line);
  EXPECT_EQ(rec.suite, "suite-x");
  EXPECT_EQ(rec.cell, 7);
  EXPECT_EQ(rec.slot, 42);
  EXPECT_EQ(rec.session, 3);
  EXPECT_EQ(rec.event, "signal_denial");
  EXPECT_EQ(rec.payload.at("hop"), 2);
  EXPECT_EQ(rec.payload.at("nack_at"), 55);
}

TEST(FormatNdjson, OmitsSessionWhenUntagged) {
  const std::string line =
      FormatNdjson({"s", 0}, {TraceEventType::kSlotTick, 5, -1, 10, 20, 0});
  EXPECT_EQ(line.find("session"), std::string::npos);
  const TraceRecord rec = ParseTraceLine(line);
  EXPECT_EQ(rec.session, -1);
  EXPECT_EQ(rec.payload.at("arrivals"), 10);
  EXPECT_EQ(rec.payload.at("queue"), 20);
}

TEST(NdjsonTraceSink, WritesOneLinePerEvent) {
  std::ostringstream out;
  NdjsonTraceSink sink(out);
  Tracer tracer(&sink, kAllEvents, {"s", 1});
  tracer.Emit(TraceEventType::kSlotTick, 0, -1, 1, 0);
  tracer.Emit(TraceEventType::kStageStart, 0, -1, 0);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  std::istringstream in(text);
  const auto records = ReadTrace(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, "slot_tick");
  EXPECT_EQ(records[1].event, "stage_start");
}

TEST(RingBufferTraceSink, KeepsTheLastCapacityEvents) {
  RingBufferTraceSink sink(3);
  Tracer tracer(&sink, kAllEvents, {"s", 0});
  for (Time t = 0; t < 10; ++t) {
    tracer.Emit(TraceEventType::kSlotTick, t, -1, t, 0);
  }
  EXPECT_EQ(sink.emitted(), 10);
  EXPECT_EQ(sink.size(), 3u);
  const auto events = sink.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest-first: slots 7, 8, 9 survive.
  EXPECT_EQ(events[0].slot, 7);
  EXPECT_EQ(events[1].slot, 8);
  EXPECT_EQ(events[2].slot, 9);
}

TEST(TraceReader, ReportsLineNumbersOnMalformedInput) {
  std::istringstream in("{\"suite\":\"s\",\"cell\":0,\"slot\":1,"
                        "\"event\":\"slot_tick\"}\nnot json\n");
  try {
    ReadTrace(in);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// One valid line for corruption fixtures below.
std::string ValidLine() {
  return FormatNdjson({"s", 0}, {TraceEventType::kSlotTick, 5, -1, 10, 20, 0});
}

TEST(TraceReader, RejectsTruncatedFinalLineWithItsNumber) {
  // A trace cut mid-write: the last line stops inside the object.
  const std::string full = ValidLine();
  std::istringstream in(ValidLine() + "\n" + ValidLine() + "\n" +
                        full.substr(0, full.size() / 2) + "\n");
  try {
    ReadTrace(in);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceReader, RejectsBinaryGarbageStrictly) {
  std::istringstream in(std::string("\x00\x01\xff garbage\n", 12));
  EXPECT_THROW(ReadTrace(in), std::invalid_argument);
}

TEST(TraceReader, LenientSkipsMalformedLinesAndCountsThem) {
  const std::string full = ValidLine();
  std::istringstream in(ValidLine() + "\n" +
                        "not json\n" +
                        ValidLine() + "\n" +
                        full.substr(0, full.size() - 4) + "\n" +
                        ValidLine() + "\n");
  TraceReadOptions opt;
  opt.lenient = true;
  TraceReadStats stats;
  const auto records = ReadTrace(in, opt, &stats);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(stats.lines, 5);
  EXPECT_EQ(stats.skipped, 2);
  ASSERT_EQ(stats.skipped_lines.size(), 2u);
  EXPECT_EQ(stats.skipped_lines[0], 2);
  EXPECT_EQ(stats.skipped_lines[1], 4);
}

TEST(TraceReader, LenientOnFullyCorruptInputReturnsNothing) {
  std::istringstream in("garbage\nmore garbage\n");
  TraceReadOptions opt;
  opt.lenient = true;
  TraceReadStats stats;
  const auto records = ReadTrace(in, opt, &stats);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.skipped, 2);
}

TEST(ScopedTimer, NullProfileIsANoOp) {
  // Must not crash or record anything.
  { ScopedTimer t(nullptr, "phase"); }
  PhaseProfile profile;
  { ScopedTimer t(&profile, "phase"); }
  ASSERT_EQ(profile.phases().size(), 1u);
  const auto& entry = profile.phases().at("phase");
  EXPECT_EQ(entry.calls, 1);
  EXPECT_GE(entry.ns, 0);
  EXPECT_FALSE(profile.Format().empty());
}

}  // namespace
}  // namespace bwalloc
