// Checkpoint envelope and serializer hardening.
//
// The crash-tolerance story rests on two low-level promises: (1) the
// StateWriter/StateReader byte stream round-trips exactly and fails loudly
// on any malformed payload, and (2) the checkpoint envelope
// (magic | version | length | CRC) turns every realistic corruption mode —
// truncation, a torn mid-write file, a stale version, a flipped bit, the
// wrong file entirely — into a CheckpointError that names the offending
// source, never a silent mis-restore. This file attacks both layers
// directly, plus the atomic file write (no .tmp debris at the published
// path) and the meta/debug readers the CLI recovery path uses.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/admission.h"
#include "core/multi_phased.h"
#include "core/params.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "state/checkpoint.h"
#include "state/serializer.h"
#include "traffic/arrivals.h"

namespace bwalloc {
namespace {

// --- serializer round-trip and failure modes -------------------------------

TEST(SerializerTest, RoundTripsEveryScalarType) {
  StateWriter w;
  w.Tag("TST1");
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFULL);
  w.I64(-42);
  w.Str("hello\0world");  // string_view: stops at the NUL — still exact
  w.Str("");

  StateReader r(w.bytes());
  r.Tag("TST1");
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  r.ExpectEnd();
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, TagMismatchThrows) {
  StateWriter w;
  w.Tag("AAA1");
  StateReader r(w.bytes());
  EXPECT_THROW(r.Tag("BBB1"), StateFormatError);
}

TEST(SerializerTest, TruncatedPayloadThrows) {
  StateWriter w;
  w.U64(7);
  StateReader r(std::string_view(w.bytes()).substr(0, 5));
  EXPECT_THROW(r.U64(), StateFormatError);
}

TEST(SerializerTest, TrailingBytesAreRejected) {
  StateWriter w;
  w.U8(1);
  w.U8(2);
  StateReader r(w.bytes());
  r.U8();
  EXPECT_THROW(r.ExpectEnd(), StateFormatError);
}

TEST(SerializerTest, CountEnforcesUpperBound) {
  StateWriter w;
  w.U64(1000);
  StateReader r(w.bytes());
  EXPECT_THROW(r.Count(999), StateFormatError);
  StateReader r2(w.bytes());
  EXPECT_EQ(r2.Count(1000), 1000u);
}

TEST(SerializerTest, BoolOutOfRangeThrows) {
  StateWriter w;
  w.U8(2);
  StateReader r(w.bytes());
  EXPECT_THROW(r.Bool(), StateFormatError);
}

// A corrupted string length must fail in Count, not as a giant allocation.
TEST(SerializerTest, StrLengthBeyondPayloadThrows) {
  StateWriter w;
  w.U64(1ULL << 40);  // claims a terabyte of string
  StateReader r(w.bytes());
  EXPECT_THROW(r.Str(), StateFormatError);
}

// --- envelope: wrap / unwrap ------------------------------------------------

std::string SamplePayload() {
  StateWriter w;
  CheckpointMeta meta;
  meta.kind = "single";
  meta.next_slot = 128;
  meta.trace_events = 17;
  meta.journal_bytes = 911;
  meta.committed_total_raw = 123456789;
  meta.Save(w);
  w.Tag("ENG1");
  w.I64(-5);
  return w.bytes();
}

TEST(CheckpointEnvelopeTest, WrapUnwrapRoundTrips) {
  const std::string payload = SamplePayload();
  const std::string blob = WrapCheckpoint(payload);
  EXPECT_EQ(blob.substr(0, kCheckpointMagic.size()), kCheckpointMagic);
  EXPECT_EQ(UnwrapCheckpoint(blob, "unit"), payload);
}

// Every corruption mode must throw a CheckpointError whose message names
// the source we passed in — that is the operator's only clue which of a
// directory of checkpoint files went bad.
void ExpectRejected(const std::string& blob, const std::string& why) {
  try {
    UnwrapCheckpoint(blob, "victim.ckpt");
    FAIL() << "corrupt blob accepted (" << why << ")";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("victim.ckpt"), std::string::npos)
        << why << ": error does not name the source: " << e.what();
  }
}

TEST(CheckpointEnvelopeTest, TruncatedHeaderRejected) {
  const std::string blob = WrapCheckpoint(SamplePayload());
  ExpectRejected(blob.substr(0, 3), "3-byte file");
  ExpectRejected("", "empty file");
}

TEST(CheckpointEnvelopeTest, BadMagicRejected) {
  std::string blob = WrapCheckpoint(SamplePayload());
  blob[0] = 'X';
  ExpectRejected(blob, "flipped magic byte");
  ExpectRejected(std::string(64, 'z'), "not a checkpoint at all");
}

TEST(CheckpointEnvelopeTest, WrongVersionRejected) {
  std::string blob = WrapCheckpoint(SamplePayload());
  // The version u32 sits immediately after the 8-byte magic.
  blob[kCheckpointMagic.size()] =
      static_cast<char>(kCheckpointVersion + 1);
  try {
    UnwrapCheckpoint(blob, "victim.ckpt");
    FAIL() << "future-version blob accepted";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find("victim.ckpt"), std::string::npos) << what;
  }
}

TEST(CheckpointEnvelopeTest, CrcMismatchRejected) {
  std::string blob = WrapCheckpoint(SamplePayload());
  blob.back() = static_cast<char>(blob.back() ^ 0x01);  // one flipped bit
  ExpectRejected(blob, "payload bit flip");
}

TEST(CheckpointEnvelopeTest, TornWriteRejected) {
  const std::string blob = WrapCheckpoint(SamplePayload());
  // A torn write leaves a valid header but a short payload.
  ExpectRejected(blob.substr(0, blob.size() - 4), "payload cut short");
  // And appending garbage (two writes interleaved) must fail too.
  ExpectRejected(blob + "tail", "payload runs long");
}

TEST(CheckpointEnvelopeTest, Crc32MatchesKnownVector) {
  // The classic IEEE CRC-32 check value — pins the polynomial and the
  // reflection convention every envelope version has used.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

// --- meta and debug readers --------------------------------------------------

TEST(CheckpointMetaTest, ReadCheckpointMetaRoundTrips) {
  const std::string blob = WrapCheckpoint(SamplePayload());
  const CheckpointMeta meta = ReadCheckpointMeta(blob, "unit");
  EXPECT_EQ(meta.kind, "single");
  EXPECT_EQ(meta.next_slot, 128);
  EXPECT_EQ(meta.trace_events, 17);
  EXPECT_EQ(meta.journal_bytes, 911);
  EXPECT_EQ(meta.committed_total_raw, 123456789);
}

TEST(CheckpointMetaTest, GarbagePayloadRejectedByMetaReader) {
  // Valid envelope around bytes that are not a META section.
  const std::string blob = WrapCheckpoint("definitely not a meta section");
  EXPECT_THROW(ReadCheckpointMeta(blob, "victim.ckpt"), CheckpointError);
}

TEST(CheckpointMetaTest, DebugJsonSummarizesEnvelopeAndMeta) {
  const std::string blob = WrapCheckpoint(SamplePayload());
  const std::string json = CheckpointDebugJson(blob, "unit");
  EXPECT_NE(json.find("\"kind\":\"single\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"next_slot\":128"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_events\":17"), std::string::npos) << json;
  EXPECT_NE(json.find("\"version\":" + std::to_string(kCheckpointVersion)),
            std::string::npos)
      << json;
}

// --- file layer ---------------------------------------------------------------

// Each test gets its own directory (test name + pid): ctest runs these
// tests as parallel processes, and one test's TearDown must never delete
// the directory another is writing to.
class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = std::filesystem::temp_directory_path() /
           ("bwalloc_ckpt_file_test." + name + "." +
            std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(CheckpointFileTest, WriteReadRoundTripLeavesNoTempFile) {
  const std::string payload = SamplePayload();
  const std::string path = (dir_ / "run.ckpt").string();
  WriteCheckpointFile(path, payload);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "atomic write left its temp file behind";
  EXPECT_EQ(ReadCheckpointFile(path), payload);
}

TEST_F(CheckpointFileTest, RollingWriteReplacesPreviousCheckpoint) {
  const std::string path = (dir_ / "run.ckpt").string();
  WriteCheckpointFile(path, "first");
  WriteCheckpointFile(path, "second");
  EXPECT_EQ(ReadCheckpointFile(path), "second");
}

TEST_F(CheckpointFileTest, MissingFileNamedInError) {
  const std::string path = (dir_ / "no_such.ckpt").string();
  try {
    ReadCheckpointFile(path);
    FAIL() << "missing file accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such.ckpt"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointFileTest, CorruptedFileOnDiskRejected) {
  const std::string path = (dir_ / "run.ckpt").string();
  WriteCheckpointFile(path, SamplePayload());
  // Flip one bit of the last payload byte on disk (XOR, not overwrite —
  // the payload happens to end in 0xFF).
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(-1, std::ios::end);
  char c = 0;
  f.read(&c, 1);
  f.seekp(-1, std::ios::end);
  c = static_cast<char>(c ^ 0x01);
  f.write(&c, 1);
  f.close();
  EXPECT_THROW(ReadCheckpointFile(path), CheckpointError);
}

TEST_F(CheckpointFileTest, TornFileOnDiskRejected) {
  const std::string path = (dir_ / "run.ckpt").string();
  WriteCheckpointFile(path, SamplePayload());
  // Simulate a crash mid-write at the published path (the failure mode the
  // temp+rename protocol prevents, but an operator can still hand us one).
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(ReadCheckpointFile(path), CheckpointError);
}

TEST(PublishCheckpointTest, CaptureModeWrapsWithoutTouchingDisk) {
  CheckpointOptions opts;
  std::string blob;
  opts.capture = &blob;
  PublishCheckpoint(opts, "payload bytes");
  EXPECT_EQ(UnwrapCheckpoint(blob, "capture"), "payload bytes");
}

// --- adversarial truncation sweep over a real churned checkpoint ------------
//
// The blobs above are hand-built minimal payloads; a production checkpoint
// of a churned multi-session run additionally carries the engine counters,
// the system's state, and the ChurnDriver's CHN1 section (phase vector,
// pending set, admission ledger). Every way of cutting or extending those
// bytes must surface as a structured exception through the resume path —
// CheckpointError or std::invalid_argument — never a crash, hang, or a
// silently mis-restored run.

// Runs a small churned workload to completion, capturing the last rolling
// checkpoint blob the engine published.
std::string ChurnedCheckpointBlob() {
  ArrivalParams ap;
  ap.horizon = 200;
  ap.offline_bandwidth = 64;
  ap.offline_delay = 8;
  ap.arrival_rate = 0.3;
  ap.max_book_ahead = 4;
  ap.seed = 21;
  const ChurnPlan plan = GenerateArrivals(ArrivalProcess::kPoisson, ap);
  AdmissionConfig ac;
  ac.policy = AdmissionPolicyKind::kLedger;
  ac.capacity = 64;
  ac.horizon = ap.horizon;
  AdmissionController policy(ac);
  ChurnDriver driver(plan, policy, /*max_pending=*/4);
  MultiSessionParams mp;
  mp.sessions = plan.sessions;
  mp.offline_bandwidth = 64;
  mp.offline_delay = 8;
  PhasedMulti system(mp);
  MultiEngineOptions opt;
  opt.churn = &driver;
  std::string blob;
  opt.checkpoint.every = 64;
  opt.checkpoint.capture = &blob;
  RunMultiSessionEvent(plan.MaterializeTraces(), system, opt);
  EXPECT_FALSE(blob.empty());
  return blob;
}

// Attempts to resume a fresh churned run from `blob`. Returns true iff the
// resume path rejected it with a structured exception; a successful restore
// from a tampered blob returns false and fails the sweep.
bool ResumeRejectsStructurally(const std::string& blob) {
  ArrivalParams ap;
  ap.horizon = 200;
  ap.offline_bandwidth = 64;
  ap.offline_delay = 8;
  ap.arrival_rate = 0.3;
  ap.max_book_ahead = 4;
  ap.seed = 21;
  const ChurnPlan plan = GenerateArrivals(ArrivalProcess::kPoisson, ap);
  AdmissionConfig ac;
  ac.policy = AdmissionPolicyKind::kLedger;
  ac.capacity = 64;
  ac.horizon = ap.horizon;
  AdmissionController policy(ac);
  ChurnDriver driver(plan, policy, /*max_pending=*/4);
  MultiSessionParams mp;
  mp.sessions = plan.sessions;
  mp.offline_bandwidth = 64;
  mp.offline_delay = 8;
  PhasedMulti system(mp);
  MultiEngineOptions opt;
  opt.churn = &driver;
  opt.checkpoint.resume = &blob;
  try {
    RunMultiSessionEvent(plan.MaterializeTraces(), system, opt);
    return false;
  } catch (const CheckpointError&) {
    return true;
  } catch (const StateFormatError&) {
    return true;
  } catch (const std::invalid_argument&) {
    return true;
  }
}

TEST(CheckpointTruncationSweep, EveryEnvelopeTruncationIsRejected) {
  const std::string blob = ChurnedCheckpointBlob();
  // The envelope CRC covers the whole payload, so any prefix is caught at
  // unwrap. Sweep a seeded random sample plus every length near the header
  // and the tail, where the length/CRC fields live.
  std::mt19937_64 rng(0xC0FFEEu);
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < std::min<std::size_t>(blob.size(), 32); ++i) {
    cuts.push_back(i);
  }
  for (std::size_t i = 1; i <= std::min<std::size_t>(blob.size(), 8); ++i) {
    cuts.push_back(blob.size() - i);
  }
  for (int i = 0; i < 256; ++i) {
    cuts.push_back(rng() % blob.size());
  }
  for (const std::size_t cut : cuts) {
    EXPECT_THROW(UnwrapCheckpoint(blob.substr(0, cut), "sweep"),
                 CheckpointError)
        << "truncated to " << cut << " of " << blob.size() << " bytes";
  }
}

TEST(CheckpointTruncationSweep, EveryPayloadTruncationFailsStructurally) {
  // Re-wrapping a cut payload gives it a valid envelope (magic, version,
  // length, CRC all self-consistent), so these blobs reach the StateReader
  // parse inside the engine's resume path. Every cut must still fail with
  // a structured error — this is the layer where a lazy reader would run
  // off the end or mis-restore.
  const std::string payload =
      UnwrapCheckpoint(ChurnedCheckpointBlob(), "sweep");
  std::mt19937_64 rng(0xBADC0DEu);
  std::vector<std::size_t> cuts = {0, 1, 2, 3};
  for (std::size_t i = 1; i <= 4; ++i) cuts.push_back(payload.size() - i);
  for (int i = 0; i < 96; ++i) cuts.push_back(rng() % payload.size());
  for (const std::size_t cut : cuts) {
    EXPECT_TRUE(ResumeRejectsStructurally(WrapCheckpoint(
        payload.substr(0, cut))))
        << "payload truncated to " << cut << " of " << payload.size()
        << " bytes restored without a structured error";
  }
}

TEST(CheckpointTruncationSweep, GarbageTailsAndBitFlipsFailStructurally) {
  const std::string payload =
      UnwrapCheckpoint(ChurnedCheckpointBlob(), "sweep");
  std::mt19937_64 rng(0x5EEDu);
  // Trailing garbage after a complete payload: ExpectEnd must refuse it.
  for (const std::size_t extra : {std::size_t{1}, std::size_t{7},
                                  std::size_t{256}}) {
    std::string tail(extra, '\0');
    for (char& c : tail) c = static_cast<char>(rng());
    EXPECT_TRUE(ResumeRejectsStructurally(WrapCheckpoint(payload + tail)))
        << extra << " garbage tail bytes restored without an error";
  }
  // Single-byte corruptions under a re-computed (valid) CRC. Most flips
  // land in value bytes and restore to a *different but well-formed* state
  // — that is the CRC's job to catch, not the reader's, so only reject
  // claims that throw something unstructured (the try/catch in
  // ResumeRejectsStructurally would rethrow and abort the test).
  for (int i = 0; i < 64; ++i) {
    std::string bent = payload;
    const std::size_t at = rng() % bent.size();
    bent[at] = static_cast<char>(bent[at] ^ (1 << (rng() % 8u)));
    (void)ResumeRejectsStructurally(WrapCheckpoint(bent));
  }
}

}  // namespace
}  // namespace bwalloc
