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
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/admission.h"
#include "core/multi_phased.h"
#include "core/params.h"
#include "core/single_session.h"
#include "net/faults.h"
#include "net/path.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "state/checkpoint.h"
#include "state/serializer.h"
#include "traffic/arrivals.h"
#include "traffic/workload_suite.h"

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

// The checkpoint bytes are little-endian fixed-width fields, whatever the
// writer does internally: pin them byte for byte, and read the same fields
// back from the hand-built bytes.
TEST(SerializerTest, ScalarByteLayoutIsPinned) {
  StateWriter w;
  w.Tag("TST1");
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFULL);
  w.I64(-42);
  w.Str("hi");

  const std::vector<unsigned char> want = {
      'T',  'S',  'T',  '1',                           // Tag
      0xAB,                                            // U8
      0x01, 0x00,                                      // Bool, Bool
      0xEF, 0xBE, 0xAD, 0xDE,                          // U32
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // U64
      0xD6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // I64(-42)
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // Str length
      'h',  'i'};
  const std::string pinned(want.begin(), want.end());
  EXPECT_EQ(w.bytes(), pinned);

  StateReader r(pinned);
  r.Tag("TST1");
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.Str(), "hi");
  r.ExpectEnd();
}

// Clear keeps a writer usable for the next capture: the bytes start over.
TEST(SerializerTest, ClearStartsTheBytesOver) {
  StateWriter w;
  w.U64(7);
  w.Clear();
  EXPECT_TRUE(w.bytes().empty());
  w.U32(0x01020304u);
  EXPECT_EQ(w.bytes(), std::string("\x04\x03\x02\x01", 4));
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

// Bit-at-a-time CRC-32, independent of the sliced tables Crc32 uses.
std::uint32_t ReferenceCrc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

// Every length 0..67 at every start offset 0..7: the word loop's unaligned
// heads, its bytewise tails, and lengths below one word.
TEST(CheckpointEnvelopeTest, Crc32MatchesReferenceAtEveryOffsetAndLength) {
  const std::string buf = RandomBytes(8 + 67, 0xC2C32u);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const std::string_view s = std::string_view(buf).substr(offset, len);
      EXPECT_EQ(Crc32(s), ReferenceCrc32(s))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(CheckpointEnvelopeTest, Crc32MatchesReferenceOnOneMebibyte) {
  const std::string buf = RandomBytes(std::size_t{1} << 20, 0x1DB71064u);
  EXPECT_EQ(Crc32(buf), ReferenceCrc32(buf));
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

// Both destinations get the one blob PublishCheckpoint wraps.
TEST_F(CheckpointFileTest, PublishToFileAndCaptureDeliversOneBlob) {
  CheckpointOptions opts;
  opts.dir = dir_.string();
  opts.stem = "both";
  std::string blob;
  opts.capture = &blob;
  const std::string payload = SamplePayload();
  PublishCheckpoint(opts, payload);
  std::ifstream in(dir_ / "both.ckpt", std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(blob, WrapCheckpoint(payload));
  EXPECT_EQ(on_disk, blob);
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

// --- adversarial truncation sweep over real engine checkpoints -------------
//
// The blobs above are hand-built minimal payloads; a production checkpoint
// of a churned multi-session run additionally carries the engine counters,
// the system's state, and the ChurnDriver's CHN1 section (phase vector,
// pending set, admission ledger), and a single-session one carries the
// queue, the allocator and its signalling lane. Every way of cutting or
// extending those bytes must surface as a structured exception through
// either engine's resume path — CheckpointError or std::invalid_argument —
// never a crash, hang, or a silently mis-restored run.

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

// True iff `run` rejects its resume blob with a structured exception; a
// successful restore from a tampered blob returns false and fails the
// sweep. Anything unstructured propagates and fails the test.
template <class Run>
bool RejectsStructurally(Run run) {
  try {
    run();
    return false;
  } catch (const CheckpointError&) {
    return true;
  } catch (const StateFormatError&) {
    return true;
  } catch (const std::invalid_argument&) {
    return true;
  }
}

// Attempts to resume a fresh churned run from `blob`.
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
  return RejectsStructurally(
      [&] { RunMultiSessionEvent(plan.MaterializeTraces(), system, opt); });
}

// The single engine's counterpart: the online algorithm behind the
// signalling adapter, so the payload carries the fault lane's state too.
std::unique_ptr<SingleSessionAllocator> FaultedSingleAllocator() {
  SingleSessionParams p;
  p.max_bandwidth = 64;
  p.max_delay = 16;
  p.min_utilization = Ratio(1, 6);
  p.window = 16;
  FaultPlan plan;
  plan.loss_rate = 0.1;
  plan.denial_rate = 0.05;
  plan.max_jitter = 1;
  plan.seed = 5;
  RobustOptions ropts;
  ropts.fallback_bandwidth = p.max_bandwidth;
  return std::make_unique<RobustSignalingAdapter>(
      std::make_unique<SingleSessionOnline>(p),
      NetworkPath::Uniform(2, 1, 1.0), plan, ropts);
}

std::vector<Bits> SingleCheckpointTrace() {
  return SingleSessionWorkload("mixed", 64, 8, 300, 3);
}

std::string SingleCheckpointBlob() {
  const std::unique_ptr<SingleSessionAllocator> alloc =
      FaultedSingleAllocator();
  SingleEngineOptions opt;
  std::string blob;
  opt.checkpoint.every = 64;
  opt.checkpoint.capture = &blob;
  RunSingleSession(SingleCheckpointTrace(), *alloc, opt);
  EXPECT_FALSE(blob.empty());
  return blob;
}

bool SingleResumeRejectsStructurally(const std::string& blob) {
  const std::unique_ptr<SingleSessionAllocator> alloc =
      FaultedSingleAllocator();
  SingleEngineOptions opt;
  opt.checkpoint.resume = &blob;
  return RejectsStructurally(
      [&] { RunSingleSession(SingleCheckpointTrace(), *alloc, opt); });
}

// Both engines resume through the same checkpoint protocol; the sweeps
// below feed each its own real checkpoint.
struct SweepInput {
  const char* engine;
  std::string (*blob)();
  bool (*resume_rejects)(const std::string&);
};
const SweepInput kSweepInputs[] = {
    {"multi", ChurnedCheckpointBlob, ResumeRejectsStructurally},
    {"single", SingleCheckpointBlob, SingleResumeRejectsStructurally},
};

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
  for (const SweepInput& input : kSweepInputs) {
    const std::string payload = UnwrapCheckpoint(input.blob(), "sweep");
    std::mt19937_64 rng(0xBADC0DEu);
    std::vector<std::size_t> cuts = {0, 1, 2, 3};
    for (std::size_t i = 1; i <= 4; ++i) cuts.push_back(payload.size() - i);
    for (int i = 0; i < 96; ++i) cuts.push_back(rng() % payload.size());
    for (const std::size_t cut : cuts) {
      EXPECT_TRUE(input.resume_rejects(WrapCheckpoint(payload.substr(0, cut))))
          << input.engine << " payload truncated to " << cut << " of "
          << payload.size() << " bytes restored without a structured error";
    }
  }
}

// The envelope's own defence, with no re-wrap: a single flipped bit
// anywhere in a real churned payload must fail the CRC. A CRC-32 detects
// every single-bit error, so each sampled flip is rejected, not most.
TEST(CheckpointTruncationSweep, PayloadBitFlipsFailTheCrc) {
  const std::string blob = ChurnedCheckpointBlob();
  const std::size_t header = kCheckpointMagic.size() + 4 + 8 + 4;
  ASSERT_GT(blob.size(), header);
  const std::size_t payload = blob.size() - header;
  std::mt19937_64 rng(0xF1195u);
  std::vector<std::size_t> at = {header, blob.size() - 1};
  for (int i = 0; i < 254; ++i) at.push_back(header + rng() % payload);
  for (const std::size_t byte : at) {
    const int bit = static_cast<int>(rng() % 8u);
    std::string bent = blob;
    bent[byte] = static_cast<char>(bent[byte] ^ (1 << bit));
    try {
      UnwrapCheckpoint(bent, "flip");
      ADD_FAILURE() << "flip of bit " << bit << " of byte " << byte
                    << " passed the CRC";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
          << "byte " << byte << ": " << e.what();
    }
  }
}

TEST(CheckpointTruncationSweep, GarbageTailsAndBitFlipsFailStructurally) {
  for (const SweepInput& input : kSweepInputs) {
    const std::string payload = UnwrapCheckpoint(input.blob(), "sweep");
    std::mt19937_64 rng(0x5EEDu);
    // Trailing garbage after a complete payload: ExpectEnd must refuse it.
    for (const std::size_t extra : {std::size_t{1}, std::size_t{7},
                                    std::size_t{256}}) {
      std::string tail(extra, '\0');
      for (char& c : tail) c = static_cast<char>(rng());
      EXPECT_TRUE(input.resume_rejects(WrapCheckpoint(payload + tail)))
          << input.engine << ": " << extra
          << " garbage tail bytes restored without an error";
    }
    // Single-byte corruptions under a re-computed (valid) CRC. Most flips
    // land in value bytes and restore to a *different but well-formed*
    // state — that is the CRC's job to catch, not the reader's, so only
    // reject claims that throw something unstructured (RejectsStructurally
    // lets it propagate and fail the test).
    for (int i = 0; i < 64; ++i) {
      std::string bent = payload;
      const std::size_t at = rng() % bent.size();
      bent[at] = static_cast<char>(bent[at] ^ (1 << (rng() % 8u)));
      (void)input.resume_rejects(WrapCheckpoint(bent));
    }
  }
}

}  // namespace
}  // namespace bwalloc
