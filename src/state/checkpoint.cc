#include "state/checkpoint.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/telemetry/hub.h"
#include "util/assert.h"
#include "util/json_writer.h"

namespace bwalloc {

namespace {

// Slicing-by-8 tables: [0] is the classic bytewise table, and [s][b] is
// the CRC of byte b followed by s zero bytes, so eight lookups fold one
// 8-byte word into the running CRC.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

[[noreturn]] void Reject(const std::string& source, const std::string& why) {
  throw CheckpointError("checkpoint " + source + ": " + why);
}

// Writes an already wrapped blob to `path` through a temp file + rename.
void WriteBlobAtomically(const std::string& path, std::string_view blob) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) Reject(tmp, "cannot open for writing");
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) Reject(tmp, "write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) Reject(path, "atomic rename failed: " + ec.message());
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  static const CrcTables t = MakeCrcTables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  // The word load assumes a little-endian host, as the serializer does.
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    word ^= crc;
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
          t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
          t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
          t[1][(word >> 48) & 0xFFu] ^ t[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string WrapCheckpoint(std::string_view payload) {
  StateWriter w;
  w.U32(kCheckpointVersion);
  w.U64(payload.size());
  w.U32(Crc32(payload));
  std::string out;
  out.reserve(kCheckpointMagic.size() + w.bytes().size() + payload.size());
  out += kCheckpointMagic;
  out += w.bytes();
  out += payload;
  return out;
}

std::string UnwrapCheckpoint(std::string_view blob,
                             const std::string& source) {
  const std::size_t header = kCheckpointMagic.size() + 4 + 8 + 4;
  if (blob.size() < header) {
    Reject(source, "truncated header (" + std::to_string(blob.size()) +
                       " bytes, need " + std::to_string(header) + ")");
  }
  if (blob.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
    Reject(source, "bad magic (not a checkpoint file)");
  }
  StateReader r(blob.substr(kCheckpointMagic.size()));
  const std::uint32_t version = r.U32();
  if (version != kCheckpointVersion) {
    Reject(source, "unsupported version " + std::to_string(version) +
                       " (this build reads version " +
                       std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint64_t payload_len = r.U64();
  const std::uint32_t crc = r.U32();
  if (payload_len != r.remaining()) {
    Reject(source, "payload length mismatch (header says " +
                       std::to_string(payload_len) + ", file holds " +
                       std::to_string(r.remaining()) + " — torn write?)");
  }
  const std::string_view payload = blob.substr(header);
  if (Crc32(payload) != crc) {
    Reject(source, "CRC mismatch (corrupted payload)");
  }
  return std::string(payload);
}

void WriteCheckpointFile(const std::string& path, std::string_view payload) {
  WriteBlobAtomically(path, WrapCheckpoint(payload));
}

std::string ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Reject(path, "cannot open (missing or unreadable)");
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return UnwrapCheckpoint(blob, path);
}

void CheckpointMeta::Save(StateWriter& w) const {
  w.Tag("META");
  w.Str(kind);
  w.I64(next_slot);
  w.I64(trace_events);
  w.I64(journal_bytes);
  w.I64(committed_total_raw);
}

void CheckpointMeta::Load(StateReader& r) {
  r.Tag("META");
  kind = r.Str();
  next_slot = r.I64();
  trace_events = r.I64();
  journal_bytes = r.I64();
  committed_total_raw = r.I64();
}

CheckpointMeta ReadCheckpointMeta(std::string_view blob,
                                  const std::string& source) {
  const std::string payload = UnwrapCheckpoint(blob, source);
  CheckpointMeta meta;
  try {
    StateReader r(payload);
    meta.Load(r);
  } catch (const StateFormatError& e) {
    Reject(source, e.what());
  }
  return meta;
}

void PublishCheckpoint(const CheckpointOptions& options,
                       std::string_view payload) {
  const std::int64_t t0 = options.telemetry != nullptr
                              ? telemetry::MonotonicNowNs()
                              : 0;
  if (!options.dir.empty() || options.capture != nullptr) {
    std::string blob = WrapCheckpoint(payload);
    if (!options.dir.empty()) {
      WriteBlobAtomically(options.dir + "/" + options.stem + ".ckpt", blob);
    }
    if (options.capture != nullptr) *options.capture = std::move(blob);
  }
  if (options.telemetry != nullptr) {
    options.telemetry->Add(telemetry::Counter::kCheckpoints);
    options.telemetry->Record(telemetry::Histo::kCheckpointPublishNs,
                              telemetry::MonotonicNowNs() - t0);
  }
}

void CaptureCheckpoint(const CheckpointOptions& options, const Tracer& tracer,
                       std::string_view kind, Time t,
                       std::int64_t committed_total_raw, StateWriter& buffer,
                       const std::function<void(StateWriter&)>& save_sections) {
  tracer.Emit(TraceEventType::kCheckpoint, t, -1, committed_total_raw, t + 1);
  CheckpointMeta meta;
  meta.kind = kind;
  meta.next_slot = t + 1;
  if (tracer.sink() != nullptr) {
    meta.trace_events = tracer.sink()->events_written();
    meta.journal_bytes = tracer.sink()->bytes_written();
  }
  meta.committed_total_raw = committed_total_raw;
  buffer.Clear();
  meta.Save(buffer);
  save_sections(buffer);
  PublishCheckpoint(options, buffer.bytes());
}

Time ResumeCheckpoint(const std::string& blob, std::string_view kind,
                      const char* engine, Time first_slot, Time horizon,
                      const std::function<void(StateReader&)>& load_sections) {
  const std::string payload = UnwrapCheckpoint(blob, "resume blob");
  try {
    StateReader r(payload);
    CheckpointMeta meta;
    meta.Load(r);
    if (meta.kind != kind) {
      Reject("resume blob", "kind is '" + meta.kind +
                                "', this engine resumes '" +
                                std::string(kind) + "' checkpoints");
    }
    BW_REQUIRE(meta.next_slot >= first_slot && meta.next_slot <= horizon,
               std::string(engine) +
                   ": checkpoint resume slot outside horizon");
    load_sections(r);
    r.ExpectEnd();
    return meta.next_slot;
  } catch (const StateFormatError& e) {
    Reject("resume blob", e.what());
  }
}

std::string CheckpointDebugJson(std::string_view blob,
                                const std::string& source) {
  const std::string payload = UnwrapCheckpoint(blob, source);
  CheckpointMeta meta;
  try {
    StateReader r(payload);
    meta.Load(r);
  } catch (const StateFormatError& e) {
    Reject(source, e.what());
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("magic");
  w.Value(std::string(kCheckpointMagic.substr(0, 7)));
  w.Key("version");
  w.Value(static_cast<std::int64_t>(kCheckpointVersion));
  w.Key("payload_bytes");
  w.Value(static_cast<std::int64_t>(payload.size()));
  w.Key("crc32");
  w.Value(static_cast<std::int64_t>(Crc32(payload)));
  w.Key("kind");
  w.Value(meta.kind);
  w.Key("next_slot");
  w.Value(meta.next_slot);
  w.Key("trace_events");
  w.Value(meta.trace_events);
  w.Key("journal_bytes");
  w.Value(meta.journal_bytes);
  w.Key("committed_total_raw");
  w.Value(meta.committed_total_raw);
  w.EndObject();
  return w.str();
}

}  // namespace bwalloc
