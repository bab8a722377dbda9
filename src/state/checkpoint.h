// Versioned checkpoint envelope and crash-injection plumbing.
//
// A checkpoint is an opaque StateWriter payload wrapped in a fixed
// envelope:
//
//   magic "BWCKPT1\n" (8) | version u32 | payload length u64 |
//   CRC-32 of payload u32 | payload bytes
//
// The envelope is what makes corruption *detectable*: truncation, a torn
// mid-write file, a stale version, or a flipped bit all fail UnwrapCheckpoint
// with a CheckpointError naming the source, never a silent mis-restore.
// File writes are atomic (temp file + rename) so a crash during
// checkpointing leaves either the previous checkpoint or a complete new
// one, never a torn file at the published path.
//
// Every payload starts with a CheckpointMeta section written by the engine
// that captured it: what kind of run it was, the slot to resume from, and
// the trace-journal position (event count + byte offset) so the caller can
// truncate the journal back to the exact capture point and replay it into
// a fresh auditor. CheckpointDebugJson renders the envelope + meta as one
// JSON object for `bwsim checkpoint-dump`.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/telemetry/shard.h"
#include "state/serializer.h"
#include "util/types.h"

namespace bwalloc {

// A checkpoint blob or file that cannot be used: missing, truncated, bad
// magic, wrong version, or CRC mismatch. what() names the source. CLI
// front ends map this to exit code 2 (a usage-level error: the operator
// pointed --resume-from at a bad file).
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Deterministic injected crash (--crash-at-slot / a runner CrashPlan).
// CLI front ends map this to exit code 3 so scripts can distinguish an
// intentional crash from a real failure.
class CrashInjected : public std::runtime_error {
 public:
  explicit CrashInjected(Time slot)
      : std::runtime_error("injected crash after slot " +
                           std::to_string(slot)),
        slot_(slot) {}
  Time slot() const { return slot_; }

 private:
  Time slot_;
};

inline constexpr std::string_view kCheckpointMagic = "BWCKPT1\n";
// Bumped whenever a payload layout changes; other versions are refused.
inline constexpr std::uint32_t kCheckpointVersion = 2;

// CheckpointMeta::kind of each engine's checkpoints. A resume refuses any
// other kind.
inline constexpr std::string_view kSingleCheckpointKind = "single";
inline constexpr std::string_view kMultiCheckpointKind = "multi-event";

// CRC-32 (IEEE 802.3 polynomial, the zlib convention).
std::uint32_t Crc32(std::string_view data);

// Adds the envelope around a serialized payload.
std::string WrapCheckpoint(std::string_view payload);

// Validates the envelope and returns the payload. Throws CheckpointError
// (message includes `source`) on any defect.
std::string UnwrapCheckpoint(std::string_view blob, const std::string& source);

// Atomically writes `payload` (wrapped) to `path`: the bytes land in
// `path + ".tmp"` first and are renamed over `path` only once complete.
// Throws CheckpointError on I/O failure.
void WriteCheckpointFile(const std::string& path, std::string_view payload);

// Reads and unwraps a checkpoint file. Throws CheckpointError naming the
// file when it is missing or fails validation.
std::string ReadCheckpointFile(const std::string& path);

// Header section every engine writes first into a checkpoint payload.
struct CheckpointMeta {
  std::string kind;  // kSingleCheckpointKind | kMultiCheckpointKind
  Time next_slot = 0;               // first slot the resumed run executes
  std::int64_t trace_events = 0;    // journal events emitted at capture
  std::int64_t journal_bytes = 0;   // journal byte offset at capture
  std::int64_t committed_total_raw = 0;  // cumulative allocated Q16 units

  void Save(StateWriter& w) const;
  void Load(StateReader& r);
};

// One-line JSON summary (envelope + meta) of a wrapped checkpoint blob.
// Throws CheckpointError (naming `source`) when the blob is invalid.
std::string CheckpointDebugJson(std::string_view blob,
                                const std::string& source);

// Validates a wrapped blob and returns just its meta header — what a
// recovering caller needs (journal truncation point, resume slot) before
// deciding to run the engine at all. Throws CheckpointError naming
// `source` on an invalid envelope or an unreadable meta section.
CheckpointMeta ReadCheckpointMeta(std::string_view blob,
                                  const std::string& source);

// Engine-side checkpoint/crash/resume controls, shared by the single- and
// multi-session engines (a member of their options structs).
struct CheckpointOptions {
  // Capture a checkpoint after every slot t with (t + 1) % every == 0;
  // 0 disables checkpointing entirely.
  Time every = 0;
  // Throw CrashInjected immediately after finishing slot `crash_at`
  // (after any checkpoint due that slot); kNoTime disables.
  Time crash_at = kNoTime;
  // File mode: write each capture atomically to <dir>/<stem>.ckpt
  // (rolling — each capture replaces the last). Empty = no file.
  std::string dir;
  std::string stem = "run";
  // In-memory mode: each capture overwrites *capture with the wrapped
  // blob (tests and the supervised batch runner restore from here).
  std::string* capture = nullptr;
  // Resume: restore engine + system state from this wrapped blob before
  // running; the engine starts at the checkpoint's next_slot.
  const std::string* resume = nullptr;
  // Negative control: after a restore, nudge one restored allocation
  // shadow by 1 raw unit. A correct differential harness must catch the
  // resulting spurious alloc-change bytes.
  bool perturb_restore_for_test = false;
  // Live telemetry lane: PublishCheckpoint counts each publish and records
  // its wall-clock cost here. Never touches the checkpoint bytes.
  telemetry::RuntimeShard* telemetry = nullptr;

  bool enabled() const { return every > 0 || resume != nullptr; }
};

// Wraps a serialized payload once and delivers it to every destination the
// options configure (the rolling <dir>/<stem>.ckpt file and/or *capture).
void PublishCheckpoint(const CheckpointOptions& options,
                       std::string_view payload);

}  // namespace bwalloc
