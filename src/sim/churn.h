// Dynamic session churn: arrival/departure plans, the admission-policy
// interface, and the ChurnDriver that executes a plan against a running
// MultiSessionSystem.
//
// A ChurnPlan is materialized before the run, exactly like arrival traces:
// every session the plan will ever offer owns a fixed channel slot, and its
// offered traffic is a dense rate over [start, depart). What is *dynamic*
// is the admission decision (made at the arrival slot, possibly booking a
// start `book_delay` slots ahead) and the session lifecycle the driver
// executes at slot granularity — join, depart, overload shed. The engine
// runs the driver at the same point of every slot whether or not the
// system prunes, so churn events and lifecycle transitions land at
// identical points in pruned and full-sweep traces and the byte-identity
// gate extends to churned runs unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/telemetry/shard.h"
#include "obs/tracer.h"
#include "sim/engine_multi.h"
#include "sim/run_result.h"
#include "state/serializer.h"
#include "util/types.h"

namespace bwalloc {

// One offered session: presented for admission at `arrive`, asking to send
// `rate` bits per slot over [arrive + book_delay, depart).
struct SessionSpec {
  std::int64_t session = 0;  // channel slot this session occupies
  Time arrive = 0;           // slot the request is presented for admission
  Time book_delay = 0;       // book-ahead: traffic starts at arrive + this
  Time depart = 0;           // exclusive end of the session's window
  Bits rate = 0;             // offered bits per slot while active
  std::int64_t weight = 0;   // shed priority: lowest weight sheds first

  Time start() const { return arrive + book_delay; }

  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

// Rejection reason codes carried in kReject's `b` payload.
inline constexpr std::int64_t kRejectCapacity = 1;   // greedy feasibility
inline constexpr std::int64_t kRejectThreshold = 2;  // utilization threshold
inline constexpr std::int64_t kRejectLedger = 3;     // reservation conflict

struct ChurnPlan {
  std::int64_t sessions = 0;  // channel count; every spec's session is < this
  Time horizon = 0;
  // Sorted by (arrive, session); each session id appears at most once — a
  // departed session's channel slot is never reused, so per-session scores
  // and audit streams stay unambiguous.
  std::vector<SessionSpec> specs;

  // Structural invariants (BW_REQUIRE): ids in range and unique, windows
  // non-empty, arrivals inside the horizon, sorted order.
  void Validate() const;

  // Dense offered-traffic traces, one per channel slot: `rate` bits in
  // every slot of [start, depart) clipped to the horizon. The engines mask
  // these by the live active set, so only admitted+started traffic is ever
  // enqueued.
  std::vector<std::vector<Bits>> MaterializeTraces() const;

  // Total offered bits across all specs (clipped to the horizon) — the
  // equal-offered-load denominator for honest vs adversarial comparisons.
  Bits OfferedBits() const;
};

// Admission verdict for one arriving spec.
struct AdmissionVerdict {
  bool admit = false;
  std::int64_t reason = 0;  // kReject* code when !admit
};

// Policy interface the driver consults once per arriving session. Concrete
// policies (greedy-feasibility, utilization-threshold, reservation-ledger)
// live in core/admission.h; this layer only fixes the contract: Decide at
// the arrival slot, Release exactly once per admitted session that departs
// or is shed, and full state round-trip for checkpoint/restore.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual AdmissionVerdict Decide(const SessionSpec& spec, Time now) = 0;
  virtual void Release(const SessionSpec& spec, Time now) = 0;
  virtual void SaveState(StateWriter& w) const = 0;
  virtual void LoadState(StateReader& r) = 0;
};

// Lifecycle counters; part of MultiRunResult (sim/run_result.h).

class ChurnDriver {
 public:
  // `plan` and `policy` are borrowed and must outlive the driver. The plan
  // must already be Validate()d. max_pending <= 0 disables overload
  // shedding (unbounded book-ahead backlog).
  ChurnDriver(const ChurnPlan& plan, AdmissionPolicy& policy,
              std::int64_t max_pending);

  // Fresh-run initialisation: deactivates every channel slot in `system`
  // (fixed-population systems start all-active). Not called on resume —
  // LoadState and the system's own checkpoint already agree.
  void Prepare(MultiSessionSystem& system);

  // Slot-start lifecycle processing in deterministic order: departures,
  // admission decisions for this slot's arrivals, activations of admitted
  // sessions whose start slot is now, then overload shedding of the
  // lowest-weight pending reservations. Emits kDepart / kAdmit / kReject /
  // kShed through `tracer`; `telemetry` (nullable) gets the admission
  // counters and the pending-depth gauge.
  void BeginSlot(Time now, MultiSessionSystem& system, const Tracer& tracer,
                 telemetry::RuntimeShard* telemetry);

  // True while `session` may submit traffic (admitted, started, not yet
  // departed); the engines zero the arrivals of every other session.
  bool active(std::int64_t session) const {
    return phase_[static_cast<std::size_t>(session)] ==
           static_cast<std::uint8_t>(Phase::kActive);
  }

  const ChurnStats& stats() const { return stats_; }
  std::int64_t pending_depth() const {
    return static_cast<std::int64_t>(pending_.size());
  }

  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  enum class Phase : std::uint8_t {
    kFuture = 0,   // not yet offered
    kPending = 1,  // admitted, waiting for its start slot
    kActive = 2,   // admitted and started
    kRejected = 3,
    kShed = 4,     // admitted then load-shed before starting
    kDeparted = 5,
  };

  void Shed(Time now, std::size_t spec_index, const Tracer& tracer,
            telemetry::RuntimeShard* telemetry);

  const ChurnPlan& plan_;
  AdmissionPolicy& policy_;
  std::int64_t max_pending_ = 0;
  std::size_t next_arrival_ = 0;          // index into plan_.specs
  std::vector<std::size_t> depart_order_; // spec indices by (depart, session)
  std::size_t next_depart_ = 0;           // index into depart_order_
  std::vector<std::uint8_t> phase_;       // per channel slot
  std::vector<std::size_t> pending_;      // spec indices, admission order
  ChurnStats stats_;
};

}  // namespace bwalloc
