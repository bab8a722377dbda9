// Session churn scenario (extension): an access gateway where subscribers
// dial in and hang up continuously. Poisson session requests, each asking
// for a fixed rate over a lifetime that may be booked ahead, pass a
// reservation-ledger admission controller; the ChurnDriver joins admitted
// sessions at their start slot and departs them at the end of their
// window; the phased algorithm (Theorem 14) allocates underneath.
//
// Each of the plan's channel slots keeps the share B_O / k (k = sessions
// the plan ever offers). A departing subscriber's queued bits are dropped
// and counted in churn.dropped_bits, so every bit sent is delivered,
// still queued, or dropped at a departure.
#include <cstdio>

#include "core/admission.h"
#include "core/multi_phased.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "traffic/arrivals.h"
#include "util/assert.h"

using namespace bwalloc;

int main() {
  const Bits uplink = 256;  // B_O bits/slot
  const Time sla = 12;      // D_O slots
  const Time horizon = 30000;

  ArrivalParams arrivals;
  arrivals.horizon = horizon;
  arrivals.offline_bandwidth = uplink;
  arrivals.offline_delay = sla;
  arrivals.arrival_rate = 0.01;  // one dial-in per 100 slots on average
  arrivals.mean_hold = 600;
  arrivals.max_book_ahead = 4 * sla;
  arrivals.seed = 2026;
  const ChurnPlan plan = GenerateArrivals(ArrivalProcess::kPoisson, arrivals);

  AdmissionConfig admission;
  admission.policy = AdmissionPolicyKind::kLedger;
  admission.capacity = uplink;
  admission.horizon = horizon;
  AdmissionController controller(admission);
  ChurnDriver driver(plan, controller, /*max_pending=*/8);

  MultiSessionParams params;
  params.sessions = plan.sessions;
  params.offline_bandwidth = uplink;
  params.offline_delay = sla;
  PhasedMulti gateway(params);

  MultiEngineOptions options;
  options.drain_slots = 4 * sla;
  options.churn = &driver;
  const MultiRunResult r =
      RunMultiSessionEvent(plan.MaterializeTraces(), gateway, options);

  const ChurnStats& churn = r.churn;
  BW_CHECK(r.total_arrivals ==
               r.total_delivered + r.final_queue + churn.dropped_bits,
           "sent != delivered + queued + dropped at departure");

  std::printf("Access gateway under churn (%lld slots, %lld channel slots):\n",
              static_cast<long long>(horizon),
              static_cast<long long>(plan.sessions));
  std::printf("  dial-ins offered       : %lld (admitted %lld, rejected %lld, "
              "shed %lld)\n",
              static_cast<long long>(churn.offered),
              static_cast<long long>(churn.admitted),
              static_cast<long long>(churn.rejected),
              static_cast<long long>(churn.shed));
  std::printf("  hang-ups               : %lld\n",
              static_cast<long long>(churn.departed));
  std::printf("  bits sent / delivered  : %lld / %lld\n",
              static_cast<long long>(r.total_arrivals),
              static_cast<long long>(r.total_delivered));
  std::printf("  dropped at hang-up     : %lld bits (still queued %lld)\n",
              static_cast<long long>(churn.dropped_bits),
              static_cast<long long>(r.final_queue));
  std::printf("  max delay              : %lld slots (D_O = %lld)\n",
              static_cast<long long>(r.delay.max_delay()),
              static_cast<long long>(sla));
  std::printf("  p99 / mean delay       : %lld / %.2f slots\n",
              static_cast<long long>(r.delay.Percentile(0.99)),
              r.delay.MeanDelay());
  std::printf("  allocation changes     : %lld (%lld stages)\n",
              static_cast<long long>(r.local_changes),
              static_cast<long long>(r.stages));
  std::printf(
      "\nThe ledger admits a booked session only if every slot of its window "
      "has room\nunder B_O; the bits a subscriber leaves queued at hang-up "
      "are the only loss.\n");
  return 0;
}
