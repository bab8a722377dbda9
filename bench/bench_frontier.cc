// FRONT — the renegotiation-rate / utilization frontier (the evaluation
// methodology of the cited experimental work [GKT95, ACHM96], applied to
// this paper's algorithm).
//
// Every dynamic-allocation policy has a knob trading changes against
// tracking quality: the online algorithm's utilization window W, the
// periodic heuristic's renegotiation period, the EWMA heuristic's
// hysteresis band. Sweep each knob at a fixed delay target and print the
// frontier each policy traces in (changes per kslot, global utilization)
// space, with the clairvoyant greedy as the reference point.
// The second half is the engine scale frontier: the phased multi-session
// algorithm driven by RunMultiSessionEvent over heavy-tail Pareto-burst
// sparse traces, from 1k up to 1M sessions. Each cell's wall time is
// divided by the engine's three deterministic work counters: ns per
// arrival record, per session serve and per phase-boundary visit — the
// quantities the event-driven design holds flat while k grows.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/table.h"
#include "obs/telemetry/hub.h"
#include "baseline/exp_smoothing.h"
#include "baseline/periodic.h"
#include "core/multi_phased.h"
#include "core/single_session.h"
#include "offline/offline_single.h"
#include "reporter.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "traffic/sparse_bursts.h"
#include "traffic/workload_suite.h"

namespace {
using namespace bwalloc;

constexpr Bits kBa = 256;
constexpr Time kDa = 32;  // D_O = 16
constexpr Time kHorizon = 20000;

double PerKslot(std::int64_t changes, Time horizon) {
  return 1000.0 * static_cast<double>(changes) /
         static_cast<double>(horizon);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("frontier", &argc, argv);
  const Time horizon = rep.quick() ? 4000 : kHorizon;
  const auto trace =
      SingleSessionWorkload("mixed", kBa, kDa / 2, horizon, 606);
  SingleEngineOptions opt;
  opt.drain_slots = 4 * kDa;

  Table table({"policy", "knob", "changes/kslot", "global util",
               "max delay", "within D_A"});

  {
  ScopedTimer timer(rep.profile(), "sweep");
  for (const Time w : {Time{16}, Time{32}, Time{64}, Time{128}, Time{256}}) {
    SingleSessionParams p;
    p.max_bandwidth = kBa;
    p.max_delay = kDa;
    p.min_utilization = Ratio(1, 6);
    p.window = w;
    SingleSessionOnline alg(p);
    const SingleRunResult r = RunSingleSession(trace, alg, opt);
    table.AddRow({"online (Fig.3)", "W=" + Table::Num(w),
                  Table::Num(PerKslot(r.changes, r.horizon), 2),
                  Table::Num(r.global_utilization, 3),
                  Table::Num(r.delay.max_delay()),
                  r.delay.max_delay() <= kDa ? "yes" : "NO"});
    const std::string label = "online,W=" + Table::Num(w);
    // The online algorithm keeps its delay guarantee at every knob value.
    rep.RowMax(label, "max_delay", static_cast<double>(r.delay.max_delay()),
               static_cast<double>(kDa));
    rep.RowInfo(label, "changes_per_kslot", PerKslot(r.changes, r.horizon));
    rep.RowInfo(label, "global_util", r.global_utilization);
    rep.CountWork(horizon, 1);
  }

  for (const Time period : {kDa / 2, kDa, 2 * kDa, 4 * kDa, 8 * kDa}) {
    PeriodicAllocator alg(period, 130, kDa);
    const SingleRunResult r = RunSingleSession(trace, alg, opt);
    table.AddRow({"periodic [GKT95]", "T=" + Table::Num(period),
                  Table::Num(PerKslot(r.changes, r.horizon), 2),
                  Table::Num(r.global_utilization, 3),
                  Table::Num(r.delay.max_delay()),
                  r.delay.max_delay() <= kDa ? "yes" : "NO"});
    const std::string label = "periodic,T=" + Table::Num(period);
    rep.RowInfo(label, "max_delay", static_cast<double>(r.delay.max_delay()));
    rep.RowInfo(label, "global_util", r.global_utilization);
    rep.CountWork(horizon, 1);
  }

  for (const std::int64_t band : {0, 25, 50, 100, 200}) {
    ExpSmoothingAllocator alg(10, band, kDa);
    const SingleRunResult r = RunSingleSession(trace, alg, opt);
    table.AddRow({"ewma [ACHM96]", "band=" + Table::Num(band) + "%",
                  Table::Num(PerKslot(r.changes, r.horizon), 2),
                  Table::Num(r.global_utilization, 3),
                  Table::Num(r.delay.max_delay()),
                  r.delay.max_delay() <= kDa ? "yes" : "NO"});
    const std::string label = "ewma,band=" + Table::Num(band);
    rep.RowInfo(label, "max_delay", static_cast<double>(r.delay.max_delay()));
    rep.RowInfo(label, "global_util", r.global_utilization);
    rep.CountWork(horizon, 1);
  }

  {
    OfflineParams off;
    off.max_bandwidth = kBa;
    off.delay = kDa / 2;
    off.utilization = Ratio(1, 2);
    off.window = kDa;
    const OfflineSchedule s = GreedyMinChangeSchedule(trace, off);
    if (s.feasible) {
      const ScheduleCheck check = ValidateSchedule(trace, s);
      table.AddRow({"offline greedy", "-",
                    Table::Num(PerKslot(s.changes(), s.horizon), 2),
                    Table::Num(check.global_utilization, 3),
                    Table::Num(check.max_delay), "yes"});
      rep.RowInfo("offline", "changes_per_kslot",
                  PerKslot(s.changes(), s.horizon));
      rep.RowInfo("offline", "global_util", check.global_utilization);
    }
  }
  }

  std::printf("== FRONT: changes-vs-utilization frontier at delay target "
              "D_A=%lld ==\n",
              static_cast<long long>(kDa));
  std::printf("workload 'mixed', B_A=%lld, %lld slots; each policy swept "
              "over its own knob\n\n",
              static_cast<long long>(kBa),
              static_cast<long long>(horizon));
  table.PrintAscii(std::cout);
  rep.Save("frontier", table);

  // --- engine scale frontier ----------------------------------------------
  // Phased multi-session algorithm on heavy-tail sparse bursts, 1k -> 1M
  // sessions. The cell's cost is charged to each of the engine's work
  // counters in turn (arrivals, session serves, boundary visits).
  {
    Table scale({"k", "slots", "cell ms", "arrivals", "serves",
                 "boundary visits", "ns/arrival", "ns/serve", "ns/visit",
                 "local changes"});
    const std::vector<std::int64_t> ks =
        rep.quick() ? std::vector<std::int64_t>{1024, 8192}
                    : std::vector<std::int64_t>{1024, 16384, 262144, 1048576};
    const Time scale_horizon = rep.quick() ? 1200 : 3000;
    PhaseProfile prof;
    for (const std::int64_t k : ks) {
      SparseBurstParams bp;
      bp.sessions = k;
      bp.horizon = scale_horizon;
      bp.bursts_per_slot = static_cast<double>(k) / 256.0;
      bp.burst_scale = 32;
      bp.tail_cap = 8;
      bp.seed = 0x5CA1EULL + static_cast<std::uint64_t>(k);
      const SparseMultiTrace sparse = SparseBurstTrace(bp);

      MultiSessionParams p;
      p.sessions = k;
      p.offline_bandwidth = 16 * k;  // stays a power of two for these k
      p.offline_delay = 16;
      MultiEngineOptions eopt;
      eopt.drain_slots = 8 * p.offline_delay;

      EventEngineStats stats;
      eopt.event_stats = &stats;
      PhasedMulti sys(p);
      const std::string elabel = "event,k=" + Table::Num(k);
      MultiRunResult er;
      {
        ScopedTimer timer(&prof, elabel.c_str());
        er = RunMultiSessionEvent(sparse, sys, eopt);
      }
      const double ens = static_cast<double>(prof.phases().at(elabel).ns);
      const auto per = [ens](std::int64_t count) {
        return ens / std::max(static_cast<double>(count), 1.0);
      };
      scale.AddRow({Table::Num(k), Table::Num(scale_horizon),
                    Table::Num(ens / 1e6, 1), Table::Num(stats.arrival_events),
                    Table::Num(stats.session_serves),
                    Table::Num(stats.boundary_visits),
                    Table::Num(per(stats.arrival_events), 1),
                    Table::Num(per(stats.session_serves), 1),
                    Table::Num(per(stats.boundary_visits), 1),
                    Table::Num(er.local_changes)});
      rep.RowInfo(elabel, "ns_per_arrival", per(stats.arrival_events));
      rep.RowInfo(elabel, "ns_per_serve", per(stats.session_serves));
      rep.RowInfo(elabel, "ns_per_boundary_visit",
                  per(stats.boundary_visits));
      rep.RowInfo(elabel, "arrival_events",
                  static_cast<double>(stats.arrival_events));
      rep.RowInfo(elabel, "session_serves",
                  static_cast<double>(stats.session_serves));
      rep.RowInfo(elabel, "boundary_visits",
                  static_cast<double>(stats.boundary_visits));
      rep.RowInfo(elabel, "touched_session_slots",
                  static_cast<double>(stats.touched_session_slots));
      rep.RowInfo(elabel, "cell_ns", ens);
      rep.CountWork(scale_horizon, 1);
    }
    std::printf("\n== FRONTIER scale: phased algorithm, Pareto bursts "
                "==\n");
    scale.PrintAscii(std::cout);
    rep.Save("frontier_scale", scale);
  }

  // --- telemetry overhead gate -------------------------------------------
  // The live-telemetry contract: striped shards + sampled slot timers are
  // cheap enough to leave on. Run one event cell with metrics off and on,
  // keep the min wall time of a few reps each (noise floor), and gate the
  // relative overhead at 5%. The results must also match exactly —
  // telemetry is a side lane, never a behaviour change.
  {
    SparseBurstParams bp;
    bp.sessions = 4096;
    bp.horizon = rep.quick() ? 1200 : 3000;
    bp.bursts_per_slot = static_cast<double>(bp.sessions) / 256.0;
    bp.burst_scale = 32;
    bp.tail_cap = 8;
    bp.seed = 0x7E1EULL;
    const SparseMultiTrace sparse = SparseBurstTrace(bp);

    MultiSessionParams p;
    p.sessions = bp.sessions;
    p.offline_bandwidth = 16 * bp.sessions;
    p.offline_delay = 16;

    // Interleave off/on reps (after a discarded warmup each) so clock and
    // cache drift land on both modes equally. Each adjacent pair yields an
    // on/off ratio; the gate uses the MEDIAN pair ratio, which a single
    // scheduler hiccup in either direction cannot move — min-of-reps alone
    // still flapped several percent on shared CI boxes.
    constexpr int kPairs = 7;
    double best_ns[2] = {0.0, 0.0};
    MultiRunResult results[2];
    auto run_cell = [&](bool metrics_on) {
      telemetry::TelemetryHub hub;
      MultiEngineOptions eopt;
      eopt.drain_slots = 8 * p.offline_delay;
      if (metrics_on) eopt.telemetry = hub.ShardForCurrentThread();
      PhasedMulti sys(p);
      const std::int64_t t0 = telemetry::MonotonicNowNs();
      results[metrics_on ? 1 : 0] = RunMultiSessionEvent(sparse, sys, eopt);
      rep.CountWork(bp.horizon, 1);
      return static_cast<double>(telemetry::MonotonicNowNs() - t0);
    };
    run_cell(false);
    run_cell(true);
    std::vector<double> ratios;
    ratios.reserve(kPairs);
    for (int r = 0; r < kPairs; ++r) {
      const double off_ns = run_cell(false);
      const double on_ns = run_cell(true);
      ratios.push_back(on_ns / std::max(off_ns, 1.0));
      if (r == 0 || off_ns < best_ns[0]) best_ns[0] = off_ns;
      if (r == 0 || on_ns < best_ns[1]) best_ns[1] = on_ns;
    }
    std::sort(ratios.begin(), ratios.end());
    const double rel = std::max(0.0, ratios[ratios.size() / 2] - 1.0);
    std::printf("\n== FRONTIER telemetry overhead: event cell k=%lld, "
                "best metrics off %.2fms vs on %.2fms, median pair overhead "
                "%+.2f%% ==\n",
                static_cast<long long>(bp.sessions), best_ns[0] / 1e6,
                best_ns[1] / 1e6, 100.0 * rel);
    rep.RowInfo("telemetry", "metrics_off_ns", best_ns[0]);
    rep.RowInfo("telemetry", "metrics_on_ns", best_ns[1]);
    rep.RowMax("telemetry", "metrics_on_overhead", rel, 0.05);
    rep.RowMax("telemetry", "result_mismatch",
               results[0] == results[1] ? 0.0 : 1.0, 0.0);
  }
  std::printf(
      "\nExpected shape: the online rows trace the outer frontier — at any "
      "given change\nbudget they deliver equal-or-better utilization while "
      "never breaking the delay\ntarget, which the periodic rows do as "
      "soon as their period stretches; the\nclairvoyant point shows how "
      "much headroom clairvoyance is worth.\n");
  return rep.Finish();
}
