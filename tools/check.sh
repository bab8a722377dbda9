#!/usr/bin/env bash
# Single-command sanitizer check: configures a sanitized build tree, builds
# everything, and runs the full ctest suite.
#
#   tools/check.sh            # address,undefined (the default)
#   tools/check.sh tsan       # thread sanitizer (batch runner / thread pool)
#   tools/check.sh asan DIR   # explicit build directory
#   tools/check.sh trace      # tracing/observability subset under asan:
#                             # obs + trace-summary unit tests, the CLI
#                             # usage-error tests, and the --jobs NDJSON
#                             # invariance test
#   tools/check.sh audit      # auditor subset under asan: the audit unit
#                             # tests, the bwsim audit CLI contract, the
#                             # audited-batch --jobs invariance test, and
#                             # every bench --quick schema check
#   tools/check.sh faults     # control-plane fault subset under tsan:
#                             # the fault plan, faulty channel and
#                             # SignalLane unit tests, both robust adapters
#                             # and their checkpoint-layout pins, the
#                             # faulted suites and engine grids, the
#                             # bench_faults{,_multi} --jobs invariance +
#                             # schema checks, and the faulted CLI smokes
#                             # and pinned traces (the adapters shard over
#                             # the batch runner, so races surface here)
#   tools/check.sh engine-eq  # engine differential subset under tsan:
#                             # the pruned-vs-full-sweep property grids +
#                             # the cross-jobs soak (byte-identity over
#                             # faulted grids at --jobs 1/2/4), the engine
#                             # and timer-wheel unit tests, and the
#                             # CLI-level pinned-trace gates
#   tools/check.sh runner     # batch-scheduler subset under tsan: the
#                             # work-stealing pool tests (skewed-cost
#                             # determinism, re-entry fail-fast, steal
#                             # telemetry), the reduction/merge tests, and
#                             # the cross-jobs determinism grids — the
#                             # Chase-Lev claim path races surface here
#   tools/check.sh crash      # crash-tolerance subset under tsan: the
#                             # checkpoint/serializer hardening tests, the
#                             # crash->restore grids against the full-sweep
#                             # reference (sharded at --jobs 4, so the
#                             # supervised restart path races surface
#                             # here), and the bwsim checkpoint CLI
#                             # contract incl. the crash+resume round trip
#                             # and the stale-checkpoint refusals
#   tools/check.sh churn      # session-churn subset under tsan: the
#                             # arrival/admission/lifecycle unit tests,
#                             # the churned engine-equivalence and
#                             # crash-restore grids (sharded at --jobs 4,
#                             # so driver/admission state races surface
#                             # here), and the churn CLI contract incl.
#                             # the stats round trip
#   tools/check.sh telemetry  # live-telemetry subset under tsan: the
#                             # striped shard/hub/watchdog unit tests
#                             # (incl. the concurrent-writer hammer), the
#                             # stats-summary round trip, and the --jobs 4
#                             # batch with the exporter+heartbeat live —
#                             # the relaxed-atomic stripes and the monitor
#                             # thread race against workers here
#
# Build trees are kept per sanitizer (build-asan/, build-tsan/) so repeat
# runs are incremental. Exits non-zero on any configure, build, or test
# failure.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-asan}"
test_filter=()

case "$mode" in
  asan|address) sanitize="address,undefined"; dir="${2:-$repo/build-asan}" ;;
  tsan|thread)  sanitize="thread";            dir="${2:-$repo/build-tsan}" ;;
  trace)
    sanitize="address,undefined"; dir="${2:-$repo/build-asan}"
    test_filter=(-R 'obs_trace|trace_summary|TraceSummary|Tracer|Metrics|bwsim_trace|bwsim_cli')
    ;;
  audit)
    sanitize="address,undefined"; dir="${2:-$repo/build-asan}"
    test_filter=(-R 'audit|quick_schema')
    ;;
  faults)
    sanitize="thread"; dir="${2:-$repo/build-tsan}"
    # The wall-clock perf gate compares against native baselines; it is
    # meaningless (and fails) under the sanitizer slowdown.
    test_filter=(-R 'faults|FaultPlan|FaultySignalingChannel|SignalLane|RobustSignalingAdapter|RobustMultiSessionAdapter|PerSessionPlan|FaultSuite|FaultCheckpointLayout|faulted'
                 -E 'perf_gate')
    ;;
  engine-eq)
    sanitize="thread"; dir="${2:-$repo/build-tsan}"
    test_filter=(-R 'EngineEquivalence|EngineMulti|SparseMultiTrace|TimerWheel|bwsim_engine|bwsim_pinned')
    ;;
  runner)
    sanitize="thread"; dir="${2:-$repo/build-tsan}"
    test_filter=(-R 'RunnerSteal|RunnerDeterminism|BatchRunner|ParallelSweep|AggregateStats')
    ;;
  crash)
    sanitize="thread"; dir="${2:-$repo/build-tsan}"
    test_filter=(-R 'CrashRecovery|Checkpoint|Serializer|SupervisedRunner|CrashPlan|bwsim_crash|bwsim_checkpoint|bwsim_cli_rejects_.*checkpoint|bwsim_cli_rejects_.*resume')
    ;;
  churn)
    sanitize="thread"; dir="${2:-$repo/build-tsan}"
    # The wall-clock perf gate compares against native baselines; it is
    # meaningless (and fails) under the sanitizer slowdown.
    test_filter=(-R 'Arrivals|Admission|ChurnDriver|Churned|churn|CancelWhere'
                 -E 'perf_gate')
    ;;
  telemetry)
    sanitize="thread"; dir="${2:-$repo/build-tsan}"
    test_filter=(-R 'LogHistogram|Snapshot|TelemetryHub|RunMonitor|bwsim_stats|bwsim_batch_jobs4_telemetry|bwsim_health_strict|bwsim_multi_health_strict|bwsim_cli_rejects_stats|bwsim_cli_rejects_strict')
    ;;
  *)
    echo "usage: tools/check.sh [asan|tsan|trace|audit|faults|engine-eq|runner|crash|churn|telemetry] [build-dir]" >&2
    exit 2
    ;;
esac

echo "== check.sh: BWALLOC_SANITIZE=$sanitize -> $dir ($mode) =="
cmake -B "$dir" -S "$repo" -DBWALLOC_SANITIZE="$sanitize" >/dev/null
cmake --build "$dir" -j "$(nproc)"
ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" "${test_filter[@]}"
echo "== check.sh: $mode clean =="
