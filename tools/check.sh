#!/usr/bin/env bash
# Single-command sanitizer check: configures a sanitized build tree, builds
# everything, and runs the ctest suite, or the tests carrying one label.
#
#   tools/check.sh [asan|tsan] [label] [build-dir]
#
#   tools/check.sh                 # address,undefined, full suite
#   tools/check.sh tsan            # thread sanitizer, full suite
#   tools/check.sh tsan faults     # thread sanitizer, tests labelled faults
#
# Labels are set in the CMakeLists (gtest_discover_tests PROPERTIES LABELS
# on the test executables, set_tests_properties on the CLI and bench
# tests); `ctest --print-labels` in a build tree lists them. The subsets:
#
#   trace      obs + trace-summary tests, the CLI usage-error tests, and the
#              --jobs NDJSON invariance test
#   audit      the audit unit tests, the bwsim audit CLI contract, the
#              audited-batch --jobs invariance test, every bench --quick
#              schema check
#   faults     fault plan, faulty channel and SignalLane tests, both robust
#              adapters and their checkpoint-layout pins, the faulted suites,
#              engine grids, benches and pinned traces
#   engine-eq  the pruned-vs-full-sweep property grids, the cross-jobs soak,
#              the pinned work counters, the engine, timer-wheel,
#              session-channel and delay-record tests, the pinned traces
#   runner     the work-stealing pool, the reduction/merge tests, the
#              cross-jobs determinism grids
#   crash      checkpoint/serializer hardening, the crash->restore grids,
#              the bwsim checkpoint CLI contract and crash+resume round trip
#   churn      arrival/admission/lifecycle tests, the churned grids, the
#              churn CLI contract
#   telemetry  the striped shard/hub/watchdog tests, the stats-summary round
#              trip, the --jobs 4 batch with the exporter live
#   examples   every example program, run to exit 0
#
# A labelled run never includes the wall-clock perf gates: they compare
# against native baselines and fail under the sanitizer slowdown.
#
# Build trees are kept per sanitizer (build-asan/, build-tsan/) so repeat
# runs are incremental. Exits non-zero on any configure, build, or test
# failure.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-asan}"
label="${2:-}"
test_filter=()

case "$mode" in
  asan|address) sanitize="address,undefined"; dir="${3:-$repo/build-asan}" ;;
  tsan|thread)  sanitize="thread";            dir="${3:-$repo/build-tsan}" ;;
  *)
    echo "usage: tools/check.sh [asan|tsan] [label] [build-dir]" >&2
    exit 2
    ;;
esac
if [[ -n "$label" ]]; then
  test_filter=(-L "^${label}\$" -E 'perf_gate' --no-tests=error)
fi

echo "== check.sh: BWALLOC_SANITIZE=$sanitize -> $dir ($mode${label:+ $label}) =="
cmake -B "$dir" -S "$repo" -DBWALLOC_SANITIZE="$sanitize" >/dev/null
cmake --build "$dir" -j "$(nproc)"
ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" "${test_filter[@]}"
echo "== check.sh: $mode${label:+ $label} clean =="
