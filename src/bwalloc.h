// Umbrella header: the complete public API of the bwalloc library.
//
//   #include "bwalloc.h"
//
// Organized by subsystem; see README.md for the map and DESIGN.md for the
// paper-to-module correspondence.
#pragma once

// Utility kernel.
#include "util/assert.h"
#include "util/envelope.h"
#include "util/fixed_point.h"
#include "util/histogram.h"
#include "util/monotonic_deque.h"
#include "util/power_of_two.h"
#include "util/prefix_sum.h"
#include "util/ratio.h"
#include "util/rng.h"
#include "util/types.h"

// Simulator substrate.
#include "sim/adaptive.h"
#include "sim/bit_queue.h"
#include "sim/engine_multi.h"
#include "sim/engine_single.h"
#include "sim/metrics.h"
#include "sim/run_result.h"
#include "sim/session_channels.h"

// Traffic.
#include "traffic/adversaries.h"
#include "traffic/generator.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"
#include "traffic/trace_io.h"
#include "traffic/workload_suite.h"

// The paper's algorithms.
#include "core/combined.h"
#include "core/high_tracker.h"
#include "core/low_tracker.h"
#include "core/multi_continuous.h"
#include "core/multi_phased.h"
#include "core/params.h"
#include "core/single_session.h"

// Offline (clairvoyant) comparators.
#include "offline/exhaustive.h"
#include "offline/offline_multi.h"
#include "offline/offline_single.h"
#include "offline/schedule_io.h"
#include "offline/segment_envelope.h"
#include "offline/util_envelope.h"

// Baselines.
#include "baseline/exp_smoothing.h"
#include "baseline/per_arrival.h"
#include "baseline/periodic.h"
#include "baseline/static_alloc.h"

// Network path / signalling.
#include "net/path.h"
#include "net/signaling.h"

// Analysis.
#include "analysis/aggregate.h"
#include "analysis/competitive.h"
#include "analysis/cost_model.h"
#include "analysis/fairness.h"
#include "analysis/json.h"
#include "analysis/sla.h"
#include "analysis/table.h"
#include "analysis/tuner.h"
