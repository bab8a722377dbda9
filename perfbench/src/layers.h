// Per-layer timing from outside the library.
//
// The benchmark never instruments library code. It times the calls it makes
// into each layer's public functions with its own clock, and in traced mode
// it puts forwarding decorators in front of the three interfaces the engine
// calls back through: MultiSessionSystem (the algorithm, and the fault-lane
// adapter when there is one), AdmissionPolicy and TraceSink. Every
// decorator forwards every virtual unchanged, so a traced run produces the
// same MultiRunResult as an untraced one; main.cc checks that it does.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "sim/run_result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Calls into one decorated MultiSessionSystem.
struct SystemCalls {
  double step_s = 0.0;  // Step + StepSparse
  std::int64_t step_calls = 0;
  std::int64_t dense_lanes = 0;  // entries of the dense vectors Step received
  double lifecycle_s = 0.0;      // OnSessionJoin + OnSessionDepart
  double save_s = 0.0;
  std::int64_t saves = 0;
  double restore_s = 0.0;
  int depth = 0;  // > 0 while a decorated call is running
};

class TimedSystem final : public bwalloc::MultiSessionSystem {
 public:
  TimedSystem(std::unique_ptr<bwalloc::MultiSessionSystem> inner,
              SystemCalls* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  void Step(bwalloc::Time now, std::span<const bwalloc::Bits> arrivals) override;
  void StepSparse(bwalloc::Time now,
                  std::span<const bwalloc::SessionArrival> arrivals) override;
  void OnSessionJoin(bwalloc::Time now, std::int64_t session) override;
  bwalloc::Bits OnSessionDepart(bwalloc::Time now,
                                std::int64_t session) override;
  void SaveState(bwalloc::StateWriter& w) const override;
  void LoadState(bwalloc::StateReader& r) override;

  const bwalloc::SessionChannels& channels() const override {
    return inner_->channels();
  }
  std::int64_t stages() const override { return inner_->stages(); }
  std::int64_t global_stages() const override {
    return inner_->global_stages();
  }
  bwalloc::Bandwidth DeclaredTotalBandwidth() const override {
    return inner_->DeclaredTotalBandwidth();
  }
  bwalloc::Bandwidth ExtraAllocatedBandwidth() const override {
    return inner_->ExtraAllocatedBandwidth();
  }
  bwalloc::Bits ExtraQueuedBits() const override {
    return inner_->ExtraQueuedBits();
  }
  bwalloc::Bits ExtraDeliveredBits() const override {
    return inner_->ExtraDeliveredBits();
  }
  const bwalloc::DelayHistogram* ExtraDelayHistogram() const override {
    return inner_->ExtraDelayHistogram();
  }
  void SetTracer(const bwalloc::Tracer& tracer) override {
    inner_->SetTracer(tracer);
  }
  void SetTelemetry(bwalloc::telemetry::RuntimeShard* shard) override {
    inner_->SetTelemetry(shard);
  }
  bool SupportsSparseStep() const override {
    return inner_->SupportsSparseStep();
  }
  void PerturbEventWakeupsForTest() override {
    inner_->PerturbEventWakeupsForTest();
  }
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }

 private:
  std::unique_ptr<bwalloc::MultiSessionSystem> inner_;
  SystemCalls* calls_;
};

// Calls into the decorated admission policy.
struct AdmissionCalls {
  double decide_s = 0.0;
  std::int64_t decisions = 0;
  double release_s = 0.0;
  double save_s = 0.0;
  double restore_s = 0.0;
};

class TimedAdmission final : public bwalloc::AdmissionPolicy {
 public:
  TimedAdmission(bwalloc::AdmissionPolicy& inner, AdmissionCalls* calls)
      : inner_(inner), calls_(calls) {}

  bwalloc::AdmissionVerdict Decide(const bwalloc::SessionSpec& spec,
                                   bwalloc::Time now) override;
  void Release(const bwalloc::SessionSpec& spec, bwalloc::Time now) override;
  void SaveState(bwalloc::StateWriter& w) const override;
  void LoadState(bwalloc::StateReader& r) override;

 private:
  bwalloc::AdmissionPolicy& inner_;
  AdmissionCalls* calls_;
};

// Calls into one decorated trace sink.
struct SinkCalls {
  double emit_s = 0.0;
  std::int64_t events = 0;
  // The part of emit_s spent while a call into `nested_in` was running
  // (events the algorithm emits from inside its own step).
  double emit_nested_s = 0.0;
};

class TimedSink final : public bwalloc::TraceSink {
 public:
  TimedSink(bwalloc::TraceSink& inner, SinkCalls* calls,
            const SystemCalls* nested_in = nullptr)
      : inner_(inner), calls_(calls), nested_in_(nested_in) {}

  void Emit(const bwalloc::TraceContext& ctx,
            const bwalloc::TraceEvent& event) override;
  std::int64_t events_written() const override {
    return inner_.events_written();
  }
  std::int64_t bytes_written() const override {
    return inner_.bytes_written();
  }

 private:
  bwalloc::TraceSink& inner_;
  SinkCalls* calls_;
  const SystemCalls* nested_in_;
};

// Everything one pass of a workload records about its layers. The timings
// of free functions (generation, materialization, the engine call, result
// JSON, NDJSON, re-audit) are taken in every pass; the decorator fields stay
// zero unless the pass ran traced.
struct LayerProbe {
  // traffic
  double gen_s = 0.0;
  std::int64_t records = 0;  // arrival records / nonzero cells / specs
  // sim
  double materialize_s = 0.0;
  std::int64_t dense_cells = 0;
  double engine_s = 0.0;
  std::int64_t arrival_events = 0;
  std::int64_t touched_session_slots = 0;
  // decorators
  bool has_adapter = false;
  SystemCalls outer;  // the system the engine steps
  SystemCalls core;   // the algorithm behind the fault-lane adapter
  AdmissionCalls admission;
  SinkCalls sink;      // the sink the tracer holds (audit + record)
  SinkCalls recorder;  // the in-memory recorder behind the auditor
  // engine outputs summed over the pass's engine calls
  std::int64_t local_changes = 0;
  std::int64_t stages = 0;
  std::int64_t global_changes = 0;
  bwalloc::FaultStats faults;
  bwalloc::ChurnStats churn;
  std::int64_t checkpoint_bytes = 0;
  // obs
  double audit_finish_s = 0.0;
  double ndjson_s = 0.0;
  std::int64_t ndjson_bytes = 0;
  double reaudit_s = 0.0;
  // analysis
  double result_json_s = 0.0;
  std::int64_t result_json_bytes = 0;

  void AddResult(const bwalloc::MultiRunResult& r);
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The per-layer metrics of one traced pass, in BENCHMARK.json order. Every
// metric is present for every workload; a layer that does not run reads 0.
std::vector<Metric> PerLayerMetrics(const LayerProbe& p);

}  // namespace perfbench
