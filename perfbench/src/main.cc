// perfbench: the end-to-end benchmark of the bwalloc library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --smoke
//
// A measured run repeats whole passes of one workload until S seconds have
// gone, checks every pass's outputs, and prints one JSON object as its last
// line of standard output. --trace 0 reports the end-to-end metrics: the
// median total_s over the passes, session_slots_per_s over every engine
// call of the run, and setup_s and peak_rss_mb of the first, cold pass. --trace 1 first runs one untraced pass as a reference,
// then traced passes whose results must equal it, and reports the median
// per-layer metrics. --smoke runs every workload at a small size, untraced
// and traced, with every check on, then shows that each check fails on a
// deliberately broken result. Nothing is timed in smoke mode.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintFailures(const Failures& failures) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Results of a traced pass must equal the untraced reference's.
void CheckSameResults(const std::string& label, const PassOutput& want,
                      const PassOutput& got, Failures* failures) {
  if (want.results.size() != got.results.size()) {
    failures->push_back(label + ": result count differs");
    return;
  }
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    CheckSame(label + " " + want.expects[i].label, want.results[i],
              got.results[i], failures);
  }
}

int RunMeasured(const Workload& w, std::uint64_t seed, double seconds,
                bool traced) {
  Failures failures;
  std::int64_t attempted = 0;
  const auto account = [&](PassOutput& pass) {
    attempted += pass.operations;
    failures.insert(failures.end(), pass.failures.begin(),
                    pass.failures.end());
  };

  std::vector<Metric> metrics;
  const Clock::time_point begin = Clock::now();
  const auto time_left = [&] {
    return SecondsBetween(begin, Clock::now()) < seconds;
  };
  if (!traced) {
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    std::vector<double> total_s;
    std::vector<double> throughput;
    // session_slots_per_s is taken over every engine call of the run: the
    // engine phase of a pass can be under a second (dense-suite), too short
    // for a per-pass median to settle.
    std::int64_t session_slots = 0;
    double sim_s = 0.0;
    do {
      PassOutput pass = w.run(seed, Size::kFull, false);
      if (total_s.empty()) {
        setup_s = SecondsBetween(kProcessStart, pass.first_engine) -
                  pass.untimed_before_engine_s;
        // One bwsim-style run's footprint: later passes reuse the heap the
        // first one left, and its fragmentation is not the workload's.
        peak_rss_mb = PeakRssMb();
      }
      total_s.push_back(pass.total_s);
      throughput.push_back(static_cast<double>(pass.session_slots) /
                           pass.sim_s);
      session_slots += pass.session_slots;
      sim_s += pass.sim_s;
      account(pass);
    } while (time_left());
    metrics = {
        {"setup_s", "s", setup_s},
        {"session_slots_per_s", "session-slots/s",
         static_cast<double>(session_slots) / sim_s},
        {"total_s", "s", Median(total_s)},
        {"peak_rss_mb", "MB", peak_rss_mb},
    };
    std::string passes;
    for (std::size_t i = 0; i < total_s.size(); ++i) {
      char pass[64];
      std::snprintf(pass, sizeof(pass), " %.3f/%.4g", total_s[i],
                    throughput[i]);
      passes += pass;
    }
    std::fprintf(stderr,
                 "perfbench: %s untraced, %zu passes, total_s/"
                 "session_slots_per_s:%s\n",
                 w.name, total_s.size(), passes.c_str());
  } else {
    PassOutput reference = w.run(seed, Size::kFull, false);
    account(reference);
    std::vector<std::vector<Metric>> per_pass;
    std::vector<double> traced_total_s;
    do {
      PassOutput pass = w.run(seed, Size::kFull, true);
      CheckSameResults(std::string(w.name) + ": traced vs untraced",
                       reference, pass, &pass.failures);
      per_pass.push_back(PerLayerMetrics(pass.probe));
      traced_total_s.push_back(pass.total_s);
      account(pass);
    } while (time_left());
    metrics = per_pass.front();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> values;
      for (const std::vector<Metric>& pass : per_pass) {
        values.push_back(pass[m].value);
      }
      metrics[m].value = Median(values);
    }
    std::fprintf(stderr,
                 "perfbench: %s traced, %zu passes; total_s traced median "
                 "%.4f, untraced reference (cold pass) %.4f\n",
                 w.name, per_pass.size(), Median(traced_total_s),
                 reference.total_s);
  }
  PrintFailures(failures);
  // An engine call that throws ends the run with an error instead.
  PrintResult(failures.empty(), attempted, 0, metrics);
  return 0;
}

// A negative control: `failures` must hold at least one line.
bool Tripped(const char* what, const Failures& failures) {
  if (failures.empty()) {
    std::fprintf(stderr, "perfbench: control NOT caught: %s\n", what);
    return false;
  }
  std::printf("control caught: %s (%s)\n", what, failures.front().c_str());
  return true;
}

int RunSmoke() {
  bool ok = true;
  std::vector<PassOutput> outputs;
  for (const Workload& w : Workloads()) {
    PassOutput plain = w.run(7, Size::kSmoke, false);
    PassOutput traced = w.run(7, Size::kSmoke, true);
    CheckSameResults(std::string(w.name) + ": traced vs untraced", plain,
                     traced, &traced.failures);
    PrintFailures(plain.failures);
    PrintFailures(traced.failures);
    const bool pass_ok = plain.failures.empty() && traced.failures.empty();
    ok = ok && pass_ok;
    std::printf("smoke %-14s %s: %lld engine calls, %zu checked results\n",
                w.name, pass_ok ? "ok" : "FAILED",
                static_cast<long long>(plain.operations),
                plain.results.size());
    outputs.push_back(std::move(plain));
  }
  if (!ok) return 1;

  // Negative controls on the smoke results: each check must reject a
  // result broken in exactly one way.
  const PassOutput& scale = outputs[0];
  const PassOutput& churn = outputs[2];
  const PassOutput& audited = outputs[3];
  {
    bwalloc::MultiRunResult r = scale.results[0];
    r.total_delivered -= 1;
    Failures f;
    CheckRun(r, scale.expects[0], &f);
    ok = Tripped("one delivered bit removed", f) && ok;
  }
  {
    bwalloc::MultiRunResult r = scale.results[0];
    r.delay.Record(scale.expects[0].max_delay + 1, 1);
    Failures f;
    CheckRun(r, scale.expects[0], &f);
    ok = Tripped("a delay one slot over the bound", f) && ok;
  }
  {
    Expect e = scale.expects[0];
    e.input_bits += 1;
    Failures f;
    CheckRun(scale.results[0], e, &f);
    ok = Tripped("input bits one more than the run saw", f) && ok;
  }
  {
    bwalloc::MultiRunResult resumed = churn.results[1];
    resumed.total_allocated_raw += 1;
    Failures f;
    CheckSame("resumed", churn.results[0], resumed, &f);
    ok = Tripped("a resumed result that differs in one field", f) && ok;
  }
  {
    std::string ndjson = audited.ndjson;
    const std::size_t mid = ndjson.find('\n', ndjson.size() / 2);
    const std::size_t end = ndjson.find('\n', mid + 1);
    ndjson.erase(mid + 1, end - mid);
    const bwalloc::Auditor replayed =
        Reaudit(ndjson, audited.streaming_audit->config());
    Failures f;
    CheckReaudit("ndjson", *audited.streaming_audit, replayed, &f);
    ok = Tripped("an NDJSON buffer with one event dropped", f) && ok;
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --smoke\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string seed = "1";
  std::string seconds = "10";
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return RunSmoke();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = value;
    } else if (arg == "--seconds") {
      seconds = value;
    } else if (arg == "--trace") {
      trace = value;
    } else {
      return Usage();
    }
  }
  char* end = nullptr;
  const unsigned long long seed_value = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') return Usage();
  const double seconds_value = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(seconds_value > 0.0)) {
    return Usage();
  }
  if (trace != "0" && trace != "1") return Usage();
  for (const Workload& w : Workloads()) {
    if (workload == w.name) {
      return RunMeasured(w, seed_value, seconds_value, trace == "1");
    }
  }
  return Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
