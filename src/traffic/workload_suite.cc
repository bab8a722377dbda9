#include "traffic/workload_suite.h"

#include <cmath>
#include <memory>
#include <utility>

#include "traffic/shaper.h"
#include "traffic/sources.h"
#include "util/assert.h"
#include "util/rng.h"

namespace bwalloc {
namespace {

std::unique_ptr<TrafficGenerator> MakeSource(const std::string& name,
                                             Bits bo, std::uint64_t seed) {
  const double b = static_cast<double>(bo);
  if (name == "cbr") {
    return std::make_unique<CbrSource>(bo / 2 > 0 ? bo / 2 : 1);
  }
  if (name == "onoff") {
    return std::make_unique<OnOffSource>(seed, 1.5 * b, 40.0, 80.0);
  }
  if (name == "pareto") {
    return std::make_unique<ParetoBurstSource>(seed, 12.0, 1.5,
                                               std::max(1.0, 2.0 * b));
  }
  if (name == "mmpp") {
    return std::make_unique<MmppSource>(
        seed, std::vector<double>{0.05 * b, 0.4 * b, 1.6 * b},
        std::vector<double>{120.0, 60.0, 30.0});
  }
  if (name == "video") {
    const Bits i_bits = std::max<Bits>(8, 3 * bo);
    return std::make_unique<VbrVideoSource>(seed, i_bits, i_bits / 2,
                                            i_bits / 6, 4, 0.05);
  }
  if (name == "sawtooth") {
    return std::make_unique<SawtoothSource>(
        std::max<Bits>(1, bo / 16), std::max<Bits>(2, 2 * bo), 96, 32);
  }
  if (name == "mixed") {
    std::vector<std::unique_ptr<TrafficGenerator>> parts;
    parts.push_back(std::make_unique<CbrSource>(std::max<Bits>(1, bo / 8)));
    parts.push_back(
        std::make_unique<OnOffSource>(seed ^ 0x1111, 0.8 * b, 50.0, 70.0));
    parts.push_back(std::make_unique<ParetoBurstSource>(
        seed ^ 0x2222, 20.0, 1.6, std::max(1.0, 1.5 * b)));
    return std::make_unique<CompositeSource>(std::move(parts));
  }
  throw std::invalid_argument("unknown workload name: " + name);
}

}  // namespace

std::vector<Bits> SingleSessionWorkload(const std::string& name,
                                        Bits offline_bw, Time offline_delay,
                                        Time horizon, std::uint64_t seed) {
  BW_REQUIRE(offline_bw >= 1, "workload: offline bandwidth must be >= 1");
  BW_REQUIRE(offline_delay >= 1, "workload: offline delay must be >= 1");
  TokenBucketShaper shaped(MakeSource(name, offline_bw, seed), offline_bw,
                           offline_bw * offline_delay);
  return shaped.Generate(horizon);
}

std::vector<NamedTrace> SingleSessionSuite(Bits offline_bw, Time offline_delay,
                                           Time horizon, std::uint64_t seed) {
  std::vector<NamedTrace> suite;
  for (const char* name :
       {"cbr", "onoff", "pareto", "mmpp", "video", "sawtooth", "mixed"}) {
    suite.push_back(
        {name, SingleSessionWorkload(name, offline_bw, offline_delay, horizon,
                                     seed)});
  }
  return suite;
}

const char* ToString(MultiWorkloadKind kind) {
  switch (kind) {
    case MultiWorkloadKind::kBalanced: return "balanced";
    case MultiWorkloadKind::kRotatingHotspot: return "rotating-hotspot";
    case MultiWorkloadKind::kChurn: return "churn";
    case MultiWorkloadKind::kSkewed: return "skewed";
  }
  return "?";
}

std::vector<std::vector<Bits>> MultiSessionWorkload(
    MultiWorkloadKind kind, std::int64_t sessions, Bits offline_bw,
    Time offline_delay, Time horizon, std::uint64_t seed) {
  BW_REQUIRE(sessions >= 1, "MultiSessionWorkload: sessions >= 1");
  BW_REQUIRE(offline_bw >= sessions,
             "MultiSessionWorkload: offline bandwidth below one bit/session");
  const auto k = static_cast<std::size_t>(sessions);
  const double per_session_rate =
      static_cast<double>(offline_bw) / static_cast<double>(sessions);
  Rng rng(seed);

  std::vector<std::vector<Bits>> traces(
      k, std::vector<Bits>(static_cast<std::size_t>(horizon), 0));
  // Epoch length: long enough that an offline server would hold an
  // allocation for a while, short enough that several epochs fit.
  const Time epoch = std::max<Time>(8 * offline_delay, horizon / 16);
  // kSkewed's harmonic normalizer H_k, summed once (j = 0..k-1, the order
  // the traces were pinned with).
  double harmonic = 0;
  if (kind == MultiWorkloadKind::kSkewed) {
    for (std::size_t j = 0; j < k; ++j) {
      harmonic += 1.0 / static_cast<double>(j + 1);
    }
  }

  for (Time t = 0; t < horizon; ++t) {
    const auto tt = static_cast<std::size_t>(t);
    const std::size_t e = static_cast<std::size_t>(t / epoch);
    for (std::size_t i = 0; i < k; ++i) {
      double mean = per_session_rate;
      switch (kind) {
        case MultiWorkloadKind::kBalanced:
          // ~65% offline load: saturating B_O leaves no headroom for any
          // per-session split (and real links do not run at 100%).
          mean = per_session_rate * 0.65;
          break;
        case MultiWorkloadKind::kRotatingHotspot: {
          const bool hot = (e % k) == i;
          mean = hot ? per_session_rate * (0.6 * static_cast<double>(sessions))
                     : per_session_rate * 0.3;
          break;
        }
        case MultiWorkloadKind::kChurn: {
          // Deterministic pseudo-random on/off per (session, epoch).
          const std::uint64_t h =
              (static_cast<std::uint64_t>(i) * 0x9E3779B97f4A7C15ULL) ^
              (static_cast<std::uint64_t>(e) * 0xBF58476D1CE4E5B9ULL) ^ seed;
          const bool active = ((h >> 17) & 3) != 0;  // 75% active
          mean = active ? per_session_rate : 0.0;
          break;
        }
        case MultiWorkloadKind::kSkewed: {
          const double weight = 1.0 / static_cast<double>(i + 1);
          mean = 0.7 * static_cast<double>(offline_bw) * weight / harmonic;
          break;
        }
      }
      traces[i][tt] = mean > 0 ? rng.Poisson(mean) : 0;
    }
  }

  AggregateShaper shaper(offline_bw, offline_bw * offline_delay);
  shaper.Shape(traces);
  return traces;
}

}  // namespace bwalloc
