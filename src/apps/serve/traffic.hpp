// Open-loop traffic generation for the serving tier (apps/serve).
//
// The generator models the north-star traffic shape: millions of distinct
// clients issuing heavy-tailed requests in diurnal bursts. Three properties
// are load-bearing for the test harness (tests/test_serve.cpp pins each):
//
//   * deterministic by seed — the whole arrival stream (times, sizes, keys,
//     hedge flags) is a pure function of (seed, edge_index), byte-stable
//     across toolchains via sim::Rng;
//   * heavy-tailed sizes — bounded Pareto on [lo, hi] with shape alpha, the
//     classic web/storage request-size model; the closed-form mean/CDF below
//     let property tests check the sampler against analysis;
//   * OPEN-LOOP — arrival times are generated independently of the system's
//     state. The serving tier must time-stamp each request with its intended
//     arrival (latency clocks start here), never with its admit time, so
//     shard backpressure shows up as queueing latency instead of silently
//     thinning the offered load (the closed-loop fallacy).
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace serve {

/// splitmix64 — the standalone mixer used for per-request derived values
/// (payload seeds, hedge picks), so they depend only on (seed, seq) and not
/// on any stream position.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over a byte range: the digest primitive for payload identity.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Bounded Pareto distribution on [lo, hi] with shape alpha (alpha != 1).
struct BoundedPareto {
  double alpha = 1.3;
  double lo = 64.0;
  double hi = 16384.0;

  /// Inverse-CDF sample from u in [0, 1).
  [[nodiscard]] double sample(double u) const {
    const double r = std::pow(lo / hi, alpha);  // (L/H)^a
    return lo / std::pow(1.0 - u * (1.0 - r), 1.0 / alpha);
  }

  /// Closed-form mean (the property tests compare the empirical mean).
  [[nodiscard]] double mean() const {
    const double r = std::pow(lo / hi, alpha);
    return alpha * std::pow(lo, alpha) *
           (std::pow(hi, 1.0 - alpha) - std::pow(lo, 1.0 - alpha)) /
           ((1.0 - alpha) * (1.0 - r));
  }

  /// P(X <= x) for x in [lo, hi].
  [[nodiscard]] double cdf(double x) const {
    const double r = std::pow(lo / hi, alpha);
    return (1.0 - std::pow(lo / x, alpha)) / (1.0 - r);
  }
};

/// The diurnal rate multiplier for phase p of `phases` (a raised-cosine
/// day: trough 0.4x, peak 1.6x the base rate). Pure function, so the burst
/// schedule is deterministic by construction; the phase index at virtual
/// time t is (t / phase_len) mod phases.
inline double phase_multiplier(int phase, int phases) {
  if (phases <= 1) return 1.0;
  const double x = 2.0 * 3.14159265358979323846 *
                   (static_cast<double>(phase) / static_cast<double>(phases));
  return 0.4 + 1.2 * 0.5 * (1.0 - std::cos(x));
}

/// The traffic shape every stream shares.
constexpr std::uint64_t kClients = 4u << 20;  ///< distinct client-id space
constexpr int kPhases = 4;                    ///< diurnal phases per cycle
constexpr double kAlpha = 1.3;                ///< Pareto shape of the sizes
constexpr std::size_t kSmin = 64, kSmax = 16384;  ///< payload bytes
constexpr double kHedge = 0.1;  ///< P(request is hedged to a replica)

struct TrafficConfig {
  std::uint64_t seed = 1;
  sim::Time mean_interarrival = sim::Time::from_us(2);  ///< base, per edge
  sim::Time phase_len = sim::Time::from_us(150);  ///< one diurnal phase
};

/// One generated client request. `at` is the INTENDED arrival instant —
/// the latency clock for this request starts there regardless of when the
/// edge can admit it into its inflight window.
struct Arrival {
  sim::Time at;
  std::uint64_t seq = 0;     ///< unique per edge stream
  std::uint64_t client = 0;  ///< in [0, kClients)
  std::uint64_t key = 0;     ///< shard-routing key
  std::uint32_t req_bytes = 0;
  std::uint32_t resp_bytes = 0;
  bool hedged = false;
};

/// Streaming open-loop generator for one edge rank. Calling next() n times
/// yields the same n arrivals for the same (cfg.seed, edge_index).
class TrafficGen {
 public:
  TrafficGen(const TrafficConfig& cfg, int edge_index)
      : cfg_(cfg),
        rng_(mix64(cfg.seed ^ (0x5e41ull + static_cast<std::uint64_t>(
                                               edge_index) * 0x9e37ull))),
        size_(BoundedPareto{kAlpha, static_cast<double>(kSmin),
                            static_cast<double>(kSmax)}) {}

  Arrival next() {
    Arrival a;
    // Exponential inter-arrival, rate-modulated by the diurnal phase the
    // PREVIOUS arrival fell in (rate changes take effect at phase edges in
    // the limit of small interarrival; exact phase integration is not worth
    // the complexity for a workload model).
    const int phase =
        cfg_.phase_len.ns() == 0
            ? 0
            : static_cast<int>((clock_.ns() / cfg_.phase_len.ns()) % kPhases);
    const double rate_mult = phase_multiplier(phase, kPhases);
    const double u = rng_.next_double();
    const double gap_ns = -std::log(1.0 - u) *
                          static_cast<double>(cfg_.mean_interarrival.ns()) /
                          rate_mult;
    clock_ += sim::Time::from_ns(static_cast<std::int64_t>(gap_ns) + 1);
    a.at = clock_;
    a.seq = seq_++;
    a.client = rng_.next_below(kClients);
    a.key = rng_.next_u64();
    a.req_bytes = static_cast<std::uint32_t>(size_.sample(rng_.next_double()));
    a.resp_bytes = static_cast<std::uint32_t>(size_.sample(rng_.next_double()));
    a.hedged = rng_.next_double() < kHedge;
    return a;
  }

 private:
  TrafficConfig cfg_;
  sim::Rng rng_;
  BoundedPareto size_;
  sim::Time clock_;
  std::uint64_t seq_ = 0;
};

}  // namespace serve
