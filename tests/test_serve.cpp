// The serving-tier regression harness (apps/serve): statistical latency
// accounting units, traffic-generator properties against closed forms,
// config validation at the call, and the end-to-end determinism matrix — same
// seed => bit-identical response-payload digests and latency histograms
// across repeated runs, payload digests additionally invariant across all
// four proxies, offload engine counts {1,4}, and clean vs faulted wires
// (the reliability layer must deliver every request exactly once).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "apps/serve/latency.hpp"
#include "apps/serve/serve.hpp"
#include "apps/serve/traffic.hpp"
#include "sim/rng.hpp"

using core::Approach;

namespace {

/// Small-but-real workload: 2 edges x 2 shards, enough requests that drops,
/// dups, hedges, and every allreduce round all occur.
serve::ServeConfig small_cfg(Approach a) {
  serve::ServeConfig cfg;
  cfg.approach = a;
  cfg.edges = 2;
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.requests = 150;
  cfg.window = 8;
  cfg.rounds = 3;
  cfg.update = 32;
  cfg.traffic.seed = 42;
  cfg.traffic.mean_interarrival = sim::Time::from_us(2);
  return cfg;
}

serve::ServeConfig faulted(serve::ServeConfig cfg) {
  cfg.faults = machine::FaultSpec{
      .on = true, .drop = 0.02, .dup = 0.01, .reorder = 0.05, .seed = 7};
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Latency histogram + SLO accounting units.

TEST(ServeLatency, HistogramQuantilesAndDigest) {
  serve::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(sim::Time::from_us(i));
  EXPECT_EQ(h.total(), 1000u);
  const double p50 = h.quantile_us(0.5);
  const double p99 = h.quantile_us(0.99);
  const double p999 = h.quantile_us(0.999);
  // Log-bucketed: quantiles are bucket interpolations, not exact order
  // statistics — assert the right bucket neighborhood and monotonicity.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1100.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  // Digest is a pure function of the counts; merging is commutative.
  serve::LatencyHistogram a, b;
  a.add(sim::Time::from_us(3));
  b.add(sim::Time::from_ms(40));
  serve::LatencyHistogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.digest(), ba.digest());
  EXPECT_EQ(ab, ba);
  EXPECT_NE(ab.digest(), serve::LatencyHistogram{}.digest());
}

TEST(ServeLatency, HistogramExtremesStayInBounds) {
  serve::LatencyHistogram h;
  h.add(sim::Time::from_ns(0));
  h.add(sim::Time::from_ns(1));
  h.add(sim::Time::from_sec(3600));  // clamps into the last bucket
  EXPECT_EQ(h.total(), 3u);
  EXPECT_GE(h.quantile_us(1.0), h.quantile_us(0.0));
}

TEST(ServeLatency, SloAccountBoundaryAndGoodput) {
  serve::SloAccount s(sim::Time::from_us(150));
  s.add(sim::Time::from_us(150));  // exactly-at-SLO counts as met
  s.add(sim::Time::from_us(151));
  s.add(sim::Time::from_us(10));
  EXPECT_EQ(s.ok(), 2u);
  EXPECT_EQ(s.miss(), 1u);
  EXPECT_DOUBLE_EQ(s.ok_fraction(), 2.0 / 3.0);
  // 2 SLO-met responses over 1ms of virtual time = 2000 req/s.
  EXPECT_DOUBLE_EQ(s.goodput_rps(sim::Time::from_ms(1)), 2'000'000.0 / 1000);
  EXPECT_DOUBLE_EQ(s.goodput_rps(sim::Time{}), 0.0);
  serve::SloAccount t(sim::Time::from_us(150));
  t.add(sim::Time::from_us(1));
  t.merge(s);
  EXPECT_EQ(t.ok(), 3u);
  EXPECT_EQ(t.miss(), 1u);
}

// ---------------------------------------------------------------------------
// Traffic generator properties vs closed forms.

TEST(ServeTraffic, BoundedParetoMatchesClosedFormMeanAndTail) {
  serve::BoundedPareto p{1.3, 64, 16384};
  sim::Rng rng(2026);
  constexpr int kN = 200000;
  double sum = 0;
  int above_1k = 0, above_8k = 0;
  for (int i = 0; i < kN; ++i) {
    const double x = p.sample(rng.next_double());
    ASSERT_GE(x, 64.0);
    ASSERT_LE(x, 16384.0);
    sum += x;
    if (x > 1024.0) ++above_1k;
    if (x > 8192.0) ++above_8k;
  }
  const double emp_mean = sum / kN;
  EXPECT_NEAR(emp_mean / p.mean(), 1.0, 0.03)
      << "empirical " << emp_mean << " vs closed form " << p.mean();
  // Tail mass against the closed-form CDF at two abscissae, within 3-sigma
  // binomial noise of the 200k-draw estimate.
  for (const auto& [x, got] :
       {std::pair<double, int>{1024.0, above_1k}, {8192.0, above_8k}}) {
    const double want = 1.0 - p.cdf(x);
    const double sigma = std::sqrt(want * (1 - want) / kN);
    EXPECT_NEAR(static_cast<double>(got) / kN, want, 3 * sigma + 1e-4)
        << "tail at " << x;
  }
}

TEST(ServeTraffic, ArrivalStreamIsDeterministicBySeedAndEdge) {
  serve::TrafficConfig cfg;
  cfg.seed = 7;
  serve::TrafficGen a(cfg, 0), b(cfg, 0);
  serve::TrafficGen other_edge(cfg, 1);
  serve::TrafficConfig cfg2 = cfg;
  cfg2.seed = 8;
  serve::TrafficGen other_seed(cfg2, 0);
  bool edge_differs = false, seed_differs = false;
  for (int i = 0; i < 500; ++i) {
    const serve::Arrival x = a.next(), y = b.next();
    EXPECT_EQ(x.at.ns(), y.at.ns());
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.client, y.client);
    EXPECT_EQ(x.req_bytes, y.req_bytes);
    EXPECT_EQ(x.resp_bytes, y.resp_bytes);
    EXPECT_EQ(x.hedged, y.hedged);
    const serve::Arrival e = other_edge.next(), s = other_seed.next();
    edge_differs |= e.key != x.key || e.at.ns() != x.at.ns();
    seed_differs |= s.key != x.key || s.at.ns() != x.at.ns();
  }
  EXPECT_TRUE(edge_differs);
  EXPECT_TRUE(seed_differs);
}

TEST(ServeTraffic, OpenLoopArrivalsAdvanceAndBurstsModulate) {
  // Arrival stamps are the INTENDED injection times — a pure, monotone
  // function of the seed, independent of any downstream backpressure.
  serve::TrafficConfig cfg;
  cfg.seed = 3;
  cfg.phase_len = sim::Time::from_us(100);
  cfg.mean_interarrival = sim::Time::from_us(2);
  serve::TrafficGen g(cfg, 0);
  sim::Time prev;
  std::vector<std::int64_t> stamps;
  for (int i = 0; i < 2000; ++i) {
    const serve::Arrival a = g.next();
    EXPECT_GE(a.at.ns(), prev.ns()) << "open-loop clock must not go back";
    prev = a.at;
    stamps.push_back(a.at.ns());
    EXPECT_LT(a.client, serve::kClients);
  }
  // The diurnal multiplier really modulates rate: count arrivals in the
  // busiest vs calmest phase bucket of the first schedule period.
  const std::int64_t period = cfg.phase_len.ns() * serve::kPhases;
  std::vector<int> per_phase(static_cast<std::size_t>(serve::kPhases), 0);
  for (const std::int64_t t : stamps) {
    if (t >= period) break;
    per_phase[static_cast<std::size_t>(t / cfg.phase_len.ns())] += 1;
  }
  int lo = per_phase[0], hi = per_phase[0];
  for (const int n : per_phase) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GT(hi, lo) << "burst schedule did not modulate the arrival rate";
}

TEST(ServeTraffic, PhaseMultiplierIsBoundedAndPeriodic) {
  for (int phases : {1, 4, 8}) {
    for (int ph = 0; ph < phases * 2; ++ph) {
      const double m = serve::phase_multiplier(ph, phases);
      EXPECT_GE(m, 0.39);
      EXPECT_LE(m, 1.61);
      EXPECT_NEAR(serve::phase_multiplier(ph + phases, phases), m, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Config validation at the call.

TEST(ServeSpec, RunRejectsInvalidTopology) {
  serve::ServeConfig cfg = small_cfg(Approach::kBaseline);
  cfg.edges = 0;
  EXPECT_THROW(serve::run_serve(cfg), std::invalid_argument);
  cfg = small_cfg(Approach::kBaseline);
  cfg.shards = 0;
  EXPECT_THROW(serve::run_serve(cfg), std::invalid_argument);
  cfg = small_cfg(Approach::kBaseline);
  cfg.window = 0;
  EXPECT_THROW(serve::run_serve(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end determinism matrix + faulted soak.

TEST(ServeEndToEnd, RepeatRunsAreBitIdentical) {
  const serve::ServeConfig cfg = small_cfg(Approach::kOffload);
  const serve::ServeResult a = serve::run_serve(cfg);
  const serve::ServeResult b = serve::run_serve(cfg);
  EXPECT_EQ(a.responses, cfg.requests * static_cast<std::size_t>(cfg.edges));
  // Same seed, same config: EVERYTHING reproduces, including the latency
  // distribution and the derived quantiles.
  EXPECT_EQ(a.payload_digest, b.payload_digest);
  EXPECT_EQ(a.update_digest, b.update_digest);
  EXPECT_EQ(a.histogram_digest, b.histogram_digest);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.hedged, b.hedged);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.slo_ok, b.slo_ok);
  EXPECT_EQ(a.slo_miss, b.slo_miss);
  EXPECT_EQ(a.makespan.ns(), b.makespan.ns());
  EXPECT_DOUBLE_EQ(a.p50_us, b.p50_us);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
  EXPECT_DOUBLE_EQ(a.p999_us, b.p999_us);
  EXPECT_DOUBLE_EQ(a.goodput_rps, b.goodput_rps);
}

TEST(ServeEndToEnd, PayloadDigestInvariantAcrossApproaches) {
  // Response payloads are a pure function of the request envelope — who
  // serves them, and how completions are progressed, must not matter.
  const serve::ServeResult base = serve::run_serve(small_cfg(Approach::kBaseline));
  for (Approach a :
       {Approach::kIprobe, Approach::kCommSelf, Approach::kOffload}) {
    const serve::ServeResult r = serve::run_serve(small_cfg(a));
    EXPECT_EQ(r.payload_digest, base.payload_digest)
        << core::approach_name(a);
    EXPECT_EQ(r.update_digest, base.update_digest) << core::approach_name(a);
    EXPECT_EQ(r.responses, base.responses) << core::approach_name(a);
    EXPECT_EQ(r.checksum_fail, 0u) << core::approach_name(a);
  }
}

TEST(ServeEndToEnd, DigestInvariantAcrossEnginesAndFaults) {
  // The acceptance matrix: offload engines {1,4} x {clean, faulted} all
  // produce the same payload and update digests, and every run answers
  // every request exactly once (faulted wires retransmit, never duplicate
  // into the application).
  std::vector<serve::ServeResult> rs;
  for (std::size_t engines : {1u, 4u}) {
    for (bool f : {false, true}) {
      serve::ServeConfig cfg = small_cfg(Approach::kOffload);
      cfg.proxy_count = engines;
      if (f) cfg = faulted(cfg);
      rs.push_back(serve::run_serve(cfg));
      const serve::ServeResult& r = rs.back();
      EXPECT_EQ(r.responses,
                cfg.requests * static_cast<std::size_t>(cfg.edges))
          << "engines=" << engines << " faulted=" << f;
      EXPECT_EQ(r.checksum_fail, 0u);
      EXPECT_EQ(r.hedge_wins + r.primary_wins, r.hedged);
    }
  }
  for (std::size_t i = 1; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].payload_digest, rs[0].payload_digest) << "run " << i;
    EXPECT_EQ(rs[i].update_digest, rs[0].update_digest) << "run " << i;
  }
}

TEST(ServeEndToEnd, FaultedSoakLosesAndDuplicatesNothing) {
  // Heavier fault mix and more traffic than the matrix test: the invariant
  // is exactly-once request/response accounting end to end.
  serve::ServeConfig cfg = small_cfg(Approach::kOffload);
  cfg.requests = 300;
  cfg.workers = 4;
  cfg.faults = machine::FaultSpec{
      .on = true, .drop = 0.03, .dup = 0.02, .reorder = 0.1, .seed = 7};
  const serve::ServeResult r = serve::run_serve(cfg);
  EXPECT_EQ(r.requests, cfg.requests * static_cast<std::size_t>(cfg.edges));
  EXPECT_EQ(r.responses, r.requests) << "lost or duplicated responses";
  EXPECT_EQ(r.checksum_fail, 0u) << "corrupted payload reached the app";
  EXPECT_EQ(r.hedge_wins + r.primary_wins, r.hedged);
  EXPECT_GT(r.hedged, 0u) << "hedge fraction never triggered";
  // Repeat: the faulted run is as deterministic as the clean one.
  const serve::ServeResult r2 = serve::run_serve(cfg);
  EXPECT_EQ(r2.histogram_digest, r.histogram_digest);
  EXPECT_EQ(r2.payload_digest, r.payload_digest);
}

TEST(ServeEndToEnd, OfferedLoadIsIndependentOfBackpressure) {
  // Open-loop contract at the system level: arrival stamps (and thus the
  // offered rate) are fixed by the generator even when a tiny window makes
  // the edge queue requests long past their intended injection times.
  serve::ServeConfig wide = small_cfg(Approach::kOffload);
  wide.window = 16;
  serve::ServeConfig narrow = wide;
  narrow.window = 1;
  const serve::ServeResult a = serve::run_serve(wide);
  const serve::ServeResult b = serve::run_serve(narrow);
  EXPECT_DOUBLE_EQ(a.offered_rps, b.offered_rps);
  EXPECT_EQ(a.payload_digest, b.payload_digest);
  // Latency, by contrast, legitimately suffers under the narrow window.
  EXPECT_GE(b.p99_us, a.p99_us);
}
