// Sharded parameter-server / inference tier under a latency SLO.
//
// Topology: the first `edges` ranks are edge (front-end) ranks, the
// remaining `shards` ranks are shard (server) ranks.
//
//   * Each edge runs an OPEN-LOOP TrafficGen (apps/serve/traffic.hpp) and an
//     inflight window of `window` slots. A request hash-routes by key to a
//     primary shard; a seeded fraction is HEDGED — sent simultaneously to
//     the primary and its replica ((primary+1) % shards), with the two
//     response receives raced through cont::when_any: whichever replica
//     answers first wins, exactly once, and the loser's late response is
//     drained by the group's settled hook (no cancellation — DESIGN.md §17).
//   * Each shard pre-posts per-edge request receives whose continuations
//     re-arm themselves from engine context (a reactive loop that never
//     rejoins the app thread), queue the request, and hand it to `workers`
//     worker fibers — the "app threads" of the A12 ablation — which model
//     the service time with smpi::compute and send the response back.
//   * Shards co-run `rounds` continuation-chained iallreduce model-update
//     rounds on a shard-only communicator (each round posted from the
//     previous round's completion callback).
//
// Determinism contract (tests/test_serve.cpp):
//   * response payloads are a pure function of the request envelope
//     (client, seq, key, request-payload checksum) — both replicas of a
//     hedged request produce IDENTICAL bytes, so the edge's payload digest
//     does not depend on who wins the race, on the proxy approach, on the
//     engine count, or on fault-induced retransmits (the reliability layer
//     delivers bit-identical payloads);
//   * the latency histogram/SLO tallies are deterministic for a fixed
//     configuration (same seed => same histogram on every rerun), but NOT
//     comparable across different proxy approaches or engine counts, which
//     legitimately change virtual timing — the cross-proxy assertion is on
//     the payload digest, the repeat-run assertion is on everything.
#pragma once

#include <cstdint>

#include "apps/serve/traffic.hpp"
#include "core/proxy.hpp"
#include "machine/fault.hpp"
#include "sim/time.hpp"

namespace serve {

/// A worker serves a request in 2 us + 200 ns per KiB of request and
/// response payload; the run aborts if its virtual clock passes 600 s.
struct ServeConfig {
  core::Approach approach = core::Approach::kOffload;
  int edges = 1;
  int shards = 2;
  int workers = 4;           ///< worker fibers per shard ("app threads")
  std::size_t requests = 800;  ///< per edge
  std::size_t window = 16;     ///< inflight slots per edge
  TrafficConfig traffic;       ///< seed, base rate, burst length
  sim::Time slo = sim::Time::from_us(150);
  int rounds = 8;            ///< model-update allreduce rounds
  std::size_t update = 64;   ///< doubles per update vector
  std::size_t proxy_count = 0;  ///< offload engines per rank; 0 = env default
  /// Wire fault plan for the run; the default (on = false) is a clean wire.
  machine::FaultSpec faults;
};

/// Aggregated run outcome (all edges merged; shard 0's update digest).
struct ServeResult {
  std::uint64_t requests = 0;   ///< injected client requests (all edges)
  std::uint64_t responses = 0;  ///< requests whose winning response arrived
  std::uint64_t hedged = 0;     ///< requests sent to two replicas
  std::uint64_t hedge_wins = 0;    ///< hedged requests won by the replica
  std::uint64_t primary_wins = 0;  ///< hedged requests won by the primary
  std::uint64_t checksum_fail = 0;  ///< responses whose payload digest lied
  std::uint64_t payload_digest = 0;  ///< order-independent response identity
  std::uint64_t update_digest = 0;   ///< allreduce round results, in order
  std::uint64_t histogram_digest = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0;
  std::uint64_t slo_ok = 0, slo_miss = 0;
  double goodput_rps = 0;  ///< SLO-met responses per virtual second
  double offered_rps = 0;  ///< injected requests per virtual second
  sim::Time makespan;      ///< first injection to last winning response
  // Offload engine counters (zero for direct approaches).
  std::uint64_t cont_executed = 0;
  std::uint64_t cont_posts = 0;
  std::uint64_t steal_commands = 0;
};

/// Run the serving tier to completion. Deterministic per config.
ServeResult run_serve(const ServeConfig& cfg);

}  // namespace serve
