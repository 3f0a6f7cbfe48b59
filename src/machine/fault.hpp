// Deterministic wire-fault injection (drop / duplicate / corrupt / delay /
// reorder / NIC stall) for the simulated interconnect.
//
// The plan is pure hardware misbehaviour: it perturbs NetMessages inside
// Network::send, below the MPI layer, so every proxy (baseline, iprobe,
// comm-self, offload) sees the *identical* fault schedule for a given seed.
// Determinism does not depend on global event interleaving: each decision is
// drawn from a fresh RNG keyed by (seed, src, dst, per-pair frame counter),
// so the n-th frame a pair ever sends suffers the same fate no matter how
// the proxies reorder traffic between pairs. Retransmitted frames are new
// frames on the wire and roll the dice again (they advance the pair's
// counter), exactly like a real lossy link.
//
// Recovering MPI semantics under these faults is the job of the software
// reliability sublayer in src/mpi/ (see DESIGN.md §10); the plan itself never
// repairs anything.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace machine {

/// Per-profile fault configuration. All probabilities are per-frame in
/// [0, 1]; the spec is inert (zero-cost) until `on` is set — either
/// programmatically or by parse().
struct FaultSpec {
  bool on = false;
  double drop = 0.0;     ///< frame lost in the fabric after leaving the NIC
  double dup = 0.0;      ///< frame delivered twice (second copy jittered)
  double corrupt = 0.0;  ///< one bit flipped in payload/header
  double delay = 0.0;    ///< extra delivery jitter in [0, delay_max)
  double reorder = 0.0;  ///< large jitter (1-4x net latency): overtakes peers
  double stall = 0.0;    ///< NIC egress/ingress paused for stall_window
  sim::Time delay_max{20'000};     ///< max extra jitter when `delay` fires
  sim::Time stall_window{50'000};  ///< NIC pause length when `stall` fires
  /// Base of the software retransmit timer (reliability sublayer); the
  /// effective RTO also scales with the unacked backlog and backs off
  /// exponentially.
  sim::Time rto_base{100'000};
  std::uint64_t seed = 1;

  [[nodiscard]] bool enabled() const { return on; }

  /// Parse a spec string (the MPIOFF_FAULTS format), e.g.
  ///   "drop=0.02,dup=0.01,corrupt=0.005,delay=0.1:20us,reorder=0.05,
  ///    stall=0.001:50us,rto=100us,seed=42"
  /// Durations accept ns/us/ms/s suffixes (bare numbers are ns). Throws
  /// std::invalid_argument on malformed input. The result has on = true.
  static FaultSpec parse(const std::string& spec);
};

/// What the plan decided for one frame. The network applies it mechanically.
struct FaultDecision {
  bool drop = false;
  bool dup = false;
  bool corrupt = false;
  sim::Time delay;          ///< extra fabric jitter before delivery
  sim::Time dup_delay;      ///< jitter of the duplicate copy, relative
  sim::Time egress_stall;   ///< pause of the source NIC before this frame
  sim::Time ingress_stall;  ///< pause of the destination NIC
  std::uint64_t corrupt_bit = 0;  ///< which bit to flip (mod frame size)
};

class FaultPlan {
 public:
  struct Stats {
    std::uint64_t frames = 0;  ///< frames a decision was drawn for
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t delayed = 0;
    std::uint64_t reordered = 0;
    std::uint64_t egress_stalls = 0;
    std::uint64_t ingress_stalls = 0;
    sim::Time stall_time;  ///< total NIC pause injected (both directions)
  };

  /// `net_latency` scales the reorder jitter so "overtakes the next frame"
  /// holds on any profile.
  FaultPlan(const FaultSpec& spec, int nranks, sim::Time net_latency);

  /// Draw the fate of the next frame from src to dst. Advances the pair's
  /// frame counter; deterministic in (seed, src, dst, counter) only.
  FaultDecision decide(int src, int dst);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  FaultSpec spec_;
  int nranks_;
  sim::Time net_latency_;
  std::vector<std::uint64_t> pair_ctr_;  ///< frames sent per (src,dst)
  Stats stats_;
};

}  // namespace machine
