// ProxyOptions: the offload channel's capacities, engine count and watchdog
// budget. Its per-pass bounds and post_batch's flush are constants beside
// the code they bound (OffloadChannel::kLaneDrainBound, kStealBound,
// kContRunBound; OffloadProxy::kBatchFlush).
//
// Defaults come from the machine profile (defaults_for), and a run can be
// retuned without recompiling through the MPIOFF_PROXY environment spec
// (from_env), mirroring MPIOFF_FAULTS:
//
//   MPIOFF_PROXY="lanes=8,lane_cap=128,watchdog=200ms" ./bench_...
//
// Keys (all optional, comma-separated key=value or key:value):
//   ring     shared MPSC command-ring capacity (power of two >= 2), per
//            engine; a bound: cells are built 64 at a time as reached
//   pool     request-pool capacity (done-flag slots, 1 <= pool < 2^32-1);
//            a bound: slots are built 64 at a time as requests take them
//   lanes    per-thread SPSC submission lane count; 0 = single shared ring
//   lane_cap capacity of each lane (power of two >= 2)
//   watchdog in-flight age budget (duration: ns/us/ms/s suffix), 0 disables
//   proxies  offload engine fibers per rank (>= 1); traffic is partitioned
//            by peer/communicator hash so per-peer matching order holds;
//            with two or more, idle engines steal from busy siblings
//
// Unknown and repeated keys are rejected: a retuning wrapper script that
// appends to an inherited spec should fail loudly, not silently
// last-write-win.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "machine/profile.hpp"
#include "sim/time.hpp"

namespace core {

struct ProxyOptions {
  std::size_t ring_capacity = 1024;   ///< shared MPSC ring (fallback/overflow)
  std::uint32_t pool_capacity = 4096; ///< request-pool done-flag slots
  std::size_t lane_count = 8;         ///< SPSC lanes; 0 = shared ring only
  std::size_t lane_capacity = 64;     ///< per-lane ring capacity
  /// Virtual age past which the watchdog flags an in-flight request
  /// (OffloadStats::watchdog_flags + a trace instant; never alters timing).
  sim::Time watchdog_budget{500'000'000};  ///< 0 disables the watchdog
  /// Offload engine fibers per rank. The struct default stays 1 (explicit
  /// aggregate options get the classic single-engine channel); defaults_for
  /// derives it from the profile's NUMA-domain count.
  std::size_t proxy_count = 1;

  /// Profile-derived defaults: one lane per usable submitter core (capped),
  /// one engine fiber per NUMA domain.
  static ProxyOptions defaults_for(const machine::Profile& p);

  /// Parse a "key=value,key=value" spec on top of `base`. Throws
  /// std::invalid_argument naming the bad key/value and the valid keys.
  static ProxyOptions parse(const std::string& spec, ProxyOptions base);
  static ProxyOptions parse(const std::string& spec) {
    return parse(spec, ProxyOptions{});
  }

  /// defaults_for(p), then apply the MPIOFF_PROXY env spec if set.
  static ProxyOptions from_env(const machine::Profile& p);
};

}  // namespace core
