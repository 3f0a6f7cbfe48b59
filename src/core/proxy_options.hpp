// ProxyOptions: the offload channel's capacities, engine count and watchdog
// budget. Its per-pass bounds and post_batch's flush are constants beside
// the code they bound (OffloadChannel::kLaneDrainBound, kStealBound,
// kContRunBound; OffloadProxy::kBatchFlush).
//
// Defaults come from the machine profile (defaults_for). Code that needs
// other capacities or another watchdog budget sets the fields and passes the
// struct to the OffloadProxy constructor, which rejects (std::invalid_argument)
// a capacity the structures cannot hold: a ring or lane capacity that is not
// a power of two >= 2, a pool capacity outside [1, 2^32 - 1).
//
// The engine count alone can also be set without recompiling, through the
// MPIOFF_PROXY environment spec (from_env), mirroring MPIOFF_FAULTS:
//
//   MPIOFF_PROXY=proxies:4 ./bench_...
//
//   proxies  offload engine fibers per rank (>= 1), as proxies:<n> or
//            proxies=<n>; traffic is partitioned by peer/communicator hash
//            so per-peer matching order holds; with two or more, idle
//            engines steal from busy siblings
//
// Any other key, and a repeated one, is rejected naming 'proxies': a
// retuning wrapper script that appends to an inherited spec should fail
// loudly, not silently last-write-win.
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

  /// Parse a "proxies:<n>" (or "proxies=<n>") spec on top of `base`. Throws
  /// std::invalid_argument naming the bad key/value and 'proxies'.
  static ProxyOptions parse(const std::string& spec, ProxyOptions base);
  static ProxyOptions parse(const std::string& spec) {
    return parse(spec, ProxyOptions{});
  }

  /// defaults_for(p), then apply the MPIOFF_PROXY env spec if set.
  static ProxyOptions from_env(const machine::Profile& p);
};

}  // namespace core
