// Shared bench-harness plumbing: environment handling for tracing and the
// optional stats trailer.
//
// Every bench main constructs one Runner and prints its result tables with
// Table::print. The environment selects:
//
//   MPIOFF_TRACE=<file>   write a Chrome trace-event JSON of the whole run
//   MPIOFF_STATS=1        print EngineStats/OffloadStats trailers
//
// The tracer is enabled in the constructor (before any Cluster exists) and
// the trace file is written in the destructor, so a bench needs no other
// changes to become traceable.
#pragma once

#include <string>

namespace core {
class Proxy;
}
namespace smpi {
class Cluster;
}

namespace benchlib {

class Runner {
 public:
  Runner();
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Global switch read by the benchlib kernels' stats hooks.
  static bool stats_enabled();

  /// True when MPIOFF_BENCH_SMOKE=1: benches run a reduced configuration
  /// (fewer sizes/thread counts) so CI can execute them in minutes while
  /// still producing real `[stats]` trailers.
  static bool smoke_enabled();

 private:
  std::string trace_path_;
};

// Hooks the benchlib kernels call at well-defined points. Both are no-ops
// unless stats are enabled (MPIOFF_STATS=1).

/// Per-rank hook, called just before Proxy::stop(): prints the rank-0
/// OffloadStats trailer.
void report_proxy_stats(core::Proxy& p);

/// Whole-run hook, called after Cluster::run() returns: prints the
/// EngineStats trailer.
void report_cluster_stats(smpi::Cluster& c);

}  // namespace benchlib
