// Shared bench-harness plumbing: command-line/environment handling for
// tracing, CSV output, and the optional stats trailer.
//
// Every bench main constructs one Runner from (argc, argv) and hands each
// result table to finish(). Options:
//
//   --trace <file>   write a Chrome trace-event JSON of the whole run
//                    (env: MPIOFF_TRACE=<file>)
//   --csv <file>     also dump every table as CSV to <file>
//   --stats          print EngineStats/OffloadStats trailers and emit them
//                    as trace counters (env: MPIOFF_STATS=1)
//
// The tracer is enabled in the constructor (before any Cluster exists) and
// the trace file is written in the destructor, so a bench needs no other
// changes to become traceable.
#pragma once

#include <string>

#include "benchlib/table.hpp"

namespace core {
class Proxy;
}
namespace smpi {
class Cluster;
}

namespace benchlib {

class Runner {
 public:
  Runner(int argc, char** argv);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Print the table to stdout and, with --csv, append it to the CSV file.
  void finish(const Table& t);

  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }

  /// Global switch read by the benchlib kernels' stats hooks.
  static bool stats_enabled();
  static void set_stats_enabled(bool on);

  /// True when MPIOFF_BENCH_SMOKE=1: benches run a reduced configuration
  /// (fewer sizes/thread counts) so CI can execute them in minutes while
  /// still producing real `[stats]` trailers.
  static bool smoke_enabled();

  /// The Runner currently alive in this process (nullptr outside main).
  static Runner* active();

 private:
  std::string trace_path_;
  std::string csv_path_;
  bool csv_started_ = false;
};

/// Table output for code that can't see the Runner instance: routes through
/// Runner::active() when one exists (CSV-aware), plain print otherwise.
void finish_table(const Table& t);

// Hooks the benchlib kernels call at well-defined points. Both are no-ops
// unless stats are enabled (--stats / MPIOFF_STATS=1).

/// Per-rank hook, called just before Proxy::stop(): prints the rank-0
/// OffloadStats trailer and emits per-rank offload counters into the trace.
void report_proxy_stats(core::Proxy& p);

/// Whole-run hook, called after Cluster::run() returns: prints the
/// EngineStats trailer and emits them as trace counters.
void report_cluster_stats(smpi::Cluster& c);

}  // namespace benchlib
