// Figure 12: Wilson-Dslash with MPI_THREAD_MULTIPLE thread-groups — multiple
// application threads concurrently issue the halo exchange, relative to the
// same approach with funneled issue.
//
// Paper shape: concurrent issue through a big-lock MPI hurts or barely helps
// baseline/iprobe/comm-self; through the offload command queue it gains up
// to ~15% (the communication-parallelism benefit without the lock).
#include <cstdio>

#include "apps/qcd/dslash_perf.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;
using qcd::QcdPerfConfig;

int main() {
  benchlib::Runner runner;
  std::printf("Figure 12: Dslash with thread-groups (4 groups) vs funneled, "
              "32^3x256, Endeavor Xeon (relative speedup)\n");
  Table t({"nodes", "baseline", "iprobe", "comm-self", "offload"});
  for (int nodes : {64, 128, 256}) {
    std::vector<std::string> row{fmt_int(nodes)};
    for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                       Approach::kCommSelf, Approach::kOffload}) {
      QcdPerfConfig cfg;
      cfg.global = {32, 32, 32, 256};
      cfg.nodes = nodes;
      cfg.iters = 10;
      cfg.approach = a;
      const double funneled = run_qcd_perf(cfg).tflops;
      cfg.thread_groups = 4;
      const double grouped = run_qcd_perf(cfg).tflops;
      row.push_back(fmt_double(grouped / funneled, 3));
    }
    t.row(row);
  }
  t.print();
  return 0;
}
