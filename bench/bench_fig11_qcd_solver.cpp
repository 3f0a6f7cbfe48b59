// Figure 11: full QCD solver (CG/BiCGStab) performance — Dslash plus BLAS1
// sweeps and global reductions per iteration.
//
// Paper shape: same ordering as Fig. 9 but lower absolute TFLOPS (the
// Allreduce latency and memory-bound BLAS1 do not scale like the stencil);
// best observed ~34 TFLOPS with offload vs ~67 for Dslash alone.
#include <cstdio>

#include "apps/qcd/dslash_perf.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;
using qcd::QcdPerfConfig;

int main() {
  benchlib::Runner runner;
  std::printf("Figure 11: QCD solver (Dslash + BLAS1 + Allreduce), "
              "48^3x512, Endeavor Xeon (TFLOPS)\n");
  Table t({"nodes", "baseline", "iprobe", "comm-self", "offload"});
  for (int nodes : {32, 64, 128, 256}) {
    std::vector<std::string> row{fmt_int(nodes)};
    for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                       Approach::kCommSelf, Approach::kOffload}) {
      QcdPerfConfig cfg;
      cfg.global = {48, 48, 48, 512};
      cfg.nodes = nodes;
      cfg.iters = 10;
      cfg.solver = true;
      cfg.approach = a;
      row.push_back(fmt_double(run_qcd_perf(cfg).tflops, 2));
    }
    t.row(row);
  }
  t.print();
  return 0;
}
