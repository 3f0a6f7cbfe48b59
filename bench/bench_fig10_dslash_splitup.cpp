// Figure 10: where Wilson-Dslash time goes — compute / wait / misc(+post)
// percentage split for baseline vs offload, Xeon and Xeon Phi, 32^3x256.
//
// Paper shape: baseline wait share grows with node count (~25% at 64 Xeon
// nodes); offload keeps wait under ~5% through better overlap.
#include <cstdio>

#include "apps/qcd/dslash_perf.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;
using qcd::QcdPerfConfig;
using qcd::QcdPerfResult;

int main() {
  benchlib::Runner runner;
  for (const auto& prof : {machine::xeon_fdr(), machine::xeon_phi()}) {
    std::printf("Figure 10: Dslash timing split, 32^3x256, %s\n",
                prof.name.c_str());
    Table t({"nodes", "approach", "compute%", "wait%", "misc+post%"});
    for (int nodes : {16, 32, 64, 128}) {
      for (Approach a : {Approach::kBaseline, Approach::kOffload}) {
        QcdPerfConfig cfg;
        cfg.global = {32, 32, 32, 256};
        cfg.nodes = nodes;
        cfg.profile = prof;
        if (prof.name == "xeon_phi") cfg.flops_per_ns_thread = 1.2;
        cfg.iters = 10;
        cfg.approach = a;
        const QcdPerfResult r = run_qcd_perf(cfg);
        const double tot = r.internal_us + r.post_us + r.wait_us + r.misc_us;
        t.row({fmt_int(nodes), core::approach_name(a),
               fmt_pct(r.internal_us / tot), fmt_pct(r.wait_us / tot),
               fmt_pct((r.misc_us + r.post_us) / tot)});
      }
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
