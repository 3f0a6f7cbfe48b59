// Table 1: QCD Wilson-Dslash time per iteration for a 32^3 x 256 lattice on
// the Endeavor Xeon cluster — internal-compute / post / wait / misc / total
// for baseline vs offload, plus the derived reduction columns.
//
// Paper shape: offload posts in <1 us (>99% reduction) at every scale; wait
// time drops 99% at small scale (full overlap) shrinking to 33% at 256
// nodes; internal compute is 1-5% slower (one core donated to the offload
// thread); total time is lower everywhere.
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
  std::printf("Table 1: QCD Dslash time per iteration, 32^3x256 lattice, "
              "Endeavor Xeon (us)\n");
  Table t({"nodes", "approach", "internal", "post", "wait", "misc", "total",
           "slowdown", "post-red", "wait-red"});
  for (int nodes : {8, 16, 32, 64, 128, 256}) {
    QcdPerfConfig cfg;
    cfg.global = {32, 32, 32, 256};
    cfg.nodes = nodes;
    cfg.iters = 10;
    cfg.approach = Approach::kBaseline;
    const QcdPerfResult base = run_qcd_perf(cfg);
    cfg.approach = Approach::kOffload;
    const QcdPerfResult off = run_qcd_perf(cfg);
    auto red = [](double b, double o) {
      return b > 0 ? fmt_pct((b - o) / b) : std::string("-");
    };
    t.row({fmt_int(nodes), "baseline", fmt_us(base.internal_us, 0),
           fmt_us(base.post_us), fmt_us(base.wait_us, 0), fmt_us(base.misc_us, 0),
           fmt_us(base.total_us, 0), "", "", ""});
    t.row({fmt_int(nodes), "offload", fmt_us(off.internal_us, 0),
           fmt_us(off.post_us), fmt_us(off.wait_us, 0), fmt_us(off.misc_us, 0),
           fmt_us(off.total_us, 0),
           fmt_pct((off.internal_us - base.internal_us) /
                   (base.internal_us > 0 ? base.internal_us : 1)),
           red(base.post_us, off.post_us), red(base.wait_us, off.wait_us)});
  }
  t.print();
  return 0;
}
