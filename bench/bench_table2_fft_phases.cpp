// Table 2: SOI-FFT time per transform on the Endeavor Xeon Phi coprocessor
// cluster (ms) — internal / post / wait / misc / total, baseline vs offload.
//
// Paper shape: ~90-96% post-time reduction; wait-time reduction shrinks from
// 87% at 2 nodes to ~22% at 32 nodes (all-to-all bandwidth does not scale);
// internal compute 2-5% slower; total time always better with offload.
#include <cstdio>

#include "apps/fft/distributed_fft.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;
using fft::FftPerfConfig;
using fft::FftPerfResult;

int main() {
  benchlib::Runner runner;
  std::printf("Table 2: 1-D FFT (SOI) per transform, 2^25 points/node, "
              "Endeavor Xeon Phi cluster (ms)\n");
  Table t({"nodes", "approach", "internal", "post", "wait", "misc", "total",
           "slowdown", "post-red", "wait-red"});
  for (int nodes : {2, 4, 8, 16, 32}) {
    FftPerfConfig cfg;
    cfg.nodes = nodes;
    cfg.points_per_node = 1u << 25;
    cfg.profile = machine::xeon_phi();
    cfg.flops_per_ns_thread = 0.35;  // slow in-order cores
    cfg.iters = 3;
    cfg.approach = Approach::kBaseline;
    const FftPerfResult base = run_fft_perf(cfg);
    cfg.approach = Approach::kOffload;
    const FftPerfResult off = run_fft_perf(cfg);
    auto red = [](double b, double o) {
      return b > 0 ? fmt_pct((b - o) / b) : std::string("-");
    };
    t.row({fmt_int(nodes), "baseline", fmt_ms(base.internal_ms, 1),
           fmt_ms(base.post_ms, 3), fmt_ms(base.wait_ms, 1),
           fmt_ms(base.misc_ms, 1), fmt_ms(base.total_ms, 1), "", "", ""});
    t.row({fmt_int(nodes), "offload", fmt_ms(off.internal_ms, 1),
           fmt_ms(off.post_ms, 3), fmt_ms(off.wait_ms, 1),
           fmt_ms(off.misc_ms, 1), fmt_ms(off.total_ms, 1),
           fmt_pct((off.internal_ms - base.internal_ms) /
                   (base.internal_ms > 0 ? base.internal_ms : 1)),
           red(base.post_ms, off.post_ms), red(base.wait_ms, off.wait_ms)});
  }
  t.print();
  return 0;
}
