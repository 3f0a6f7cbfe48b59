// Figure 13: 1-D FFT weak scaling — (a) Xeon, 2^29 points/node; (b) Xeon
// Phi, 2^25 points/node. Aggregate GFLOPS vs nodes per approach.
//
// Paper shape: offload gains ~20% over baseline at small node counts on
// Xeon, shrinking to ~10% at 128 and marginal at 256 (the transform becomes
// all-to-all-bandwidth-bound); on the Phi the gains are larger (26-43%)
// because the MPI software overheads being hidden are bigger. comm-self is
// not available on the Phi platform (no MPI_THREAD_MULTIPLE there).
#include <cstdio>
#include <vector>

#include "apps/fft/distributed_fft.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;
using fft::FftPerfConfig;

int main() {
  benchlib::Runner runner;
  // Node counts capped at 64 (paper: 256): the 2^29-point all-to-alls at
  // 128+ simulated ranks generate O(10^8) wire events — beyond what a
  // single-host run of the simulator can turn around. The paper's trend
  // (offload advantage shrinking as the transform becomes all-to-all
  // bandwidth bound) is already fully visible by 64 nodes.
  std::printf("Figure 13(a): FFT weak scaling, 2^29 points/node, Endeavor "
              "Xeon (GFLOPS)\n");
  Table a({"nodes", "baseline", "iprobe", "comm-self", "offload"});
  for (int nodes : {2, 4, 8, 16, 32, 64}) {
    std::vector<std::string> row{fmt_int(nodes)};
    for (Approach ap : {Approach::kBaseline, Approach::kIprobe,
                        Approach::kCommSelf, Approach::kOffload}) {
      FftPerfConfig cfg;
      cfg.nodes = nodes;
      cfg.points_per_node = 1u << 29;
      cfg.profile = machine::xeon_fdr();
      cfg.flops_per_ns_thread = 1.0;
      cfg.iters = 2;
      cfg.approach = ap;
      row.push_back(fmt_double(run_fft_perf(cfg).gflops, 1));
    }
    a.row(row);
  }
  a.print();

  std::printf("\nFigure 13(b): FFT weak scaling, 2^25 points/node, Endeavor "
              "Xeon Phi (GFLOPS); comm-self unsupported on this platform\n");
  Table b({"nodes", "baseline", "iprobe", "offload"});
  for (int nodes : {2, 4, 8, 16, 32}) {
    std::vector<std::string> row{fmt_int(nodes)};
    for (Approach ap : {Approach::kBaseline, Approach::kIprobe,
                        Approach::kOffload}) {
      FftPerfConfig cfg;
      cfg.nodes = nodes;
      cfg.points_per_node = 1u << 25;
      cfg.profile = machine::xeon_phi();
      cfg.flops_per_ns_thread = 0.35;
      cfg.iters = 2;
      cfg.approach = ap;
      row.push_back(fmt_double(run_fft_perf(cfg).gflops, 1));
    }
    b.row(row);
  }
  b.print();
  return 0;
}
