// Figure 9: Wilson-Dslash strong scaling (TFLOPS) on (a) Endeavor Xeon and
// (b) NERSC Edison, for 32^3x256 and 48^3x512 lattices, across approaches.
//
// Paper shape: all approaches track each other to ~16 nodes; beyond that
// offload pulls ahead (2x at 256 nodes on the small lattice); comm-self
// helps at moderate scale but collapses at 256 nodes on the small lattice
// (48 KB messages, THREAD_MULTIPLE overhead dominates) and recovers on the
// large lattice; superlinear speedup appears once the local volume fits in
// cache. On Edison, core specialization sits between baseline and offload.
#include <cstdio>
#include <vector>

#include "apps/qcd/dslash_perf.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;
using qcd::QcdPerfConfig;

namespace {

void run_platform(const char* title, const machine::Profile& prof,
                  const machine::Profile* corespec,
                  const qcd::Dims& lattice, const std::vector<int>& nodes) {
  std::printf("%s, lattice %dx%dx%dx%d (TFLOPS)\n", title, lattice[0],
              lattice[1], lattice[2], lattice[3]);
  std::vector<std::string> hdr{"nodes", "baseline", "iprobe", "comm-self",
                               "offload"};
  if (corespec != nullptr) hdr.push_back("corespec");
  Table t(hdr);
  for (int n : nodes) {
    std::vector<std::string> row{fmt_int(n)};
    for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                       Approach::kCommSelf, Approach::kOffload}) {
      QcdPerfConfig cfg;
      cfg.global = lattice;
      cfg.nodes = n;
      cfg.profile = prof;
      cfg.iters = 10;
      cfg.approach = a;
      row.push_back(fmt_double(run_qcd_perf(cfg).tflops, 2));
    }
    if (corespec != nullptr) {
      QcdPerfConfig cfg;
      cfg.global = lattice;
      cfg.nodes = n;
      cfg.profile = *corespec;
      cfg.iters = 10;
      cfg.approach = Approach::kCommSelf;  // corespec = in-library comm thread
      row.push_back(fmt_double(run_qcd_perf(cfg).tflops, 2));
    }
    t.row(row);
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main() {
  benchlib::Runner runner;
  const auto xeon = machine::xeon_fdr();
  const auto edison = machine::aries();
  const auto corespec = machine::aries_corespec();

  run_platform("Figure 9(a): Endeavor Xeon", xeon, nullptr, {32, 32, 32, 256},
               {8, 16, 32, 64, 128, 256});
  run_platform("Figure 9(a): Endeavor Xeon", xeon, nullptr, {48, 48, 48, 512},
               {32, 64, 128, 256});
  run_platform("Figure 9(b): NERSC Edison", edison, &corespec,
               {32, 32, 32, 256}, {8, 16, 32, 64, 128, 256});
  run_platform("Figure 9(b): NERSC Edison", edison, &corespec,
               {48, 48, 48, 512}, {64, 128, 256, 576});
  return 0;
}
