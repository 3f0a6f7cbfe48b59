// Figure 2: compute-communication overlap for nonblocking point-to-point
// calls, 8 B .. 2 MB, baseline vs comm-self vs offload.
//
// Paper shape to reproduce: baseline overlaps 70-80% for small (eager)
// messages, collapsing to ~1% for large (rendezvous) messages; comm-self
// recovers large-message overlap (~80%) at the cost of small-message overlap;
// offload is >=85% everywhere and ~99% for large messages.
#include <cstdio>
#include <vector>

#include "benchlib/overlap.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;

int main() {
  benchlib::Runner runner;
  const auto prof = machine::xeon_fdr();
  const std::vector<std::size_t> sizes = {8,    64,    512,    4096,   16384,
                                          65536, 131072, 262144, 524288,
                                          1u << 20, 2u << 20};
  const Approach approaches[] = {Approach::kBaseline, Approach::kCommSelf,
                                 Approach::kOffload};

  std::printf("Figure 2: compute-communication overlap, nonblocking p2p "
              "(2 ranks, %s)\n", prof.name.c_str());
  Table t({"size", "approach", "comm(us)", "post%", "wait%", "overlap%"});
  for (std::size_t sz : sizes) {
    for (Approach a : approaches) {
      OverlapResult r = overlap_p2p(a, prof, sz);
      t.row({fmt_bytes(sz), core::approach_name(a), fmt_us(r.comm_us),
             fmt_pct(r.post_frac), fmt_pct(r.wait_frac), fmt_pct(r.overlap_frac)});
    }
  }
  t.print();
  return 0;
}
