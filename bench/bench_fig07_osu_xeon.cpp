// Figure 7: OSU (a) latency and (b) bandwidth on the Xeon profile.
//
// Paper shape: offload adds ~0.3 us to small-message latency over baseline
// (command round-trip) and loses no bandwidth; comm-self adds ~11 us latency
// (THREAD_MULTIPLE + progress-thread lock contention) and halves bandwidth
// for 4 KB–256 KB messages.
#include <cstdio>
#include <vector>

#include "benchlib/osu.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;

int main() {
  benchlib::Runner runner;
  const auto prof = machine::xeon_fdr();
  const std::vector<std::size_t> sizes = {8,      64,     512,    4096,
                                          16384,  65536,  262144, 1u << 20,
                                          4u << 20};
  const Approach approaches[] = {Approach::kBaseline, Approach::kCommSelf,
                                 Approach::kOffload};

  std::printf("Figure 7(a): OSU one-way latency (2 ranks, %s)\n", prof.name.c_str());
  Table lat({"size", "baseline(us)", "comm-self(us)", "offload(us)"});
  for (std::size_t sz : sizes) {
    std::vector<std::string> row{fmt_bytes(sz)};
    for (Approach a : approaches) {
      row.push_back(fmt_us(osu_latency(a, prof, sz).latency_us));
    }
    lat.row(row);
  }
  lat.print();

  std::printf("\nFigure 7(b): OSU uni-directional bandwidth (2 ranks, %s)\n",
              prof.name.c_str());
  Table bw({"size", "baseline(MB/s)", "comm-self(MB/s)", "offload(MB/s)"});
  for (std::size_t sz : sizes) {
    std::vector<std::string> row{fmt_bytes(sz)};
    for (Approach a : approaches) {
      row.push_back(fmt_double(osu_bandwidth(a, prof, sz).bandwidth_mbps, 0));
    }
    bw.row(row);
  }
  bw.print();
  return 0;
}
