// Figure 8: OSU (a) latency and (b) bandwidth on the Xeon Phi profile.
//
// Paper shape: same ordering as Fig. 7 but every software cost is larger on
// the slow in-order cores — the offload overhead grows from ~0.3 us to
// ~1.7 us, and comm-self's THREAD_MULTIPLE penalty is several times bigger.
// (comm-self is included here even though the paper could not run it on this
// platform: their MPI lacked THREAD_MULTIPLE support on the coprocessor.)
#include <cstdio>
#include <vector>

#include "benchlib/osu.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;

int main() {
  benchlib::Runner runner;
  const auto prof = machine::xeon_phi();
  const std::vector<std::size_t> sizes = {8,      64,     512,    4096,
                                          16384,  65536,  262144, 1u << 20,
                                          4u << 20};
  const Approach approaches[] = {Approach::kBaseline, Approach::kCommSelf,
                                 Approach::kOffload};

  std::printf("Figure 8(a): OSU one-way latency (2 ranks, %s)\n", prof.name.c_str());
  Table lat({"size", "baseline(us)", "comm-self(us)", "offload(us)"});
  for (std::size_t sz : sizes) {
    std::vector<std::string> row{fmt_bytes(sz)};
    for (Approach a : approaches) {
      row.push_back(fmt_us(osu_latency(a, prof, sz).latency_us));
    }
    lat.row(row);
  }
  lat.print();

  std::printf("\nFigure 8(b): OSU uni-directional bandwidth (2 ranks, %s)\n",
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
