// Figure 4: time spent issuing a nonblocking MPI_Isend as part of the OSU
// ping-pong, 2 ranks, baseline vs comm-self vs offload.
//
// Paper shape: baseline/comm-self issue cost grows with message size up to
// the 128 KB eager threshold (internal copy), then drops sharply when the
// rendezvous protocol defers the data; comm-self sits a few microseconds
// above baseline (THREAD_MULTIPLE entry costs); offload is flat ~0.14 us at
// every size because the application thread only touches the command ring.
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
  const std::vector<std::size_t> sizes = {8,      64,     512,     4096,
                                          16384,  65536,  131072,  262144,
                                          524288, 1u << 20, 4u << 20};
  const Approach approaches[] = {Approach::kBaseline, Approach::kCommSelf,
                                 Approach::kOffload};

  std::printf("Figure 4: MPI_Isend issue time in OSU ping-pong (2 ranks, %s)\n",
              prof.name.c_str());
  Table t({"size", "baseline(us)", "comm-self(us)", "offload(us)"});
  for (std::size_t sz : sizes) {
    std::vector<std::string> row{fmt_bytes(sz)};
    for (Approach a : approaches) {
      OsuResult r = osu_latency(a, prof, sz);
      row.push_back(fmt_us(r.post_us, 3));
    }
    t.row(row);
  }
  t.print();
  return 0;
}
