// Figure 6: OSU multithreaded latency with 2/4/8 concurrent thread-pairs.
//
// Paper shape: baseline and comm-self latencies balloon with thread count
// (the THREAD_MULTIPLE global lock serializes every call and every progress
// poll, ~30 us one-way at 8 threads for small messages); offload stays low
// and flat because application threads only touch the lock-free ring and the
// single engine drives MPI at FUNNELED — up to ~6x better than comm-self.
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
  // Smoke mode (MPIOFF_BENCH_SMOKE=1, CI) keeps one thread count and two
  // sizes so the job finishes in minutes but still emits real trailers.
  const bool smoke = benchlib::Runner::smoke_enabled();
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{8, 4096}
            : std::vector<std::size_t>{8, 64, 512, 4096, 16384, 65536};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{8} : std::vector<int>{2, 4, 8};
  const Approach approaches[] = {Approach::kBaseline, Approach::kCommSelf,
                                 Approach::kOffload};

  for (int threads : thread_counts) {
    std::printf("Figure 6(%c): OSU multithreaded latency, %d thread pairs (%s)\n",
                threads == 2 ? 'a' : threads == 4 ? 'b' : 'c', threads,
                prof.name.c_str());
    Table t({"size", "baseline(us)", "comm-self(us)", "offload(us)"});
    for (std::size_t sz : sizes) {
      std::vector<std::string> row{fmt_bytes(sz)};
      for (Approach a : approaches) {
        OsuResult r = osu_latency_mt(a, prof, threads, sz);
        row.push_back(fmt_us(r.latency_us));
      }
      t.row(row);
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
