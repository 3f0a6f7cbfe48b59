// Figure 5: nonblocking collective issue latency, (a) 8 B and (b) 8 KB, on
// 16 ranks — baseline vs comm-self vs offload.
//
// Paper shape: issuing an Icollective in baseline costs the schedule-setup
// plus first-round sends inside the application thread; comm-self adds
// THREAD_MULTIPLE overhead on top; offload posts a command in ~0.14 us.
#include <cstdio>

#include "benchlib/overlap.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using core::Approach;

int main() {
  benchlib::Runner runner;
  const auto prof = machine::xeon_fdr();
  const int nranks = 16;
  using smpi::CollectiveId;
  const CollectiveId kinds[] = {CollectiveId::kBcast,     CollectiveId::kReduce,
                                CollectiveId::kAllreduce, CollectiveId::kAlltoall,
                                CollectiveId::kAllgather, CollectiveId::kBarrier};
  const Approach approaches[] = {Approach::kBaseline, Approach::kCommSelf,
                                 Approach::kOffload};

  for (std::size_t bytes : {std::size_t{8}, std::size_t{8192}}) {
    std::printf("Figure 5%s: Icollective issue latency, %s, %d ranks (%s)\n",
                bytes == 8 ? "(a)" : "(b)", fmt_bytes(bytes).c_str(), nranks,
                prof.name.c_str());
    Table t({"collective", "algorithm", "baseline(us)", "comm-self(us)",
             "offload(us)"});
    for (CollectiveId k : kinds) {
      std::string algo = "-";
      std::vector<std::string> cells;
      for (Approach a : approaches) {
        cells.push_back(
            fmt_us(icollective_post_us(a, prof, k, nranks, bytes, 10, 2, &algo), 3));
      }
      std::vector<std::string> row{"I" + std::string(smpi::coll_name(k)), algo};
      row.insert(row.end(), cells.begin(), cells.end());
      t.row(row);
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
