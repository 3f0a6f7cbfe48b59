// Figure 3: compute-communication overlap for nonblocking MPI collectives,
// (a) 8-byte and (b) 16 KB payloads, on 16 ranks.
//
// Paper shape: offload reaches near-complete overlap for every collective;
// baseline gets little (NBC schedules only advance inside MPI calls);
// comm-self sits in between, better for larger payloads.
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

  for (std::size_t bytes : {std::size_t{8}, std::size_t{16384}}) {
    std::printf("Figure 3%s: NBC overlap, %s payload, %d ranks (%s)\n",
                bytes == 8 ? "(a)" : "(b)", fmt_bytes(bytes).c_str(), nranks,
                prof.name.c_str());
    Table t({"collective", "algorithm", "approach", "t_pure(us)", "overlap%"});
    for (CollectiveId k : kinds) {
      for (Approach a : approaches) {
        OverlapResult r = overlap_collective(a, prof, k, nranks, bytes);
        t.row({"I" + std::string(smpi::coll_name(k)), r.algo,
               core::approach_name(a), fmt_us(r.comm_us),
               fmt_pct(r.overlap_frac)});
      }
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
