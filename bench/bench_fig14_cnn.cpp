// Figure 14: deep-learning CNN training throughput (images/s) vs nodes for
// every approach, hybrid data/model parallelism.
//
// Paper shape: all approaches match up to ~8 nodes (compute dominates);
// at 64 nodes comm-self and offload beat baseline by ~2x (the conv-gradient
// allreduces overlap with backprop + next forward), offload slightly ahead
// of comm-self.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/cnn/trainer.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/table.hpp"

using namespace benchlib;
using cnn::CnnPerfConfig;
using core::Approach;

int main() {
  benchlib::Runner runner;
  std::printf("Figure 14: CNN hybrid-parallel training, batch 256, Endeavor "
              "Xeon (images/s)\n");
  Table t({"nodes", "baseline", "iprobe", "comm-self", "offload"});
  for (int nodes : {2, 4, 8, 16, 32, 64}) {
    std::vector<std::string> row{fmt_int(nodes)};
    for (Approach a : {Approach::kBaseline, Approach::kIprobe,
                       Approach::kCommSelf, Approach::kOffload}) {
      CnnPerfConfig cfg;
      cfg.nodes = nodes;
      cfg.iters = 3;
      cfg.approach = a;
      row.push_back(fmt_double(run_cnn_perf(cfg).imgs_per_sec, 0));
    }
    t.row(row);
  }
  t.print();

  // Companion: the conv-gradient allreduces at 64 nodes are ~40-130 MB, so
  // the tuner's segmented ring is what carries them; pin each algorithm to
  // show what the selection is worth at full scale.
  std::printf("\nFigure 14 (cont.): conv-gradient allreduce algorithm at 64 "
              "nodes, offload (images/s)\n");
  Table t2({"allreduce algorithm", "images/s"});
  for (smpi::CollAlgo algo : {smpi::CollAlgo::kRing,
                              smpi::CollAlgo::kRecursiveDoubling,
                              smpi::CollAlgo::kReduceBcast}) {
    CnnPerfConfig cfg;
    cfg.nodes = 64;
    cfg.iters = 3;
    cfg.approach = Approach::kOffload;
    cfg.allreduce_algo = algo;
    t2.row({smpi::coll_algo_name(algo),
            fmt_double(run_cnn_perf(cfg).imgs_per_sec, 0)});
  }
  t2.print();
  return 0;
}
