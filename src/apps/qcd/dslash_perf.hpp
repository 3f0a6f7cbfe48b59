// Performance harness for Wilson-Dslash at paper scale (Table 1, Figs 9-12).
//
// Communication is real (phantom-payload messages of the exact face sizes go
// through the full SimMPI protocol stack); computation phases advance the
// virtual clock through a calibrated rate model:
//     rate = flops_per_ns_thread * compute_threads * boost
// where compute_threads loses one core to approaches with a dedicated
// communication thread, and boost (1.35 below 12 MiB of local sites at 408
// bytes each, else 1) models the superlinear speedup the paper sees once the
// local working set fits in LLC. Runs place two ranks per node (one per
// socket, as the paper does).
#pragma once

#include <cstdint>

#include "apps/qcd/lattice.hpp"
#include "core/proxy.hpp"
#include "machine/profile.hpp"

namespace qcd {

struct QcdPerfConfig {
  Dims global{32, 32, 32, 256};
  int nodes = 8;
  machine::Profile profile = machine::xeon_fdr();
  core::Approach approach = core::Approach::kBaseline;
  int iters = 20;
  int warmup = 2;

  /// Effective per-hardware-thread Dslash rate (flops/ns); 28 HT x 6.5 =
  /// 182 flops/ns per rank, calibrated to Table 1's internal-compute times.
  double flops_per_ns_thread = 6.5;

  /// Fig. 12: number of thread groups concurrently issuing MPI calls
  /// (1 = funneled master-thread issue as in Listing 1).
  int thread_groups = 1;

  /// Fig. 11: model a solver iteration (adds BLAS1 work and global
  /// reductions around each Dslash application).
  bool solver = false;

  /// A9: replace the polling waitall with a when_all continuation graph —
  /// the proxy's progress context releases the requests; the application
  /// thread only sleeps on the graph's tail event (thread_groups == 1 only).
  bool continuations = false;
};

struct QcdPerfResult {
  // Mean per-iteration phase times at rank 0, microseconds.
  double internal_us = 0;
  double post_us = 0;
  double wait_us = 0;
  double misc_us = 0;
  double total_us = 0;
  double tflops = 0;  ///< aggregate sustained Dslash flops
  int ranks = 0;
  Dims grid{};
  std::size_t max_face_bytes = 0;
  std::size_t min_face_bytes = 0;
  // Rank-0 continuation counters (offload proxy only; zero elsewhere), so
  // the A9 ablation can report how completions were discovered.
  std::uint64_t cont_armed = 0;
  std::uint64_t cont_executed = 0;
  std::uint64_t cont_deferred = 0;
  std::uint64_t cont_inline = 0;
  std::uint64_t cont_posts = 0;
};

QcdPerfResult run_qcd_perf(const QcdPerfConfig& cfg);

}  // namespace qcd
