// Distributed 1-D FFT (paper Section 5.2).
//
// Two transforms are provided:
//
//  * DistributedFft — the classical Cooley-Tukey factorization with the
//    paper's "three all-to-all data exchanges" (a 6-step transform over an
//    R x C decomposition). Real arithmetic; validated against a naive DFT.
//
//  * run_fft_perf — the SOI-FFT-structured performance harness: the single
//    all-to-all of the low-communication algorithm is split into S segments
//    and pipelined against segment computation (front-end work, posted
//    Ialltoall, back-end work), with the algorithm's ~25% extra computation.
//    Communication is real phantom traffic at the paper's sizes (2^29
//    complex doubles per node on Xeon, 2^25 on Xeon Phi).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/fft/fft.hpp"
#include "core/proxy.hpp"
#include "machine/profile.hpp"
#include "mpi/rank_ctx.hpp"

namespace fft {

/// Real-math distributed transform of N = rows * cols elements over P ranks
/// (rows, cols powers of two, both divisible by P). Rank p holds input
/// elements [p*N/P, (p+1)*N/P) and ends with output elements in the same
/// natural-order block distribution.
class DistributedFft {
 public:
  DistributedFft(smpi::RankCtx& rc, core::Proxy& proxy, std::size_t rows,
                 std::size_t cols);

  [[nodiscard]] std::size_t total() const { return rows_ * cols_; }
  [[nodiscard]] std::size_t local() const { return total() / static_cast<std::size_t>(nranks_); }

  /// Forward transform of this rank's block.
  void forward(std::vector<cd>& block);

 private:
  /// Own rows of an a x b matrix -> own rows of its transpose (alltoall).
  void transpose(std::vector<cd>& block, std::size_t a, std::size_t b);

  smpi::RankCtx& rc_;
  core::Proxy& proxy_;
  std::size_t rows_, cols_;
  int nranks_, rank_;
};

// ---------------------------------------------------------------- perf ----

/// One rank per node (or coprocessor), as the paper runs FFT; a warm-up
/// iteration precedes the `iters` measured ones.
struct FftPerfConfig {
  int nodes = 2;
  std::size_t points_per_node = 1ull << 29;  ///< complex doubles
  machine::Profile profile = machine::xeon_fdr();
  core::Approach approach = core::Approach::kBaseline;
  int iters = 3;
  /// Effective per-thread FFT compute rate, flops/ns (bandwidth-bound).
  double flops_per_ns_thread = 1.0;
};

struct FftPerfResult {
  double internal_ms = 0;
  double post_ms = 0;
  double wait_ms = 0;
  double misc_ms = 0;
  double total_ms = 0;
  double gflops = 0;  ///< aggregate sustained 5 N log N rate
  int ranks = 0;
};

FftPerfResult run_fft_perf(const FftPerfConfig& cfg);

}  // namespace fft
