// The paper's compute-communication overlap benchmark (Section 4.1).
//
// Step 1 measures, with no intervening computation:
//   post time  — Irecv+Isend issue time,
//   wait time  — the two MPI_Waits,
//   comm time  — post + wait (the full exchange).
// Step 2 repeats with compute(comm_time) inserted between Isend and the
// first Wait. overlap = wait1 - wait2 (the communication that was hidden).
// All three are reported as fractions of comm time; 100% overlap means the
// second step's wait was (nearly) free.
#pragma once

#include <cstddef>
#include <string>

#include "core/proxy.hpp"
#include "machine/profile.hpp"
#include "mpi/coll_tuner.hpp"

namespace benchlib {

struct OverlapResult {
  double comm_us = 0;
  double post_frac = 0;     ///< post time / comm time
  double wait_frac = 0;     ///< step-2 wait time / comm time
  double overlap_frac = 0;  ///< (wait1 - wait2) / comm time
  std::string algo = "-";   ///< collective algorithm that ran (CollStats)
};

/// Point-to-point overlap between 2 ranks for a message of `bytes`.
OverlapResult overlap_p2p(core::Approach a, const machine::Profile& prof,
                          std::size_t bytes, int iters = 20, int warmup = 4);

/// IMB-NBC-style overlap for a nonblocking collective on `nranks` ranks with
/// per-rank payload `bytes`: overlap% = 1 - wait_overlapped / t_pure.
OverlapResult overlap_collective(core::Approach a, const machine::Profile& prof,
                                 smpi::CollectiveId kind, int nranks,
                                 std::size_t bytes, int iters = 10,
                                 int warmup = 2);

/// Issue time of a nonblocking collective (paper Fig. 5). When `algo_out`
/// is non-null it receives the name of the algorithm that actually ran.
double icollective_post_us(core::Approach a, const machine::Profile& prof,
                           smpi::CollectiveId kind, int nranks, std::size_t bytes,
                           int iters = 10, int warmup = 2,
                           std::string* algo_out = nullptr);

}  // namespace benchlib
