// Machine profiles: the calibrated cost parameters of the simulated clusters.
//
// These numbers are chosen to match the platforms in the paper's Section 4
// (Endeavor: dual-socket 14-core Xeon E5-2697v3 + FDR InfiniBand; Endeavor
// Xeon Phi 61-core coprocessors; NERSC Edison: Cray XC30 + Aries). Absolute
// fidelity is not the goal — the protocol mechanics are — but the constants
// are set so the microbenchmark outputs land in the same regime as the
// paper's figures (e.g. ~1.3 us small-message latency on FDR, ~140 ns offload
// command-post cost, 128 KB eager/rendezvous threshold).
#pragma once

#include <cstdint>
#include <string>

#include "machine/fault.hpp"
#include "sim/time.hpp"

namespace machine {

struct Profile {
  std::string name;

  // ---- node ----
  /// Hardware threads usable by one MPI rank (E5-2697v3: 14 cores x 2 HT).
  /// A dedicated communication thread costs one of these — ~3.6%, matching
  /// the paper's 1-5% internal-compute slowdown.
  int cores_per_rank = 28;

  /// NUMA domains spanned by one rank. One offload engine fiber per domain
  /// is the natural default (each proxy drains the lanes of its socket's
  /// submitters); rank-per-socket layouts have exactly one.
  int numa_domains = 2;

  /// CPU copy bandwidth in bytes per nanosecond (single thread). Governs the
  /// eager-protocol internal memcpy cost that dominates MPI_Isend issue time
  /// below the rendezvous threshold.
  double copy_bytes_per_ns = 8.0;  // ~8 GB/s effective single-thread copy

  // ---- MPI software costs ----
  sim::Time mpi_call_overhead{120};       ///< fixed cost of entering any MPI call
  sim::Time mpi_match_cost{80};          ///< matching/queue handling per message
  sim::Time mpi_progress_poll_cost{40};   ///< one pass of the progress engine
  sim::Time rndv_handshake_cpu{300};      ///< CPU cost to process an RTS or CTS

  /// Extra per-call cost when initialized with THREAD_MULTIPLE (atomic ops,
  /// lock acquisition even without contention). Matches the ~1-3 us gap the
  /// paper reports between FUNNELED and MULTIPLE issue paths.
  sim::Time thread_multiple_entry{2200};
  /// Acquire cost of the implementation's global lock in THREAD_MULTIPLE.
  sim::Time big_lock_acquire{120};
  /// Progress-engine slice executed while holding the big lock; bounds how
  /// long a blocked thread keeps other threads out of the library.
  sim::Time big_lock_slice{400};
  /// In THREAD_MULTIPLE a blocked thread re-enters the progress engine this
  /// often even without an arrival (real implementations spin through
  /// lock/progress/unlock cycles); source of the contention the paper's
  /// Fig. 6/7 attribute to MPI_THREAD_MULTIPLE.
  sim::Time multiple_repoll{1000};

  /// Local reduction combine throughput (bytes of operand per ns).
  double reduce_bytes_per_ns = 4.0;

  // ---- collective schedules (algorithm selection: mpi/coll_tuner.hpp) ----
  /// Post each collective stage's internal sends as one descriptor batch —
  /// one doorbell per stage instead of one per send (the post_batch-style
  /// amortization of PR 4, applied to schedule-internal p2p).
  bool coll_batch_doorbells = true;

  // ---- protocol switch ----
  std::size_t eager_threshold = 128 * 1024;  ///< bytes; > this uses rendezvous
  /// Rendezvous transfers are pipelined in chunks; injecting each chunk
  /// needs the progress engine (software), so a rank that never enters MPI
  /// keeps at most `rndv_pipeline_depth` chunks in flight. This is the
  /// mainstream-MPI behaviour that denies the baseline approach overlap on
  /// large messages (paper Fig. 2).
  std::size_t rndv_chunk_bytes = 512 * 1024;
  int rndv_pipeline_depth = 4;

  // ---- network ----
  sim::Time net_latency{1600};           ///< wire + switch latency, one way
  double net_bytes_per_ns = 6.0;        ///< NIC serialization bandwidth (6 GB/s ~ FDR)
  /// Aggregate fabric (bisection) bandwidth in bytes/ns; 0 disables the
  /// shared-fabric constraint (full bisection). Real fat-tree/dragonfly
  /// fabrics taper, which is why all-to-all bandwidth per node shrinks with
  /// node count (paper Sec. 5.2).
  double bisection_bytes_per_ns = 0.0;
  sim::Time nic_doorbell{200};          ///< CPU cost to hand a descriptor to the NIC
  /// Wire-fault injection (off by default: the fabric is perfectly reliable
  /// and the fault/reliability machinery is completely inert). Enable per
  /// profile or via the MPIOFF_FAULTS environment spec (see machine/fault.hpp).
  FaultSpec faults;

  // ---- offload infrastructure costs (Section 3) ----
  sim::Time cmd_enqueue{120};        ///< serialize call params + lock-free push
  sim::Time cmd_dequeue{50};        ///< pop + deserialize on the offload thread
  sim::Time cmd_detect{40};         ///< offload thread's poll granularity
  sim::Time done_flag_check{20};    ///< app-side read of the done flag
  sim::Time done_flag_detect{40};   ///< app spin-poll granularity on done flag
  sim::Time request_pool_op{15};    ///< lock-free pool alloc/free

  /// Marginal serialize cost of each *additional* command in a batched
  /// submit: the fixed part of cmd_enqueue (cache-line handoff, doorbell
  /// setup) is paid once per batch, later commands only pay argument
  /// marshalling into already-hot lane cells.
  sim::Time cmd_enqueue_batch{40};
  /// Re-arm command of a persistent (init-once/start-many) offload request:
  /// the envelope already lives in the engine's persistent slot, so the app
  /// thread only publishes a slot index — no parameter marshalling, no pool
  /// alloc. This is the amortization persistent requests exist for.
  sim::Time cmd_enqueue_persist{40};
  /// MPI-layer Start on a prebuilt persistent envelope (replaces
  /// mpi_call_overhead for that entry: no argument validation, no envelope
  /// construction — matches the cheap MPI_Start of mainstream MPIs).
  sim::Time persist_start{40};
  /// Cost for a producer to gain ownership of the shared MPSC ring's tail
  /// cache line when another thread touched it last. This is the per-push
  /// serialization that sharded per-thread lanes exist to avoid: concurrent
  /// submitters to the single shared ring each pay one line transfer, while
  /// lane submitters never contend.
  sim::Time mpsc_line_transfer{100};

  // ---- derived helpers ----
  [[nodiscard]] sim::Time copy_cost(std::size_t bytes) const {
    return sim::Time(static_cast<std::int64_t>(static_cast<double>(bytes) / copy_bytes_per_ns));
  }
  [[nodiscard]] sim::Time wire_cost(std::size_t bytes) const {
    return sim::Time(static_cast<std::int64_t>(static_cast<double>(bytes) / net_bytes_per_ns));
  }
  [[nodiscard]] sim::Time reduce_cost(std::size_t bytes) const {
    return sim::Time(static_cast<std::int64_t>(static_cast<double>(bytes) / reduce_bytes_per_ns));
  }
};

/// Endeavor Xeon (E5-2697v3, FDR InfiniBand) — the paper's main platform.
Profile xeon_fdr();

/// Endeavor Xeon Phi coprocessor (61 slow cores, same fabric). Software
/// overheads scale up ~5x, copy bandwidth per thread is lower — this is what
/// drives the paper's Fig. 8 (offload overhead grows to ~1.7 us).
Profile xeon_phi();

/// NERSC Edison (Cray XC30, Aries dragonfly): lower latency, higher bandwidth.
Profile aries();

/// Edison with the Cray "core specialization" feature (paper Fig. 9b): a
/// reserved core runs the MPI progress engine inside the implementation, so
/// the locking overheads of the generic THREAD_MULTIPLE path are much lower
/// than a user-level comm-self thread's. Modeled as the aries profile with
/// reduced multithreading costs; driven through the comm-self proxy.
Profile aries_corespec();

}  // namespace machine
