// CollTuner — size x ranks -> collective-algorithm selection.
//
// Every collective builder asks the tuner which schedule to compile. The
// tuner owns its defaults (segment size, chain cap, the ring allreduce
// threshold) and takes only the eager/rendezvous threshold from
// machine::Profile. One override exists: a forced allreduce schedule
// (ClusterConfig::allreduce_algo). A forced schedule that is illegal for the
// operands (recursive doubling on a non-power-of-two communicator, or a
// schedule that is not an allreduce) falls back to the default, and the
// schedule records the algorithm that actually ran — stats never report a
// forced choice that was not executed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "machine/profile.hpp"
#include "sim/time.hpp"

namespace smpi {

/// Which collective a schedule implements (indexes CollStats tables).
enum class CollectiveId : std::uint8_t {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kAlltoall,
  kAllgather,
};
inline constexpr int kNumCollectiveIds = 6;

/// Algorithm inventory (DESIGN.md §12). kUnknown never reaches a schedule:
/// start_collective rejects it, which is what guarantees the [stats] trailer
/// always names a real algorithm.
enum class CollAlgo : std::uint8_t {
  kUnknown,
  kBinomial,           ///< binomial tree (bcast, reduce)
  kDissemination,      ///< ceil(log2 p) rounds (barrier)
  kRecursiveDoubling,  ///< log2 p exchange+combine rounds (pow2 allreduce)
  kReduceBcast,        ///< reduce-to-0 then bcast (fallback allreduce)
  kRing,               ///< segmented ring reduce-scatter + allgather
  kPostAll,            ///< every peer posted at once (eager alltoall, allgather)
  kPairwise,           ///< sequential pairwise exchange (rendezvous alltoall)
};
inline constexpr int kNumCollAlgos = 8;

const char* coll_name(CollectiveId c);
const char* coll_algo_name(CollAlgo a);

/// Per-rank selection/execution counters, surfaced by the benchlib [stats]
/// trailer and asserted by the conformance tests.
struct CollStats {
  std::uint64_t algo_count[kNumCollectiveIds][kNumCollAlgos] = {};
  std::uint64_t chunks = 0;       ///< internal stages completed
  sim::Time chunk_time;           ///< aggregate post->complete stage latency
  std::uint64_t doorbells_amortized = 0;  ///< stage sends batched on one doorbell
  [[nodiscard]] std::uint64_t count(CollectiveId c, CollAlgo a) const {
    return algo_count[static_cast<int>(c)][static_cast<int>(a)];
  }
};

class CollTuner {
 public:
  /// Each segment of the ring allreduce is its own stage chain, so chunk
  /// k+1's sends post while chunk k's combine runs.
  static constexpr std::size_t kSegBytes = 64 * 1024;
  /// Hard cap on concurrent chains per collective: a CNN-scale 100 MB
  /// allreduce must not explode into thousands of independent chains.
  /// Eight keeps the ring pipeline full on 64-node MB-scale gradient
  /// allreduces (Fig. 14) without measurable cost at small scale.
  static constexpr int kMaxChains = 8;

  /// The defaults with `p`'s eager threshold; `allreduce`, when set, is
  /// forced on every allreduce it is legal for.
  explicit CollTuner(const machine::Profile& p,
                     std::optional<CollAlgo> allreduce = std::nullopt);

  /// Pick the schedule for one collective instance. `bytes` is the tuning
  /// size (full vector for allreduce, one block for alltoall). Always
  /// returns an algorithm that is legal for the operands.
  [[nodiscard]] CollAlgo choose(CollectiveId c, std::size_t bytes,
                                int ranks) const;

  /// Chains for a `total_bytes` schedule: ceil(total/kSegBytes) clamped to
  /// [1, kMaxChains]; the effective segment grows instead of the chain count.
  [[nodiscard]] static int chains_for(std::size_t total_bytes);

 private:
  [[nodiscard]] CollAlgo default_for(CollectiveId c, std::size_t bytes,
                                     int ranks) const;

  /// Allreduces of at least this many bytes take the segmented ring.
  static constexpr std::size_t kRingAllreduceMin = 128 * 1024;
  std::size_t eager_threshold_;
  std::optional<CollAlgo> allreduce_;
};

}  // namespace smpi
