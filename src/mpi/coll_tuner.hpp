// CollTuner — size x ranks -> collective-algorithm selection.
//
// Every collective builder asks the tuner which schedule to compile. The
// tuner owns its defaults (segment size, chain cap, per-collective size
// thresholds) and takes only the eager/rendezvous threshold from
// machine::Profile; the MPIOFF_COLL environment spec (or
// ClusterConfig::coll_spec) overrides them per collective:
//
//   MPIOFF_COLL=allreduce:ring@65536,bcast:pipeline@131072,seg:32768,chains:8
//
// Each item is <collective>:<algorithm>[@<min_bytes>] — "from min_bytes
// upward, prefer this algorithm" (several rules per collective stack; the
// largest threshold not exceeding the message wins) — or one of the scalar
// knobs seg:<bytes> (segment size) and chains:<n> (max pipeline chains).
// Sizes accept k/m suffixes. A forced algorithm that is illegal for the
// operands (recursive doubling on a non-power-of-two communicator,
// Rabenseifner on a count the ranks do not divide) falls back to a legal
// default, and the schedule records the algorithm that actually ran — stats
// never report a forced choice that was not executed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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
  kRabenseifner,       ///< halving reduce-scatter + doubling allgather
  kReduceBcast,        ///< reduce-to-0 then bcast (fallback allreduce)
  kRing,               ///< segmented ring reduce-scatter + allgather
  kPipeline,           ///< segmented (pipelined) binomial bcast
  kPostAll,            ///< every peer posted at once (eager alltoall/allgather)
  kPairwise,           ///< sequential pairwise exchange (rendezvous alltoall)
};
inline constexpr int kNumCollAlgos = 10;

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
  struct Rule {
    CollAlgo algo = CollAlgo::kUnknown;
    std::size_t min_bytes = 0;
  };

  /// The tuner's defaults with the profile's eager threshold, no overrides.
  static CollTuner defaults_for(const machine::Profile& p);
  /// Apply an MPIOFF_COLL-grammar spec on top of `base`. Throws
  /// std::invalid_argument (naming valid keys) on malformed input.
  static CollTuner parse(const std::string& spec, CollTuner base);
  /// defaults_for + the MPIOFF_COLL environment variable, if set.
  static CollTuner from_env(const machine::Profile& p);

  /// Pick the schedule for one collective instance. `bytes` is the tuning
  /// size (full vector for allreduce/bcast, total result for allgather, one
  /// block for alltoall), `count` the element count (Rabenseifner needs
  /// count % ranks == 0). Always returns an algorithm that is legal for the
  /// operands.
  [[nodiscard]] CollAlgo choose(CollectiveId c, std::size_t bytes,
                                std::size_t count, int ranks) const;

  /// Segment size for chunked schedules (ring, pipeline).
  [[nodiscard]] std::size_t seg_bytes() const { return seg_bytes_; }
  /// Hard cap on concurrent chains per collective: a CNN-scale 100 MB
  /// allreduce must not explode into thousands of independent chains.
  [[nodiscard]] int max_chains() const { return max_chains_; }
  /// Chains for a `total_bytes` schedule: ceil(total/seg) clamped to
  /// [1, max_chains]; the effective segment grows instead of the chain count.
  [[nodiscard]] int chains_for(std::size_t total_bytes) const;

 private:
  [[nodiscard]] CollAlgo default_for(CollectiveId c, std::size_t bytes,
                                     std::size_t count, int ranks) const;
  /// Is `a` executable for these operands (legality, not profitability)?
  [[nodiscard]] static bool legal(CollectiveId c, CollAlgo a, std::size_t count,
                                  int ranks);

  std::vector<Rule> rules_[kNumCollectiveIds];  ///< sorted by min_bytes asc
  /// Each segment of a chunked schedule (ring, pipelined bcast) is its own
  /// stage chain, so chunk k+1's sends post while chunk k's combine runs.
  std::size_t seg_bytes_ = 64 * 1024;
  /// Eight keeps the ring pipeline full on 64-node MB-scale gradient
  /// allreduces (Fig. 14) without measurable cost at small scale.
  int max_chains_ = 8;
  /// Size thresholds for the bandwidth-optimal schedules (bytes of the
  /// tuning size; see choose() for what that means per collective).
  std::size_t ring_allreduce_min_ = 128 * 1024;
  std::size_t ring_allgather_min_ = 128 * 1024;
  std::size_t pipeline_bcast_min_ = 256 * 1024;
  std::size_t rabenseifner_min_ = 64 * 1024;
  std::size_t eager_threshold_ = 128 * 1024;
};

}  // namespace smpi
