// Nonblocking-collective schedules.
//
// A collective is compiled (per rank) into one or more *chains* of stages.
// Each stage posts a set of internal point-to-point operations; when they all
// complete, an optional local computation runs (e.g. a reduction combine) and
// the chain's next stage is posted. Chains advance independently — that is
// the pipelining: a segmented ring allreduce compiles each segment into its
// own chain, so segment k+1's sends are on the wire while segment k's combine
// runs. The schedule advances only inside the progress engine — i.e. only
// while some thread is in the MPI library — which is exactly why nonblocking
// collectives need asynchronous progress (paper Fig. 3/5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mpi/coll_tuner.hpp"
#include "mpi/types.hpp"
#include "sim/time.hpp"

namespace smpi {

class RankCtx;

/// Chains per op are bounded so the per-chain tag salt fits alongside the
/// sequence number (tag = (seq * kCollMaxChains + chain) mod 2^30).
inline constexpr std::size_t kCollMaxChains = 64;

struct CollStage {
  struct SendItem {
    int dst;  ///< comm rank
    const void* buf;
    std::size_t bytes;
  };
  struct RecvItem {
    int src;  ///< comm rank
    void* buf;
    std::size_t bytes;
  };
  std::vector<SendItem> sends;
  std::vector<RecvItem> recvs;
  /// Local work after the stage's messages complete (reduction combines,
  /// copy-outs). Runs on the fiber driving progress; may advance the clock.
  std::function<void(RankCtx&)> on_complete;
};

/// One independent stage sequence. Within a chain stages are strictly
/// ordered; across chains there is no ordering, so a chain must never read a
/// buffer another chain writes (segmented schedules keep chains on disjoint
/// element ranges).
struct CollChain {
  std::vector<CollStage> stages;
  std::size_t cur = 0;
  bool stage_posted = false;
  std::vector<Request> pending;  ///< internal requests of the current stage
  sim::Time posted_at;           ///< current stage's post time (chunk timing)

  [[nodiscard]] bool done() const { return cur >= stages.size() && !stage_posted; }
};

struct CollOp {
  Comm comm{};
  std::uint64_t seq = 0;  ///< per-comm collective sequence number (tag base)
  CollectiveId kind = CollectiveId::kBarrier;
  CollAlgo algo = CollAlgo::kUnknown;  ///< set by the builder via the tuner
  int root = -1;  ///< comm-rank root for rooted collectives (-1: unrooted)
  std::vector<CollChain> chains;
  /// Scratch buffers owned by the schedule (accumulators, receive temps),
  /// uninitialised; a zero-byte temp is null (see add_temp).
  std::vector<std::unique_ptr<std::byte[]>> temps;
  /// Final copy-out / epilogue, run once when the last chain completes.
  std::function<void(RankCtx&)> on_finish;

  /// Chain accessor, growing on demand (chain 0 is the unsegmented default).
  CollChain& chain(std::size_t i) {
    while (chains.size() <= i) chains.emplace_back();
    return chains[i];
  }
  [[nodiscard]] bool done() const {
    for (const CollChain& c : chains) {
      if (!c.done()) return false;
    }
    return true;
  }
};

}  // namespace smpi
