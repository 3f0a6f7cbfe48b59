#include "mpi/coll_tuner.hpp"

#include <algorithm>

namespace smpi {

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

/// Is `a` an allreduce schedule executable on `ranks` (legality, not
/// profitability)?
bool legal_allreduce(CollAlgo a, int ranks) {
  switch (a) {
    case CollAlgo::kRecursiveDoubling:
      return is_pow2(ranks);
    case CollAlgo::kRing:
    case CollAlgo::kReduceBcast:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* coll_name(CollectiveId c) {
  switch (c) {
    case CollectiveId::kBarrier:
      return "barrier";
    case CollectiveId::kBcast:
      return "bcast";
    case CollectiveId::kReduce:
      return "reduce";
    case CollectiveId::kAllreduce:
      return "allreduce";
    case CollectiveId::kAlltoall:
      return "alltoall";
    case CollectiveId::kAllgather:
      return "allgather";
  }
  return "?";
}

const char* coll_algo_name(CollAlgo a) {
  switch (a) {
    case CollAlgo::kUnknown:
      return "unknown";
    case CollAlgo::kBinomial:
      return "binomial";
    case CollAlgo::kDissemination:
      return "dissemination";
    case CollAlgo::kRecursiveDoubling:
      return "rdbl";
    case CollAlgo::kReduceBcast:
      return "reduce-bcast";
    case CollAlgo::kRing:
      return "ring";
    case CollAlgo::kPostAll:
      return "postall";
    case CollAlgo::kPairwise:
      return "pairwise";
  }
  return "?";
}

CollTuner::CollTuner(const machine::Profile& p,
                     std::optional<CollAlgo> allreduce)
    : eager_threshold_(p.eager_threshold), allreduce_(allreduce) {}

int CollTuner::chains_for(std::size_t total_bytes) {
  if (total_bytes <= kSegBytes) return 1;
  const std::size_t n = (total_bytes + kSegBytes - 1) / kSegBytes;
  return static_cast<int>(
      std::min<std::size_t>(n, static_cast<std::size_t>(kMaxChains)));
}

CollAlgo CollTuner::default_for(CollectiveId c, std::size_t bytes,
                                int ranks) const {
  switch (c) {
    case CollectiveId::kBarrier:
      return CollAlgo::kDissemination;
    case CollectiveId::kBcast:
    case CollectiveId::kReduce:
      return CollAlgo::kBinomial;
    case CollectiveId::kAllreduce:
      if (ranks <= 1) return CollAlgo::kReduceBcast;
      if (bytes >= kRingAllreduceMin) return CollAlgo::kRing;
      if (is_pow2(ranks)) return CollAlgo::kRecursiveDoubling;
      return CollAlgo::kReduceBcast;
    case CollectiveId::kAlltoall:
      return bytes <= eager_threshold_ ? CollAlgo::kPostAll : CollAlgo::kPairwise;
    case CollectiveId::kAllgather:
      return CollAlgo::kPostAll;
  }
  return CollAlgo::kUnknown;
}

CollAlgo CollTuner::choose(CollectiveId c, std::size_t bytes, int ranks) const {
  // An illegal forced allreduce falls back to the defaults, so the recorded
  // algorithm is always the one that ran.
  if (c == CollectiveId::kAllreduce && allreduce_.has_value() &&
      legal_allreduce(*allreduce_, ranks)) {
    return *allreduce_;
  }
  return default_for(c, bytes, ranks);
}

}  // namespace smpi
