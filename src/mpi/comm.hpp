// Communicator bookkeeping (per rank).
//
// A communicator is a context id plus an ordered group of global ranks.
// Context ids are derived deterministically from the parent communicator's
// id and a per-parent construction counter; MPI requires all members of a
// communicator to invoke constructors in the same order, which makes the
// derived ids agree across ranks without any exchange.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/types.hpp"

namespace smpi {

struct CommInfo {
  std::uint32_t context = 0;        ///< matching context id
  std::vector<int> group;           ///< group[i] = global rank of comm rank i
  int my_rank = -1;                 ///< my rank within the group
  std::uint32_t next_child = 0;     ///< counter for derived communicators
  std::uint64_t coll_seq = 0;       ///< per-comm collective sequence number

  [[nodiscard]] int size() const { return static_cast<int>(group.size()); }
  [[nodiscard]] int to_global(int comm_rank) const { return group.at(static_cast<std::size_t>(comm_rank)); }
  /// Returns the comm rank of `global`, or kAnySource if not a member.
  [[nodiscard]] int from_global(int global) const;
};

/// Per-rank table of communicators. Slots 0 and 1 are WORLD and SELF.
class CommTable {
 public:
  /// Initialize WORLD (all ranks) and SELF for global rank `me` of `nranks`.
  void init(int me, int nranks);

  [[nodiscard]] CommInfo& get(Comm c);
  [[nodiscard]] const CommInfo& get(Comm c) const;

  /// Duplicate `parent` (same group, fresh context).
  Comm dup(Comm parent);
  /// Split: members with the same `color` form a new communicator, ordered
  /// by (key, parent rank). `others` must supply the (color, key) of every
  /// parent-comm member so the split is computable locally — the Cluster
  /// gathers these via the collective layer before calling.
  Comm split(Comm parent, const std::vector<std::pair<int, int>>& color_key);

 private:
  Comm insert(CommInfo info);
  std::vector<CommInfo> comms_;
};

}  // namespace smpi
