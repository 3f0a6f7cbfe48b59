#include "mpi/comm.hpp"

#include <algorithm>
#include <stdexcept>

namespace smpi {

namespace {
// Context-id derivation: child = parent * kCtxFan + 2 + counter. WORLD = 0,
// SELF = 1. kCtxFan bounds how many communicators may be derived from one
// parent; 0x40000000 on context ids is reserved for the internal collective
// channel (see matching.hpp).
constexpr std::uint32_t kCtxFan = 64;
}  // namespace

int CommInfo::from_global(int global) const {
  auto it = std::find(group.begin(), group.end(), global);
  if (it == group.end()) return kAnySource;
  return static_cast<int>(it - group.begin());
}

void CommTable::init(int me, int nranks) {
  comms_.clear();
  CommInfo world;
  world.context = 0;
  world.group.resize(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) world.group[static_cast<std::size_t>(i)] = i;
  world.my_rank = me;
  comms_.push_back(std::move(world));

  CommInfo self;
  self.context = 1;
  self.group = {me};
  self.my_rank = 0;
  comms_.push_back(std::move(self));
}

CommInfo& CommTable::get(Comm c) {
  if (c.idx < 0 || static_cast<std::size_t>(c.idx) >= comms_.size()) {
    throw std::invalid_argument("invalid communicator handle");
  }
  return comms_[static_cast<std::size_t>(c.idx)];
}

const CommInfo& CommTable::get(Comm c) const {
  return const_cast<CommTable*>(this)->get(c);
}

Comm CommTable::insert(CommInfo info) {
  comms_.push_back(std::move(info));
  return Comm{static_cast<int>(comms_.size() - 1)};
}

Comm CommTable::dup(Comm parent) {
  CommInfo& p = get(parent);
  CommInfo child;
  child.context = p.context * kCtxFan + 2 + p.next_child++;
  child.group = p.group;
  child.my_rank = p.my_rank;
  return insert(std::move(child));
}

Comm CommTable::split(Comm parent,
                      const std::vector<std::pair<int, int>>& color_key) {
  CommInfo& p = get(parent);
  if (color_key.size() != p.group.size()) {
    throw std::invalid_argument("split: need (color,key) for every member");
  }
  const std::uint32_t ctx_base = p.context * kCtxFan + 2 + p.next_child++;
  const int my_color = color_key[static_cast<std::size_t>(p.my_rank)].first;
  if (my_color < 0) return kCommNull;  // MPI_UNDEFINED-style opt-out

  // Members of my color, ordered by (key, parent rank).
  std::vector<int> members;  // parent-comm ranks
  for (int r = 0; r < p.size(); ++r) {
    if (color_key[static_cast<std::size_t>(r)].first == my_color) members.push_back(r);
  }
  std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
    return color_key[static_cast<std::size_t>(a)].second <
           color_key[static_cast<std::size_t>(b)].second;
  });

  CommInfo child;
  // Same derived context for every color: safe because the color groups are
  // disjoint, so (context, source-rank) still uniquely identifies traffic.
  child.context = ctx_base;
  child.group.reserve(members.size());
  for (int pr : members) child.group.push_back(p.to_global(pr));
  child.my_rank = static_cast<int>(
      std::find(members.begin(), members.end(), p.my_rank) - members.begin());
  return insert(std::move(child));
}

}  // namespace smpi
