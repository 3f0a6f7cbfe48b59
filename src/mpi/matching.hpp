// Two-sided message matching: posted-receive queue and unexpected queue.
//
// MPI matching rules implemented here:
//  * a message matches a posted receive iff context ids are equal, the
//    receive's source is the sender or kAnySource, and the receive's tag is
//    the message tag or kAnyTag;
//  * both queues are searched in FIFO order, which together with in-order
//    network delivery per (src,dst) yields MPI's non-overtaking guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "mpi/types.hpp"

namespace smpi {

struct RequestImpl;

/// The matchable identity of a message.
struct Envelope {
  std::uint32_t context = 0;
  int src_global = kAnySource;  ///< sender's global rank (never wildcard on wire)
  int tag = kAnyTag;
};

/// What an unexpected arrival is: either buffered eager data or a parked
/// rendezvous RTS waiting for its receive to be posted.
struct UnexpectedMsg {
  Envelope env;
  std::size_t bytes = 0;
  bool is_rndv = false;
  std::vector<std::byte> payload;    ///< eager only
  std::uint64_t sender_req = 0;      ///< rendezvous only: sender request idx
};

class MatchingEngine {
 public:
  /// Does `recv_ctx/src/tag` accept envelope `e`? `src` and `tag` may be
  /// wildcards; `e` never contains wildcards.
  static bool matches(std::uint32_t recv_ctx, int recv_src_global, int recv_tag,
                      const Envelope& e);

  // -- receiver side --
  void post_recv(RequestImpl* r);
  /// Remove a posted receive matching `e` (FIFO), or nullptr.
  RequestImpl* match_posted(const Envelope& e);

  // -- unexpected side --
  void add_unexpected(UnexpectedMsg&& m);
  /// Remove the first unexpected message matching the receive triple.
  std::optional<UnexpectedMsg> match_unexpected(std::uint32_t ctx, int src_global,
                                                int tag);
  /// Probe (non-destructive): first matching unexpected message, or nullptr.
  const UnexpectedMsg* peek_unexpected(std::uint32_t ctx, int src_global,
                                       int tag) const;

  [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }
  [[nodiscard]] std::size_t unexpected_count() const { return unexpected_.size(); }

 private:
  std::deque<RequestImpl*> posted_;
  std::deque<UnexpectedMsg> unexpected_;
};

}  // namespace smpi
