#include "mpi/matching.hpp"

#include "mpi/request.hpp"

namespace smpi {

bool MatchingEngine::matches(std::uint32_t recv_ctx, int recv_src_global,
                             int recv_tag, const Envelope& e) {
  if (recv_ctx != e.context) return false;
  if (recv_src_global != kAnySource && recv_src_global != e.src_global) return false;
  return recv_tag == kAnyTag || recv_tag == e.tag;
}

void MatchingEngine::post_recv(RequestImpl* r) { posted_.push_back(r); }

RequestImpl* MatchingEngine::match_posted(const Envelope& e) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    RequestImpl* r = *it;
    if (matches(r->ctx, r->src_global, r->tag, e)) {
      posted_.erase(it);
      return r;
    }
  }
  return nullptr;
}

void MatchingEngine::add_unexpected(UnexpectedMsg&& m) {
  unexpected_.push_back(std::move(m));
}

std::optional<UnexpectedMsg> MatchingEngine::match_unexpected(std::uint32_t ctx,
                                                              int src_global,
                                                              int tag) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(ctx, src_global, tag, it->env)) {
      UnexpectedMsg m = std::move(*it);
      unexpected_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

const UnexpectedMsg* MatchingEngine::peek_unexpected(std::uint32_t ctx,
                                                     int src_global,
                                                     int tag) const {
  for (const auto& m : unexpected_) {
    if (matches(ctx, src_global, tag, m.env)) return &m;
  }
  return nullptr;
}

}  // namespace smpi
