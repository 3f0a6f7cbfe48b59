#include "mpi/continuation.hpp"

#include <memory>
#include <stdexcept>

namespace cont {

Join::Join(core::Proxy& p, std::span<core::PReq> rs) : proxy_(&p) {
  reqs_.reserve(rs.size());
  for (core::PReq& r : rs) {
    reqs_.push_back(std::exchange(r, core::PReq{}));
  }
}

Join when_all(core::Proxy& p, std::span<core::PReq> rs) {
  return Join(p, rs);
}

void Join::then(ContFn fin) && {
  std::size_t active = 0;
  for (const core::PReq& r : reqs_) {
    if (!r.is_null()) ++active;
  }
  if (active == 0) {
    // Empty group or every handle already released: complete by contract,
    // inline on the attaching thread (mirrors attach on a null handle).
    fin(smpi::Status{});
    return;
  }
  // Shared countdown. A plain size_t: all attached callbacks run on this
  // rank's cooperatively scheduled fibers (see header).
  struct State {
    std::size_t remaining;
    ContFn fin;
  };
  auto st = std::make_shared<State>(State{active, std::move(fin)});
  for (core::PReq& r : reqs_) {
    if (r.is_null()) continue;
    proxy_->attach_continuation(r, [st](const smpi::Status& s) {
      if (--st->remaining == 0) st->fin(s);
    });
  }
}

AnyJoin::AnyJoin(core::Proxy& p, std::span<core::PReq> rs) : proxy_(&p) {
  reqs_.reserve(rs.size());
  for (core::PReq& r : rs) {
    reqs_.push_back(std::exchange(r, core::PReq{}));
  }
}

AnyJoin when_any(core::Proxy& p, std::span<core::PReq> rs) {
  return AnyJoin(p, rs);
}

void AnyJoin::then(AnyFn win, ContFn settled) && {
  if (reqs_.empty()) {
    throw std::invalid_argument("cont::when_any: empty group has no winner");
  }
  // The claim word is the only cross-context state; the countdown is a plain
  // size_t because all attached callbacks run on this rank's cooperatively
  // scheduled fibers (see header). A real pthread port must make `remaining`
  // atomic (the claim already is).
  struct State {
    core::AnyClaim claim;
    std::size_t remaining;
    AnyFn win;
    ContFn settled;
  };
  auto st = std::make_shared<State>();
  st->remaining = reqs_.size();
  st->win = std::move(win);
  st->settled = std::move(settled);
  auto member_done = [st](std::size_t i, const smpi::Status& s) {
    // Status publication happens-before the claim through the claim CAS
    // itself (the completer's attach path already published `s` to this
    // callback); the CAS decides the winner exactly once.
    if (st->claim.claim(static_cast<std::uint32_t>(i))) st->win(i, s);
    if (--st->remaining == 0 && st->settled) st->settled(s);
  };
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    // Null / already-completed handles run the callback inline from
    // attach_continuation — they race for the win right here at arm time.
    proxy_->attach_continuation(reqs_[i], [member_done, i](
                                              const smpi::Status& s) {
      member_done(i, s);
    });
  }
}

}  // namespace cont
