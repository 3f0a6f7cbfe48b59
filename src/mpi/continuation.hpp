// Continuation chaining: `.then(cb)` on nonblocking operations.
//
// The paper's offload proxy hides MPI *calls* from application threads, but
// a polling application still pulls its threads back into the runtime to
// discover completion. Continuations remove that last touch point: attach a
// callback to a request and the proxy's progress context — the offload
// engine fiber for the offload approach, the test/progress pump for the
// direct approaches — runs it at completion time. Callbacks may post
// follow-up operations and attach further continuations, so an entire
// dependency graph executes without the application thread re-entering MPI
// (cf. GHEX's continuation/callback communicators and the sender/receiver
// designs cited in PAPERS.md).
//
//   cont::Event done;
//   cont::irecv(proxy, buf, n, dt, src, tag).then([&](const smpi::Status&) {
//     cont::isend(proxy, buf, n, dt, nxt, tag).then(
//         [&](const smpi::Status&) { done.set(); });
//   });
//   ... compute ...
//   done.wait(proxy);   // drives the proxy's continuation machinery
//
// Execution rules (DESIGN.md §13):
//   * a continuation runs exactly once, after the payload/Status writes of
//     its operation are visible — for receives, only after the reliability
//     layer admitted the frame (rel_admit), never on a duplicate/corrupt one;
//   * callbacks must never block (Event::wait / proxy wait calls from a
//     callback throw on the offload engine); post + chain instead;
//   * attaching to an already-completed or already-released request runs the
//     callback inline on the attaching thread — the continuation analogue of
//     the "waiting twice is safe" contract on PReq.
//
// Counters are plain (non-atomic) because the simulator's fibers within one
// rank are cooperatively scheduled — documented loudly here because a real
// pthread port must make Event/Join state atomic.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/proxy.hpp"

namespace cont {

using core::ContFn;

/// A posted operation awaiting its `.then()`. Move-only, rvalue-consumed.
/// Destroying an unconsumed Pending waits for the operation (RAII: the
/// request must not outlive its buffers silently).
class Pending {
 public:
  Pending(core::Proxy& p, core::PReq r) : proxy_(&p), r_(r) {}
  Pending(Pending&& o) noexcept
      : proxy_(std::exchange(o.proxy_, nullptr)),
        r_(std::exchange(o.r_, core::PReq{})) {}
  Pending& operator=(Pending&&) = delete;
  Pending(const Pending&) = delete;
  Pending& operator=(const Pending&) = delete;
  ~Pending() {
    if (proxy_ != nullptr && !r_.is_null()) proxy_->wait(r_);
  }

  /// Chain `fn` to run at completion; consumes the Pending.
  void then(ContFn fn) && {
    proxy_->attach_continuation(r_, std::move(fn));
    proxy_ = nullptr;
  }

 private:
  core::Proxy* proxy_;
  core::PReq r_;
};

/// cont::isend(proxy, ...).then(cb) — post-and-chain entry points.
inline Pending isend(core::Proxy& p, const void* b, std::size_t n,
                     smpi::Datatype dt, int dst, int tag,
                     smpi::Comm c = smpi::kCommWorld) {
  return Pending(p, p.isend(b, n, dt, dst, tag, c));
}
inline Pending irecv(core::Proxy& p, void* b, std::size_t n,
                     smpi::Datatype dt, int src, int tag,
                     smpi::Comm c = smpi::kCommWorld) {
  return Pending(p, p.irecv(b, n, dt, src, tag, c));
}
/// Adopt any proxy request (collectives, post_batch output, ...).
inline Pending wrap(core::Proxy& p, core::PReq r) { return Pending(p, r); }

/// One-shot completion flag for joining a continuation graph back to the
/// application thread: the graph's tail continuation set()s it, the
/// application wait()s. Setting twice is harmless; waiting a set event
/// returns immediately.
class Event {
 public:
  void set() { fired_ = true; }
  /// Block the calling fiber until set(), driving the proxy's continuation
  /// machinery meanwhile. Must not be called from a continuation.
  void wait(core::Proxy& p) {
    p.cont_wait([this]() { return fired_; });
  }

 private:
  bool fired_ = false;  // cooperative fibers: no atomicity needed (header doc)
};

/// The when_all(...) combinator's intermediate: holds the group until
/// `.then()` arms it. Null handles in the group count as already complete
/// (all-null or empty groups run the final callback inline).
class Join {
 public:
  /// Arm: `fin` runs exactly once, after every member completed (with the
  /// Status of the last one).
  void then(ContFn fin) &&;

 private:
  friend Join when_all(core::Proxy& p, std::span<core::PReq> rs);
  Join(core::Proxy& p, std::span<core::PReq> rs);
  core::Proxy* proxy_;
  std::vector<core::PReq> reqs_;
};

/// Group combinator: when_all(proxy, reqs).then(cb). Consumes (nulls) every
/// handle in `rs`.
Join when_all(core::Proxy& p, std::span<core::PReq> rs);

/// Winner hook of when_any: runs exactly once, for the FIRST member of the
/// group to complete, with that member's index and Status.
using AnyFn = std::function<void(std::size_t, const smpi::Status&)>;

/// The when_any(...) combinator's intermediate: a racing group. Built for
/// redundant-request hedging (post the same request to a primary and a
/// replica shard, act on whichever answers first).
///
/// Semantics (DESIGN.md §17):
///   * `win` runs exactly once, for the first member to complete — decided
///     by a first-wins claim CAS (core::AnyClaim), so two members completing
///     on different progress contexts still elect exactly one winner;
///   * the losers are NOT cancelled (the one documented relaxation vs
///     MPI_Cancel): they complete normally through the usual continuation
///     path, which is also what frees their request slots — so every
///     member's buffer must stay valid until `settled` runs;
///   * `settled`, if non-empty, runs exactly once after EVERY member
///     completed (winner and losers alike) — the buffer-reclamation /
///     slot-reuse hook;
///   * members are one-shot requests, consumed (nulled) at arm time and
///     indexed 0..rs.size()-1 in span order; a null or already-completed
///     handle counts as completing at arm time, so it races for the win like
///     any other member (first arm wins, inline);
///   * an empty group throws std::invalid_argument (there is no meaningful
///     winner).
class AnyJoin {
 public:
  /// Arm the race: `win(index, status)` for the first completion, then
  /// `settled` (if non-empty) after all members.
  void then(AnyFn win, ContFn settled) &&;

 private:
  friend AnyJoin when_any(core::Proxy& p, std::span<core::PReq> rs);
  AnyJoin(core::Proxy& p, std::span<core::PReq> rs);
  core::Proxy* proxy_;
  std::vector<core::PReq> reqs_;
};

/// Racing combinator: when_any(proxy, reqs).then(win, settled). Consumes
/// (nulls) every handle in `rs`.
AnyJoin when_any(core::Proxy& p, std::span<core::PReq> rs);

}  // namespace cont
