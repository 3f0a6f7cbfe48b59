// Lock-free continuation slots: exactly-once completion handoff.
//
// One ContTable slot rides next to each RequestPool slot. Two racing
// parties touch it:
//
//   * the *attacher* (an application thread calling `.then(cb)`), which
//     publishes the callback record and then tries to claim the slot with
//     kArmed;
//   * the *completer* (the offload engine / progress path), which publishes
//     the payload + Status and then tries to claim the slot with kFired.
//
// Both claims are a single CAS from kIdle on the same location, so the
// location's modification order decides the race: exactly one side wins the
// claim and returns `false` ("the other side will find my claim and run the
// callback"); the losing side's CAS failure observes the winner's value and
// returns `true` ("run the callback yourself, everything you need is
// visible"). The callback therefore runs exactly once, on whichever side
// arrived second — the engine for the common attach-before-complete case,
// inline on the attaching thread when the request was already done.
//
// Memory-order inventory (the src/check/ "cont" mutation rows prove both
// sides load-bearing):
//  * arm/fire: CAS (acq_rel success / acquire failure) — the release half of
//    a successful claim publishes the claimant's record (callback for arm,
//    Status/payload for fire) to the other side; the acquire half of the
//    *failed* CAS synchronizes with that release, making the winner's record
//    safe to read before running the callback. Dropping either side lets the
//    callback observe an unpublished record or payload (a detectable race on
//    the chk::var payload in the model spec).
//  * reset: relaxed store — by reset time the slot has a single owner (the
//    side that ran the callback), so no ordering is needed; publication of
//    the recycled slot happens through RequestPool::free's release CAS.
//
// AnyClaimT below is the group-level sibling: where ContTable decides WHO
// runs one request's callback, AnyClaim decides WHICH member of a when_any
// group is the winner. Every completing member publishes its Status record
// and then CASes the single winner word from kOpen to its own index; the
// first CAS wins (its release half publishes the winner's record), every
// later member's CAS fails (the failure-acquire half makes the winner's
// record safe to read), and winner() lets any third party that observed a
// non-kOpen value (acquire) read that record too. The src/check/ "whenany"
// mutation rows prove all three orders load-bearing.
//
// The slots live in a ChunkedSlots (core/chunked_slots.hpp): a chunk is
// built, all kIdle, on the first arm/fire/reset of one of its slots, and
// state_of() reads an unbuilt slot as kIdle without building it.
//
// memorder-audit: relaxed=2 acquire=4 release=0 acq_rel=3 seq_cst=0
// (tools/check_memorder.py fails CI when this line disagrees with the
// std::memory_order_* tokens actually used below — update both together.)
#pragma once

#include <atomic>
#include <cstdint>

#include "core/atomics_policy.hpp"
#include "core/chunked_slots.hpp"

namespace core {

template <typename Atomics = StdAtomics>
class ContTableT {
 public:
  static constexpr std::uint32_t kIdle = 0;
  static constexpr std::uint32_t kArmed = 1;
  static constexpr std::uint32_t kFired = 2;

  /// `capacity` must be at least 1.
  explicit ContTableT(std::uint32_t capacity) : slots_(capacity, &init_slot) {}

  ContTableT(const ContTableT&) = delete;
  ContTableT& operator=(const ContTableT&) = delete;

  /// Attacher side: publish the callback record *before* calling arm().
  /// Returns false when the claim won (the completer will run the callback)
  /// and true when the completion already fired (the caller must run the
  /// callback itself — the Status/payload writes are visible).
  bool arm(std::uint32_t idx) {
    std::uint32_t expected = kIdle;
    return !slots_.touch(idx).state.compare_exchange_strong(
        expected, kArmed, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  /// Completer side: publish the Status/payload *before* calling fire().
  /// Returns false when the claim won (no continuation was attached yet; a
  /// later arm() will run it inline) and true when a continuation is armed
  /// (the caller must run it — the callback record is visible).
  bool fire(std::uint32_t idx) {
    std::uint32_t expected = kIdle;
    return !slots_.touch(idx).state.compare_exchange_strong(
        expected, kFired, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  /// Recycle the slot after the callback ran (or alongside a plain free for
  /// requests that never had a continuation). Single-owner at this point.
  void reset(std::uint32_t idx) {
    slots_.touch(idx).state.store(kIdle, std::memory_order_relaxed);
  }

  /// Quiescent-state inspection (tests only); builds nothing.
  [[nodiscard]] std::uint32_t state_of(std::uint32_t idx) const {
    const Slot* s = slots_.find(idx);
    return s == nullptr ? kIdle : s->state.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slots_.capacity());
  }
  /// Slot chunks built so far (quiescent state; tests).
  [[nodiscard]] std::size_t committed_chunks() const {
    return slots_.committed_chunks();
  }

 private:
  struct Slot {
    typename Atomics::template atomic<std::uint32_t> state{kIdle};
  };

  static void init_slot(Slot& s, std::size_t i, std::size_t /*capacity*/) {
    Atomics::set_name(s.state, "cont.state", i);
  }

  ChunkedSlots<Slot, Atomics> slots_;
};

/// Production continuation table: std::atomic, zero instrumentation.
using ContTable = ContTableT<>;

/// First-wins claim word for when_any groups (header doc above). Members are
/// indexed 0..n-1; kOpen means no member has completed yet.
template <typename Atomics = StdAtomics>
class AnyClaimT {
 public:
  static constexpr std::uint32_t kOpen = 0xffffffffu;

  AnyClaimT() { Atomics::set_name(winner_, "any.winner"); }
  AnyClaimT(const AnyClaimT&) = delete;
  AnyClaimT& operator=(const AnyClaimT&) = delete;

  /// Completer side: publish member `idx`'s Status record *before* calling
  /// claim(). Returns true when this member is the winner (run the win
  /// callback); false when another member already won — `observed` then
  /// holds the winner's index, and the winner's record is safe to read
  /// through the failed CAS's acquire (no extra winner() load needed).
  bool claim(std::uint32_t idx, std::uint32_t& observed) {
    observed = kOpen;
    const bool won = winner_.compare_exchange_strong(
        observed, idx, std::memory_order_acq_rel, std::memory_order_acquire);
    if (won) observed = idx;
    return won;
  }

  /// Claim without caring who beat you (the common hedging path: losers
  /// just decline to run the win callback).
  bool claim(std::uint32_t idx) {
    std::uint32_t observed;
    return claim(idx, observed);
  }

  /// Which member won, or kOpen if the race is still undecided. A non-kOpen
  /// result (acquire) makes the winner's published record safe to read.
  [[nodiscard]] std::uint32_t winner() const {
    return winner_.load(std::memory_order_acquire);
  }

 private:
  typename Atomics::template atomic<std::uint32_t> winner_{kOpen};
};

/// Production when_any claim word: std::atomic, zero instrumentation.
using AnyClaim = AnyClaimT<>;

}  // namespace core
