// Lock-free pool of proxy MPI_Request objects (paper Section 3.1/3.3).
//
// A nonblocking offloaded call must return a request handle before the
// offload thread has issued the real MPI call, so the library hands out
// slots from this pre-allocated pool; the slot index *is* the application's
// MPI_Request. The free list is an array-based Treiber stack whose head
// packs a 32-bit ABA tag next to the 32-bit slot index, making alloc/free
// safe for concurrent application threads (MPI_THREAD_MULTIPLE).
//
// Completion protocol: the offload thread writes the Status, then stores
// `done` with release; application threads spin on `done` with acquire.
//
// Memory-order inventory (minimal; the src/check/ mutation suite proves each
// remaining acquire/release is load-bearing — weakening any one of them to
// relaxed produces a detectable race or pool corruption):
//  * alloc: initial head load (acquire) — alloc dereferences
//    slots_[idx].next *before* its CAS, so the head value must come with the
//    freeing thread's writes (including `next`) already visible; an acquire
//    at the CAS cannot retroactively order the earlier deref.
//  * alloc: CAS (acquire success / acquire failure) — the failure load feeds
//    the retry's next-deref exactly like the initial load. No release side:
//    alloc publishes nothing through `head_`; the slot's contents are
//    published later via the done-flag protocol (C++20 release sequences
//    keep the chain intact through this relaxed-release RMW).
//  * free: CAS (release success / relaxed failure) — the release is the
//    ownership handoff: it publishes the `next` link and everything the
//    owner did with the slot to the next allocator. The initial head load
//    and the failure load only feed the packed *value*, which the CAS
//    itself validates, so they are relaxed.
//  * complete: done store (release) publishes the Status payload.
//  * done: done load (acquire) makes the Status safe to read.
//  * rearm: done store (relaxed) — quiescent between generations of a
//    persistent slot by construction (see rearm()).
//
// Storage: the slots live in a ChunkedSlots (core/chunked_slots.hpp), so
// the capacity is a bound and a chunk of slots is built, with its initial
// free-list links, when alloc() first finds the head in it. The untouched
// tail of the initial list is always the suffix [m, capacity), m one past
// the highest slot handed out so far, so slots come out in exactly the
// order of an eagerly built pool. The chunk install's own orders are audited in
// that header.
//
// memorder-audit: relaxed=9 acquire=5 release=2 acq_rel=0 seq_cst=0
// (tools/check_memorder.py fails CI when this line disagrees with the
// std::memory_order_* tokens actually used below — update both together.)
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "core/atomics_policy.hpp"
#include "core/chunked_slots.hpp"
#include "mpi/types.hpp"

namespace core {

template <typename Atomics = StdAtomics>
class RequestPoolT {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// 1 <= `capacity` < kNil.
  explicit RequestPoolT(std::uint32_t capacity)
      : slots_(checked(capacity), &init_slot) {
    Atomics::set_name(head_, "pool.head");
    head_.store(pack(0, 0), std::memory_order_relaxed);
  }

  RequestPoolT(const RequestPoolT&) = delete;
  RequestPoolT& operator=(const RequestPoolT&) = delete;

  /// Pop a free slot; returns kNil when exhausted.
  std::uint32_t alloc() {
    std::uint64_t h = head_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t idx = index_of(h);
      if (idx == kNil) return kNil;
      // The head's chunk is built before its link is read: a first visit
      // to a chunk finds the initial links there.
      Slot& s = slots_.touch(idx);
      const std::uint32_t next = s.next.load(std::memory_order_relaxed);
      const std::uint64_t nh = pack(next, tag_of(h) + 1);
      if (head_.compare_exchange_weak(h, nh, std::memory_order_acquire,
                                      std::memory_order_acquire)) {
        s.done.store(0, std::memory_order_relaxed);
        s.status.ref_w() = smpi::Status{};
        return idx;
      }
    }
  }

  /// Return a slot to the pool. The caller must own it (completed request).
  void free(std::uint32_t idx) {
    if (idx >= capacity()) throw std::out_of_range("RequestPool::free");
    Slot& s = slots_.touch(idx);
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      s.next.store(index_of(h), std::memory_order_relaxed);
      const std::uint64_t nh = pack(idx, tag_of(h) + 1);
      if (head_.compare_exchange_weak(h, nh, std::memory_order_release,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// Offload-thread side: publish completion.
  void complete(std::uint32_t idx, const smpi::Status& st) {
    Slot& s = slots_.touch(idx);
    s.status.ref_w() = st;
    s.done.store(1, std::memory_order_release);
  }

  /// Persistent re-arm: clear the done flag of a slot the caller owns
  /// between generations. Not part of the concurrent protocol — the previous
  /// generation's completion was consumed and the next start command has not
  /// been published, so nothing else touches the slot and relaxed suffices;
  /// the lane/ring publish of the start command is the release edge that
  /// hands the slot back to the engine.
  void rearm(std::uint32_t idx) {
    Slot& s = slots_.touch(idx);
    s.done.store(0, std::memory_order_relaxed);
    s.status.ref_w() = smpi::Status{};
  }

  /// Application side: has the request completed? `idx` must have been
  /// handed out by alloc() (so its chunk is built); likewise status().
  [[nodiscard]] bool done(std::uint32_t idx) const {
    return slots_.find(idx)->done.load(std::memory_order_acquire) != 0;
  }
  [[nodiscard]] const smpi::Status& status(std::uint32_t idx) const {
    return slots_.find(idx)->status.ref_r();
  }

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slots_.capacity());
  }
  /// Slot chunks built so far (quiescent state; tests).
  [[nodiscard]] std::size_t committed_chunks() const {
    return slots_.committed_chunks();
  }

  /// Number of free slots (O(n); for tests only, quiescent state). Does not
  /// build chunks: an unbuilt slot starts the untouched suffix of the
  /// initial list, which runs to the last slot.
  [[nodiscard]] std::uint32_t free_count() const {
    std::uint32_t n = 0;
    std::uint32_t idx = index_of(head_.load(std::memory_order_acquire));
    while (idx != kNil) {
      const Slot* s = slots_.find(idx);
      if (s == nullptr) return n + (capacity() - idx);
      ++n;
      idx = s->next.load(std::memory_order_relaxed);
    }
    return n;
  }

 private:
  struct Slot {
    typename Atomics::template atomic<std::uint32_t> done{0};
    typename Atomics::template var<smpi::Status> status{};
    typename Atomics::template atomic<std::uint32_t> next{kNil};
  };

  static std::uint32_t checked(std::uint32_t capacity) {
    if (capacity == 0 || capacity == kNil) {
      throw std::invalid_argument("RequestPool capacity must be in [1, kNil)");
    }
    return capacity;
  }
  static void init_slot(Slot& s, std::size_t i, std::size_t capacity) {
    Atomics::set_name(s.done, "pool.done", i);
    Atomics::set_name(s.status, "pool.status", i);
    Atomics::set_name(s.next, "pool.next", i);
    s.next.store(i + 1 < capacity ? static_cast<std::uint32_t>(i + 1) : kNil,
                 std::memory_order_relaxed);
  }

  static std::uint64_t pack(std::uint32_t idx, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | idx;
  }
  static std::uint32_t index_of(std::uint64_t h) {
    return static_cast<std::uint32_t>(h & 0xffffffffu);
  }
  static std::uint32_t tag_of(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }

  ChunkedSlots<Slot, Atomics> slots_;
  alignas(64) typename Atomics::template atomic<std::uint64_t> head_{0};
};

/// Production request pool: std::atomic, zero instrumentation.
using RequestPool = RequestPoolT<>;

}  // namespace core
