// Lock-free bounded multi-producer / single-consumer command ring.
//
// This is the paper's "lightweight lock-free command queue" (Section 3.1):
// application threads enqueue serialized MPI calls concurrently; the single
// offload thread dequeues. The implementation is Dmitry Vyukov's bounded
// MPMC queue specialized to one consumer (the head index needs no CAS
// beyond the per-cell sequence protocol, but it is still an atomic with
// relaxed ordering: producers read it cross-thread through size_approx()).
//
// The same class is used in three ways:
//  * inside the simulator (single host thread, virtual-time costs charged
//    around push/pop),
//  * under real std::thread stress tests and google-benchmark microbenches,
//  * instantiated with chk::ModelAtomics under the src/check/ model checker,
//    which exhaustively explores bounded interleavings of this exact code
//    and verifies the seq acquire/release protocol protects `Cell::val`.
//
// Memory-order inventory (each one is load-bearing; the checker's mutation
// suite proves that weakening any of them to relaxed yields a detectable
// race or protocol violation):
//  * seq load (acquire), producer side: synchronizes with the consumer's
//    seq release store so the producer may safely overwrite `val`.
//  * seq store (release), producer side: publishes `val` to the consumer.
//  * seq load (acquire), consumer side: synchronizes with the producer's
//    release so the consumer may safely read `val`.
//  * seq store (release), consumer side: publishes the moved-from cell back
//    to the producers (next lap).
// tail_ and head_ themselves only carry values, never payload visibility,
// so all their accesses are relaxed. The cells live in a ChunkedSlots
// (core/chunked_slots.hpp): the capacity is a bound, and a chunk of cells
// is built, with seq = index, when a producer or the consumer first reaches
// it. Every cell of lap 0 is reached in order, so the seq protocol never
// meets an unbuilt cell past lap 0. The chunk install's own orders are
// audited in that header.
//
// memorder-audit: relaxed=9 acquire=2 release=2 acq_rel=0 seq_cst=0
// (tools/check_memorder.py fails CI when this line disagrees with the
// std::memory_order_* tokens actually used below — update both together.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/atomics_policy.hpp"
#include "core/chunked_slots.hpp"

namespace core {

template <typename T, typename Atomics = StdAtomics>
class MpscRing {
 public:
  /// `capacity` must be a power of two, at least 2.
  explicit MpscRing(std::size_t capacity)
      : mask_(checked(capacity) - 1), cells_(capacity, &init_cell) {
    Atomics::set_name(tail_, "ring.tail");
    Atomics::set_name(head_, "ring.head");
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Multi-producer push; returns false when full.
  bool try_push(T v) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& c = cells_.touch(pos & mask_);
      const std::size_t seq = c.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
          c.val.ref_w() = std::move(v);
          c.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop; returns false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    Cell& c = cells_.touch(head & mask_);
    const std::size_t seq = c.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(head + 1) < 0) {
      return false;  // empty
    }
    out = std::move(c.val.ref_w());
    c.seq.store(head + mask_ + 1, std::memory_order_release);
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate occupancy (exact when quiescent). Safe to call from any
  /// thread: both indices are atomics read with relaxed ordering.
  [[nodiscard]] std::size_t size_approx() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool empty_approx() const { return size_approx() == 0; }
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
  /// Cell chunks built so far (quiescent state; tests).
  [[nodiscard]] std::size_t committed_chunks() const {
    return cells_.committed_chunks();
  }

 private:
  struct Cell {
    typename Atomics::template atomic<std::size_t> seq{0};
    typename Atomics::template var<T> val{};
  };
  static constexpr std::size_t kCacheLine = 64;

  static std::size_t checked(std::size_t capacity) {
    if (capacity < 2 || (capacity & (capacity - 1)) != 0) {
      throw std::invalid_argument("MpscRing capacity must be a power of two");
    }
    return capacity;
  }
  static void init_cell(Cell& c, std::size_t i, std::size_t /*capacity*/) {
    Atomics::set_name(c.seq, "ring.seq", i);
    Atomics::set_name(c.val, "ring.val", i);
    c.seq.store(i, std::memory_order_relaxed);
  }

  std::size_t mask_;
  ChunkedSlots<Cell, Atomics> cells_;
  alignas(kCacheLine) typename Atomics::template atomic<std::size_t> tail_{0};  // producers
  alignas(kCacheLine) typename Atomics::template atomic<std::size_t> head_{0};  // the one consumer
};

}  // namespace core
