// Lock-free bounded single-producer / single-consumer submission lane.
//
// One lane per application fiber shards the offload channel's front-end:
// instead of all threads CASing on one MpscRing tail (a guaranteed cache-line
// ping-pong at high thread counts), each submitter owns a private SPSC ring
// that only it writes and only the offload engine reads. The engine drains
// lanes round-robin with a fairness bound (see OffloadChannel::engine_main).
//
// The design is the classic cached-index SPSC queue: both sides keep a
// *plain* local copy of the opposite index (`cached_head_` / `cached_tail_`)
// and only touch the shared atomic when the cached value says the lane looks
// full/empty. In the common case a push is one relaxed load, one payload
// store and one release store — no RMW at all — and the producer's and
// consumer's hot state live on separate cache lines.
//
// Batching: `try_push_n` writes a whole span of commands and publishes them
// with a single release store of the tail (one "doorbell" worth of traffic
// for N commands). FIFO order within a lane is inherent.
//
// Like MpscRing, the class is templated over an atomics policy so the
// src/check/ model checker can instantiate it with chk::ModelAtomics and
// exhaustively verify the protocol (spec: chk::specs::check_lane).
//
// Memory-order inventory (each one is load-bearing; the checker's mutation
// suite proves that weakening any of them to relaxed yields a detectable
// race or protocol violation):
//  * tail store (release), producer side: publishes the cell payload(s) to
//    the consumer.
//  * tail load (acquire), consumer side (cached-tail refresh): synchronizes
//    with the producer's release so the consumer may safely read `val`.
//  * head store (release), consumer side: returns the emptied cell(s) to the
//    producer for the next lap.
//  * head load (acquire), producer side (cached-head refresh): synchronizes
//    with the consumer's release so the producer may safely overwrite `val`.
// The producer's load of tail_ and the consumer's load of head_ are
// same-thread reads of an index only that thread writes, so they are
// relaxed; size_approx() reads both indices relaxed (values only, never
// payload visibility).
//
// memorder-audit: relaxed=5 acquire=3 release=3 acq_rel=0 seq_cst=0
// (tools/check_memorder.py fails CI when this line disagrees with the
// std::memory_order_* tokens actually used below — update both together.)
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/atomics_policy.hpp"

namespace core {

template <typename T, typename Atomics = StdAtomics>
class SpscLane {
 public:
  /// `capacity` must be a power of two >= 2; throws std::invalid_argument
  /// otherwise, and returns it.
  static std::size_t checked(std::size_t capacity) {
    if (capacity < 2 || (capacity & (capacity - 1)) != 0) {
      throw std::invalid_argument("SpscLane capacity must be a power of two");
    }
    return capacity;
  }

  explicit SpscLane(std::size_t capacity)
      : mask_(checked(capacity) - 1), cells_(capacity) {
    for (std::size_t i = 0; i < capacity; ++i) {
      Atomics::set_name(cells_[i].val, "lane.val", i);
    }
    Atomics::set_name(tail_, "lane.tail");
    Atomics::set_name(head_, "lane.head");
  }

  SpscLane(const SpscLane&) = delete;
  SpscLane& operator=(const SpscLane&) = delete;

  /// Single-producer push; returns false when full.
  bool try_push(T v) {
    const std::size_t pos = tail_.load(std::memory_order_relaxed);
    if (pos - cached_head_ == capacity()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (pos - cached_head_ == capacity()) return false;  // genuinely full
    }
    cells_[pos & mask_].val.ref_w() = std::move(v);
    tail_.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Single-producer batch push: moves as many items from `vs` as fit and
  /// publishes them with ONE release store (one doorbell's worth of cache
  /// traffic for the whole prefix). Returns how many were consumed from the
  /// front of `vs`.
  std::size_t try_push_n(std::span<T> vs) {
    const std::size_t pos = tail_.load(std::memory_order_relaxed);
    std::size_t room = capacity() - (pos - cached_head_);
    if (room < vs.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      room = capacity() - (pos - cached_head_);
    }
    const std::size_t n = room < vs.size() ? room : vs.size();
    for (std::size_t i = 0; i < n; ++i) {
      cells_[(pos + i) & mask_].val.ref_w() = std::move(vs[i]);
    }
    if (n != 0) tail_.store(pos + n, std::memory_order_release);
    return n;
  }

  /// Single-consumer pop; returns false when empty.
  bool try_pop(T& out) {
    const std::size_t pos = head_.load(std::memory_order_relaxed);
    if (pos == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (pos == cached_tail_) return false;  // genuinely empty
    }
    out = std::move(cells_[pos & mask_].val.ref_w());
    head_.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (exact when quiescent). Safe from any thread:
  /// both indices are atomics read with relaxed ordering.
  [[nodiscard]] std::size_t size_approx() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool empty_approx() const { return size_approx() == 0; }
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    typename Atomics::template var<T> val{};
  };
  static constexpr std::size_t kCacheLine = 64;

  std::size_t mask_;
  std::vector<Cell> cells_;
  // Producer-side hot state: the shared tail it publishes through plus its
  // private cache of the consumer's head. Padded away from the consumer side.
  alignas(kCacheLine) typename Atomics::template atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;  // producer-only
  // Consumer-side hot state.
  alignas(kCacheLine) typename Atomics::template atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;  // consumer-only
};

}  // namespace core
