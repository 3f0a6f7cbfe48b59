// Fixed-capacity slot array whose storage is committed in chunks on first
// touch.
//
// The offload channel's structures are bounded: a command ring holds at most
// `ring` cells, the request pool at most `pool` slots. The bounds are part
// of the protocol (a full ring stalls its producers, an exhausted pool its
// submitters), but a rank seldom comes near them, and the simulator hosts
// every rank in one process. ChunkedSlots keeps the capacity as a bound and
// commits storage only for the chunks that are touched: chunk 0 is built by
// the constructor and held directly, every other chunk sits behind one word
// of a fixed directory and is built by whichever thread touches it first.
//
// Install protocol (lock-free): the first toucher of chunk k builds a chunk,
// runs the owner's Init on each entry (the ring writes seq = index, the pool
// its free-list links), then CASes the chunk's address into the empty
// directory word. A thread that loses the CAS deletes its copy and uses the
// winner's. Chunks never move and live until the destructor, so an entry's
// address is stable and may key side tables (the channel's san:: checks).
//
// Memory-order inventory (the src/check/ "chunk" mutation rows prove each
// acquire/release load-bearing):
//  * directory load (acquire), touch() and find(): a non-empty word comes
//    with the installer's Init writes visible.
//  * install CAS (release success / acquire failure): the release publishes
//    the fresh chunk's Init writes to every later acquire load of the word;
//    the failure acquire makes the winner's chunk safe to use for the thread
//    that lost.
//  * destructor and committed_chunks() loads (relaxed): quiescent.
// Chunk 0 needs no ordering: it is built before the structure is shared.
//
// memorder-audit: relaxed=2 acquire=3 release=1 acq_rel=0 seq_cst=0
// (tools/check_memorder.py fails CI when this line disagrees with the
// std::memory_order_* tokens actually used below — update both together.)
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>

#include "core/atomics_policy.hpp"

namespace core {

template <typename T, typename Atomics = StdAtomics, std::size_t kChunk = 64>
class ChunkedSlots {
  static_assert(kChunk > 0, "a chunk holds at least one entry");

 public:
  /// Initialises entry `index` of a freshly built, value-initialised chunk,
  /// before any other thread can see it.
  using Init = void (*)(T& slot, std::size_t index, std::size_t capacity);

  explicit ChunkedSlots(std::size_t capacity, Init init = nullptr)
      : capacity_(checked(capacity)),
        init_(init),
        dir_(std::make_unique<Word[]>(chunk_count() - 1)),
        chunk0_(build(0)) {
    for (std::size_t k = 1; k < chunk_count(); ++k) {
      Atomics::set_name(word(k), "chunk.dir", k);
    }
  }

  ~ChunkedSlots() {
    for (std::size_t k = 1; k < chunk_count(); ++k) {
      delete[] word(k).load(std::memory_order_relaxed);
    }
  }

  ChunkedSlots(const ChunkedSlots&) = delete;
  ChunkedSlots& operator=(const ChunkedSlots&) = delete;

  /// Entry `i`, building its chunk if no thread has yet. Any thread.
  T& touch(std::size_t i) {
    if (i < kChunk) return chunk0_[i];
    const std::size_t k = i / kChunk;
    T* c = word(k).load(std::memory_order_acquire);
    if (c == nullptr) [[unlikely]] c = install(k);
    return c[i % kChunk];
  }

  /// Entry `i`, or nullptr while its chunk is unbuilt. Builds nothing.
  [[nodiscard]] const T* find(std::size_t i) const {
    if (i < kChunk) return &chunk0_[i];
    const T* c = word(i / kChunk).load(std::memory_order_acquire);
    return c == nullptr ? nullptr : &c[i % kChunk];
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t chunk_count() const {
    return (capacity_ + kChunk - 1) / kChunk;
  }
  /// Chunks built so far, chunk 0 included (quiescent state; tests).
  [[nodiscard]] std::size_t committed_chunks() const {
    std::size_t n = 1;
    for (std::size_t k = 1; k < chunk_count(); ++k) {
      n += word(k).load(std::memory_order_relaxed) != nullptr ? 1 : 0;
    }
    return n;
  }

 private:
  /// A directory word: a chunk's first entry, nullptr while unbuilt.
  using Word = typename Atomics::template atomic<T*>;

  static std::size_t checked(std::size_t capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("ChunkedSlots capacity must be at least 1");
    }
    return capacity;
  }
  // The directory covers chunks 1..chunk_count()-1.
  Word& word(std::size_t k) { return dir_[k - 1]; }
  const Word& word(std::size_t k) const { return dir_[k - 1]; }

  /// Chunk k's entries; the last chunk holds only what the capacity needs.
  std::unique_ptr<T[]> build(std::size_t k) const {
    const std::size_t first = k * kChunk;
    const std::size_t n = std::min(kChunk, capacity_ - first);
    std::unique_ptr<T[]> c(new T[n]());
    if (init_ != nullptr) {
      for (std::size_t j = 0; j < n; ++j) init_(c[j], first + j, capacity_);
    }
    return c;
  }

  /// First touch of chunk k: build, then race to install. Returns the
  /// installed chunk, ours or the winner's. Kept out of line so the
  /// callers' hot paths stay small.
  [[gnu::noinline, gnu::cold]] T* install(std::size_t k) {
    std::unique_ptr<T[]> fresh = build(k);
    T* seen = nullptr;
    if (word(k).compare_exchange_strong(seen, fresh.get(),
                                        std::memory_order_release,
                                        std::memory_order_acquire)) {
      return fresh.release();
    }
    return seen;  // lost: `fresh` is deleted here
  }

  std::size_t capacity_;
  Init init_;
  std::unique_ptr<Word[]> dir_;
  std::unique_ptr<T[]> chunk0_;
};

}  // namespace core
