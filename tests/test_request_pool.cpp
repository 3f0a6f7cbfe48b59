// Tests for the lock-free proxy-request pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/request_pool.hpp"

using core::RequestPool;

TEST(RequestPool, AllocAllThenExhaust) {
  RequestPool pool(8);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t idx = pool.alloc();
    ASSERT_NE(idx, RequestPool::kNil);
    EXPECT_TRUE(seen.insert(idx).second) << "duplicate slot";
  }
  EXPECT_EQ(pool.alloc(), RequestPool::kNil);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(RequestPool, FreeMakesSlotReusable) {
  RequestPool pool(2);
  const std::uint32_t a = pool.alloc();
  const std::uint32_t b = pool.alloc();
  EXPECT_EQ(pool.alloc(), RequestPool::kNil);
  pool.free(a);
  EXPECT_EQ(pool.alloc(), a);  // LIFO
  pool.free(b);
  pool.free(a);
  EXPECT_EQ(pool.free_count(), 2u);
}

TEST(RequestPool, CompletionProtocol) {
  RequestPool pool(4);
  const std::uint32_t idx = pool.alloc();
  EXPECT_FALSE(pool.done(idx));
  smpi::Status st;
  st.source = 3;
  st.tag = 9;
  st.bytes = 128;
  pool.complete(idx, st);
  EXPECT_TRUE(pool.done(idx));
  EXPECT_EQ(pool.status(idx).source, 3);
  EXPECT_EQ(pool.status(idx).tag, 9);
  EXPECT_EQ(pool.status(idx).bytes, 128u);
  pool.free(idx);
  // Recycled slot starts not-done.
  const std::uint32_t again = pool.alloc();
  EXPECT_EQ(again, idx);
  EXPECT_FALSE(pool.done(again));
}

TEST(RequestPool, FreeOutOfRangeThrows) {
  RequestPool pool(4);
  EXPECT_THROW(pool.free(4), std::out_of_range);
}

TEST(RequestPool, RejectsZeroAndNilCapacity) {
  EXPECT_THROW(RequestPool(0), std::invalid_argument);
  EXPECT_THROW(RequestPool(RequestPool::kNil), std::invalid_argument);
  EXPECT_NO_THROW(RequestPool(1));
}

// Slots are built 64 at a time as alloc() first reaches them, yet the pool
// must hand them out exactly as an eagerly built one does. The model is a
// plain-vector Treiber stack with initial links i -> i + 1; capacity 200
// ends in a short chunk. Phases alternate between filling (kNil must appear
// exactly at exhaustion) and draining, and free_count() must be exact at
// every step while only part of the storage is built.
TEST(RequestPool, AllocOrderMatchesAnEagerFreeListAcrossChunks) {
  constexpr std::uint32_t kCap = 200;
  constexpr std::uint32_t kNil = RequestPool::kNil;
  RequestPool pool(kCap);
  std::vector<std::uint32_t> next(kCap);
  for (std::uint32_t i = 0; i < kCap; ++i) next[i] = i + 1 < kCap ? i + 1 : kNil;
  std::uint32_t head = 0;
  std::vector<std::uint32_t> live;
  std::uint32_t reached = 0;  // slots ever handed out: 0..reached-1
  int exhaustions = 0;
  std::mt19937 rng(7);
  for (int step = 0; step < 20000; ++step) {
    const unsigned alloc_pct = step % 1000 < 500 ? 70 : 30;
    if (live.empty() || rng() % 100 < alloc_pct) {
      const std::uint32_t want = head;
      if (want != kNil) head = next[want];
      const std::uint32_t got = pool.alloc();
      ASSERT_EQ(got, want) << "step " << step;
      if (got == kNil) {
        ASSERT_EQ(live.size(), kCap) << "kNil before exhaustion";
        ++exhaustions;
      } else {
        live.push_back(got);
        reached = std::max(reached, got + 1);
      }
    } else {
      const std::size_t pick = rng() % live.size();
      const std::uint32_t idx = live[pick];
      live[pick] = live.back();
      live.pop_back();
      next[idx] = head;
      head = idx;
      pool.free(idx);
    }
    ASSERT_EQ(pool.free_count(), kCap - live.size()) << "step " << step;
    ASSERT_EQ(pool.committed_chunks(),
              std::max<std::size_t>(1, (reached + 63) / 64))
        << "step " << step;
  }
  EXPECT_GT(exhaustions, 0);
}

// Real-thread stress: N threads repeatedly alloc/free; every handed-out slot
// must be exclusively owned (no double allocation of a live slot).
TEST(RequestPool, ConcurrentAllocFreeStress) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  RequestPool pool(64);
  std::vector<std::atomic<int>> owner(64);
  for (auto& o : owner) o.store(-1);
  std::atomic<bool> start{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIters; ++i) {
        const std::uint32_t idx = pool.alloc();
        if (idx == RequestPool::kNil) continue;
        int expected = -1;
        if (!owner[idx].compare_exchange_strong(expected, t)) {
          violations.fetch_add(1);
        }
        owner[idx].store(-1);
        pool.free(idx);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(pool.free_count(), 64u);
}

// Real-thread stress across chunk installs: a fresh 1024-slot pool (chunk 0
// built eagerly, fifteen on first touch) per round, and four threads that
// each hold up to 200 slots at once, so concurrent allocs race to build the
// same chunk. Every slot must be exclusively owned, start not done, and
// carry its owner's completion; the pool must end whole, with storage built
// only up to the slots ever in use (at most 800 -> 13 chunks).
TEST(RequestPool, ConcurrentMultiChunkAllocFreeStress) {
  constexpr std::uint32_t kCap = 1024;
  constexpr int kThreads = 4;
  constexpr int kHold = 200;
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    RequestPool pool(kCap);
    std::vector<std::atomic<int>> owner(kCap);
    for (auto& o : owner) o.store(-1);
    std::atomic<bool> start{false};
    std::atomic<int> violations{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        while (!start.load(std::memory_order_acquire)) {}
        std::vector<std::uint32_t> held;
        for (int rep = 0; rep < 3; ++rep) {
          for (int h = 0; h < kHold; ++h) {
            const std::uint32_t idx = pool.alloc();
            if (idx == RequestPool::kNil) {
              violations.fetch_add(1);  // 800 held at most: never exhausted
              break;
            }
            int expected = -1;
            if (!owner[idx].compare_exchange_strong(expected, t)) {
              violations.fetch_add(1);
            }
            if (pool.done(idx)) violations.fetch_add(1);
            smpi::Status st;
            st.source = t;
            st.tag = static_cast<int>(idx);
            pool.complete(idx, st);
            held.push_back(idx);
          }
          for (const std::uint32_t idx : held) {
            if (!pool.done(idx) || pool.status(idx).source != t ||
                pool.status(idx).tag != static_cast<int>(idx)) {
              violations.fetch_add(1);
            }
            owner[idx].store(-1);
            pool.free(idx);
          }
          held.clear();
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();
    EXPECT_EQ(violations.load(), 0) << "round " << round;
    EXPECT_EQ(pool.free_count(), kCap);
    EXPECT_GE(pool.committed_chunks(), 4u);  // one thread alone holds 200
    EXPECT_LE(pool.committed_chunks(), 13u);
  }
}
