// Tests for the lock-free MPSC command ring — including real-thread stress
// (the structure is genuinely concurrent; the simulator merely uses it from
// one host thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/mpsc_ring.hpp"

using core::MpscRing;

TEST(MpscRing, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(MpscRing<int>(3), std::invalid_argument);
  EXPECT_THROW(MpscRing<int>(0), std::invalid_argument);
  EXPECT_THROW(MpscRing<int>(1), std::invalid_argument);
  EXPECT_NO_THROW(MpscRing<int>(8));
}

TEST(MpscRing, FifoSingleThread) {
  MpscRing<int> q(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_EQ(q.size_approx(), 10u);
  int v = -1;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.empty_approx());
}

TEST(MpscRing, FullAndWrapAround) {
  MpscRing<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  int v;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.try_push(4));  // slot freed by the pop
  // Drain and verify order across the wrap.
  std::vector<int> got;
  while (q.try_pop(v)) got.push_back(v);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
}

TEST(MpscRing, ManyWrapArounds) {
  MpscRing<std::uint64_t> q(8);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(q.try_push(i));
    if (i % 3 == 2) {
      for (int k = 0; k < 3; ++k) {
        std::uint64_t v;
        ASSERT_TRUE(q.try_pop(v));
        ASSERT_EQ(v, expect++);
      }
    }
  }
}

// Cells are built 64 at a time as the ring first reaches them. A 256-cell
// ring (four chunks) goes empty and full with head and tail on a chunk
// boundary, then laps many times with bursts that cross boundaries mid-way.
TEST(MpscRing, LapsAcrossChunkBoundaries) {
  MpscRing<std::uint64_t> q(256);
  EXPECT_EQ(q.committed_chunks(), 1u);
  std::uint64_t in = 0, out = 0, v = 0;
  const auto push = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_TRUE(q.try_push(in++));
  };
  const auto pop = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(q.try_pop(v));
      ASSERT_EQ(v, out++);
    }
  };
  push(64);  // fills chunk 0 exactly; chunk 1 is not built yet
  EXPECT_EQ(q.committed_chunks(), 1u);
  pop(64);
  EXPECT_FALSE(q.try_pop(v));  // empty, head on the boundary
  push(256);
  EXPECT_FALSE(q.try_push(in));  // full, tail on the same boundary
  EXPECT_EQ(q.committed_chunks(), 4u);
  EXPECT_EQ(q.size_approx(), 256u);
  pop(256);
  EXPECT_FALSE(q.try_pop(v));
  for (std::uint64_t burst = 1; in < 20000; burst = burst % 97 + 13) {
    push(burst);
    pop(burst);
  }
  EXPECT_TRUE(q.empty_approx());
  EXPECT_EQ(q.committed_chunks(), 4u);
}

TEST(MpscRing, MoveOnlyPayload) {
  MpscRing<std::unique_ptr<int>> q(4);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(q.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 42);
}

// Real-thread stress: P producers push tagged sequences, one consumer checks
// per-producer FIFO and that nothing is lost or duplicated.
TEST(MpscRing, ConcurrentProducersStress) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscRing<std::uint64_t> q(1024);
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!start.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t tagged = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!q.try_push(tagged)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t received = 0;
  std::thread consumer([&] {
    while (!start.load(std::memory_order_acquire)) {}
    while (received < kProducers * kPerProducer) {
      std::uint64_t v;
      if (!q.try_pop(v)) {
        std::this_thread::yield();
        continue;
      }
      const auto p = static_cast<std::size_t>(v >> 32);
      const std::uint64_t seq = v & 0xffffffffu;
      ASSERT_LT(p, static_cast<std::size_t>(kProducers));
      ASSERT_EQ(seq, next[p]) << "per-producer FIFO violated";
      ++next[p];
      ++received;
    }
  });
  start.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[static_cast<std::size_t>(p)], kPerProducer);
}
