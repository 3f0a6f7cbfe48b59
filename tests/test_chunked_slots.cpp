// Tests for core::ChunkedSlots, the fixed-capacity slot array whose storage
// is built 64 entries at a time on first touch. The concurrent test uses
// real std::thread so a TSan build races the chunk install for real.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/chunked_slots.hpp"

namespace {

using Slots = core::ChunkedSlots<std::size_t>;

// Each entry starts as its own index plus a marker, so a test can tell an
// Init-written entry from a default-constructed one.
constexpr std::size_t kMark = 1000000;
void init_index(std::size_t& v, std::size_t i, std::size_t /*capacity*/) {
  v = kMark + i;
}

TEST(ChunkedSlots, BuildsChunkZeroEagerlyAndTheRestOnFirstTouch) {
  Slots s(200, &init_index);  // 64 + 64 + 64 + 8
  EXPECT_EQ(s.capacity(), 200u);
  EXPECT_EQ(s.chunk_count(), 4u);
  EXPECT_EQ(s.committed_chunks(), 1u);
  EXPECT_EQ(s.touch(63), kMark + 63);
  EXPECT_EQ(s.committed_chunks(), 1u);
  EXPECT_EQ(s.find(64), nullptr);
  EXPECT_EQ(s.find(199), nullptr);

  EXPECT_EQ(s.touch(199), kMark + 199);  // the short last chunk
  EXPECT_EQ(s.committed_chunks(), 2u);
  ASSERT_NE(s.find(192), nullptr);
  EXPECT_EQ(*s.find(192), kMark + 192);
  EXPECT_EQ(s.find(100), nullptr);  // chunk 1 is still unbuilt

  EXPECT_EQ(s.touch(64), kMark + 64);
  EXPECT_EQ(s.committed_chunks(), 3u);
}

TEST(ChunkedSlots, EntriesKeepTheirAddressAndValue) {
  Slots s(256, &init_index);
  std::size_t* p = &s.touch(130);
  *p = 7;
  s.touch(250);  // building another chunk moves nothing
  EXPECT_EQ(&s.touch(130), p);
  EXPECT_EQ(s.touch(130), 7u);
  EXPECT_EQ(s.find(130), p);
}

TEST(ChunkedSlots, WithoutInitEntriesAreValueInitialised) {
  Slots s(100);
  EXPECT_EQ(s.touch(0), 0u);
  EXPECT_EQ(s.touch(99), 0u);
  core::ChunkedSlots<std::vector<int>> v(100);
  v.touch(99).push_back(3);
  EXPECT_EQ(v.touch(99).size(), 1u);
}

TEST(ChunkedSlots, RejectsZeroCapacity) {
  EXPECT_THROW(Slots(0, &init_index), std::invalid_argument);
  EXPECT_NO_THROW(Slots(1, &init_index));
}

// Real-thread first touch: every thread touches every entry of a 16-chunk
// array in its own order, so most chunks are raced. Each entry must read
// its Init value, and all threads must agree on its address.
TEST(ChunkedSlots, ConcurrentFirstTouchInstallsOneChunk) {
  constexpr std::size_t kCap = 1024;
  constexpr int kThreads = 4;
  Slots s(kCap, &init_index);
  std::vector<std::vector<std::size_t*>> seen(
      kThreads, std::vector<std::size_t*>(kCap, nullptr));
  std::atomic<bool> start{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (std::size_t n = 0; n < kCap; ++n) {
        // Odd threads walk down, even threads up: chunks meet mid-build.
        const std::size_t i = (t % 2 == 0) ? n : kCap - 1 - n;
        std::size_t& v = s.touch(i);
        if (v != kMark + i) bad.fetch_add(1);
        seen[static_cast<std::size_t>(t)][i] = &v;
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(s.committed_chunks(), kCap / 64);
  for (std::size_t i = 0; i < kCap; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[static_cast<std::size_t>(t)][i], seen[0][i]) << i;
    }
  }
}

}  // namespace
