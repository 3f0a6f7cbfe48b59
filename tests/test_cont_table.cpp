// ContTable unit + stress coverage. The stress tests use real std::thread
// (not sim fibers) so the TSan CI job exercises the claim CAS under genuine
// concurrency — keep test names matching `ContTable` (the TSan job's filter).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/cont_table.hpp"

using core::ContTable;

TEST(ContTable, ArmThenFireHandsCallbackToCompleter) {
  ContTable t(4);
  EXPECT_FALSE(t.arm(0));  // claim won: completer will run it
  EXPECT_TRUE(t.fire(0));  // completion finds the armed claim: run it
  EXPECT_EQ(t.state_of(0), ContTable::kArmed);
}

TEST(ContTable, FireThenArmHandsCallbackToAttacher) {
  ContTable t(4);
  EXPECT_FALSE(t.fire(1));  // completion first: nothing armed yet
  EXPECT_TRUE(t.arm(1));    // late attach runs inline
  EXPECT_EQ(t.state_of(1), ContTable::kFired);
}

TEST(ContTable, ResetRecyclesTheSlot) {
  ContTable t(2);
  EXPECT_FALSE(t.arm(0));
  EXPECT_TRUE(t.fire(0));
  t.reset(0);
  EXPECT_EQ(t.state_of(0), ContTable::kIdle);
  // The recycled slot races fresh.
  EXPECT_FALSE(t.fire(0));
  EXPECT_TRUE(t.arm(0));
}

TEST(ContTable, SlotsAreIndependent) {
  ContTable t(3);
  EXPECT_FALSE(t.arm(0));
  EXPECT_FALSE(t.fire(1));
  EXPECT_EQ(t.state_of(0), ContTable::kArmed);
  EXPECT_EQ(t.state_of(1), ContTable::kFired);
  EXPECT_EQ(t.state_of(2), ContTable::kIdle);
}

TEST(ContTable, UntouchedSlotsReadIdleWithoutBuildingStorage) {
  ContTable t(4096);
  EXPECT_EQ(t.committed_chunks(), 1u);
  EXPECT_EQ(t.state_of(4000), ContTable::kIdle);
  EXPECT_EQ(t.committed_chunks(), 1u);  // state_of builds nothing
  EXPECT_FALSE(t.fire(4000));            // a first fire builds the chunk
  EXPECT_EQ(t.committed_chunks(), 2u);
  EXPECT_EQ(t.state_of(4000), ContTable::kFired);
  EXPECT_EQ(t.state_of(4001), ContTable::kIdle);
}

TEST(ContTable, RejectsZeroCapacity) {
  EXPECT_THROW(ContTable(0), std::invalid_argument);
  EXPECT_NO_THROW(ContTable(1));
}

TEST(ContTable, StressExactlyOneRunnerPerSlot) {
  // Two real threads race arm() vs fire() over many slots; exactly one side
  // must be told to run the callback for every slot, and the loser must see
  // the winner's pre-claim publication (TSan checks the edge).
  constexpr std::uint32_t kSlots = 4096;
  ContTable t(kSlots);
  std::vector<int> armed_payload(kSlots, 0);
  std::vector<int> fired_payload(kSlots, 0);
  std::atomic<std::uint64_t> runs{0};

  std::thread completer([&] {
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      fired_payload[i] = 1;  // publish before the claim
      if (t.fire(i)) {
        EXPECT_EQ(armed_payload[i], 1);  // attacher's publication visible
        runs.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread attacher([&] {
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      armed_payload[i] = 1;
      if (t.arm(i)) {
        EXPECT_EQ(fired_payload[i], 1);  // completer's publication visible
        runs.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  completer.join();
  attacher.join();

  // Every slot was claimed by one side and run by the other — never zero,
  // never twice.
  EXPECT_EQ(runs.load(), kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    EXPECT_NE(t.state_of(i), ContTable::kIdle);
  }
}

TEST(ContTable, StressRecycledSlotsStayExactlyOnce) {
  // Round-based reuse of a tiny table: reset() between rounds must not let a
  // stale claim leak into the next round.
  constexpr std::uint32_t kSlots = 8;
  constexpr int kRounds = 2000;
  ContTable t(kSlots);
  std::atomic<std::uint64_t> runs{0};
  std::atomic<int> round_gate{0};

  auto body = [&](bool completer) {
    for (int r = 0; r < kRounds; ++r) {
      // Spin until both threads entered the round (the single writer of
      // round_gate is the completer after reset below).
      while (round_gate.load(std::memory_order_acquire) < r) {
      }
      for (std::uint32_t i = 0; i < kSlots; ++i) {
        const bool run = completer ? t.fire(i) : t.arm(i);
        if (run) runs.fetch_add(1, std::memory_order_relaxed);
      }
      if (completer) {
        // Both sides done with round r once every slot is claimed twice,
        // i.e. the attacher also finished — wait for its half of the runs.
        while (runs.load(std::memory_order_acquire) <
               static_cast<std::uint64_t>(r + 1) * kSlots) {
        }
        for (std::uint32_t i = 0; i < kSlots; ++i) t.reset(i);
        round_gate.store(r + 1, std::memory_order_release);
      }
    }
  };
  std::thread completer([&] { body(true); });
  std::thread attacher([&] { body(false); });
  completer.join();
  attacher.join();
  EXPECT_EQ(runs.load(), static_cast<std::uint64_t>(kRounds) * kSlots);
}
