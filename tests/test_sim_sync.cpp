// Unit tests for virtual-time synchronization primitives.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

using namespace sim;
using namespace sim::literals;

TEST(Mutex, MutualExclusionAndFifoFairness) {
  Engine e;
  Mutex m;
  std::vector<int> order;
  int inside = 0;
  for (int i = 0; i < 4; ++i) {
    e.spawn("t" + std::to_string(i), [&, i] {
      advance(Time(i));  // stagger arrival => FIFO should preserve 0,1,2,3
      m.lock();
      EXPECT_EQ(inside, 0);
      ++inside;
      advance(10_us);
      --inside;
      order.push_back(i);
      m.unlock();
    });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(m.locked());
}

TEST(Mutex, AcquireCostIsCharged) {
  Engine e;
  Mutex m(500_ns);
  Time t;
  e.spawn("t", [&] {
    m.lock();
    t = now();
    m.unlock();
  });
  e.run();
  EXPECT_EQ(t.ns(), 500);
}

TEST(Mutex, TryLock) {
  Engine e;
  Mutex m;
  bool first = false, second = true;
  e.spawn("a", [&] {
    first = m.try_lock();
    advance(5_us);
    m.unlock();
  });
  e.spawn("b", [&] {
    advance(1_us);
    second = m.try_lock();  // held by a
  });
  e.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  Engine e;
  Barrier bar(3);
  std::vector<std::int64_t> release_times;
  for (int i = 0; i < 3; ++i) {
    e.spawn("t", [&, i] {
      advance(Time::from_us(static_cast<double>(i * 10)));
      bar.arrive_and_wait();
      release_times.push_back(now().ns());
    });
  }
  e.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (auto t : release_times) EXPECT_EQ(t, 20000);
}

TEST(Barrier, ReusableAcrossGenerations) {
  Engine e;
  Barrier bar(2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    e.spawn("t", [&, i] {
      for (int r = 0; r < 5; ++r) {
        advance(Time(100 * (i + 1)));
        bar.arrive_and_wait();
      }
      ++rounds_done;
    });
  }
  e.run();
  EXPECT_EQ(rounds_done, 2);
}

TEST(Notifier, SignalWakesAfterDetectLatency) {
  Engine e;
  Notifier n(50_ns);
  Time woke;
  e.spawn("w", [&] {
    n.wait_beyond(0);
    woke = now();
  });
  e.spawn("s", [&] {
    advance(1_us);
    n.signal();
  });
  e.run();
  EXPECT_EQ(woke.ns(), 1050);
}

TEST(Notifier, NoLostSignals) {
  Engine e;
  Notifier n(10_ns);
  std::uint64_t observed = 0;
  e.spawn("w", [&] {
    std::uint64_t seen = 0;
    while (observed < 3) {
      const std::uint64_t cur = n.wait_beyond(seen);
      observed += cur - seen;  // signals may batch between wakes
      seen = cur;
    }
  });
  e.spawn("s", [&] {
    // Two signals back-to-back before the waiter runs again, then one later.
    advance(1_us);
    n.signal();
    n.signal();
    advance(1_us);
    n.signal();
  });
  e.run();
  EXPECT_EQ(observed, 3u);
  EXPECT_EQ(n.count(), 3u);
}

TEST(Notifier, TimeoutFiresWithoutSignal) {
  Engine e;
  Notifier n(10_ns);
  bool got = true;
  Time woke;
  e.spawn("w", [&] {
    got = n.wait_beyond_timeout(0, 5_us);
    woke = now();
  });
  e.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(woke.ns(), 5000);
}

TEST(Notifier, TimeoutWaitStillSeesSignal) {
  Engine e;
  Notifier n(10_ns);
  bool got = false;
  e.spawn("w", [&] { got = n.wait_beyond_timeout(0, 100_us); });
  e.spawn("s", [&] {
    advance(2_us);
    n.signal();
  });
  e.run();
  EXPECT_TRUE(got);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Notifier, StaleTimeoutDoesNotCorruptLaterWaits) {
  Engine e;
  Notifier n(10_ns);
  std::vector<std::int64_t> wakes;
  e.spawn("w", [&] {
    // First wait times out at 1us; its (already-fired) callback must not
    // disturb the second wait which should end at the 8us signal.
    n.wait_beyond_timeout(0, 1_us);
    wakes.push_back(now().ns());
    n.wait_beyond(0);  // count becomes 1 at 8us
    wakes.push_back(now().ns());
  });
  e.spawn("s", [&] {
    advance(8_us);
    n.signal();
  });
  e.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], 1000);
  EXPECT_EQ(wakes[1], 8010);
}
