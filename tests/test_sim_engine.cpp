// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

using namespace sim;
using namespace sim::literals;

TEST(Time, ArithmeticAndConversions) {
  Time a = Time::from_us(1.5);
  EXPECT_EQ(a.ns(), 1500);
  EXPECT_DOUBLE_EQ(a.us(), 1.5);
  EXPECT_EQ((a + 500_ns).ns(), 2000);
  EXPECT_EQ((a - 500_ns).ns(), 1000);
  EXPECT_EQ((a * 2).ns(), 3000);
  EXPECT_LT(Time::zero(), a);
  EXPECT_EQ(Time::from_ms(1).ns(), 1000000);
  EXPECT_EQ(Time::from_sec(1).ns(), 1000000000);
}

TEST(Engine, AdvanceMovesVirtualClock) {
  Engine e;
  Time seen_before, seen_after;
  e.spawn("f", [&] {
    seen_before = now();
    advance(10_us);
    seen_after = now();
  });
  e.run();
  EXPECT_EQ(seen_before.ns(), 0);
  EXPECT_EQ(seen_after.ns(), 10000);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Engine, FibersInterleaveByTime) {
  Engine e;
  std::vector<int> order;
  e.spawn("a", [&] {
    advance(5_us);
    order.push_back(1);
    advance(10_us);
    order.push_back(3);
  });
  e.spawn("b", [&] {
    advance(8_us);
    order.push_back(2);
    advance(20_us);
    order.push_back(4);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(e.now().ns(), 28000);
}

TEST(Engine, SameTimeEventsFireInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.spawn("f" + std::to_string(i), [&order, i] {
      advance(Time::from_us(1));
      order.push_back(i);
    });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CallAtRunsCallbacksAtTheRightTime) {
  Engine e;
  std::vector<std::int64_t> at;
  e.call_at(5_us, [&] { at.push_back(Engine::current()->now().ns()); });
  e.call_at(2_us, [&] { at.push_back(Engine::current()->now().ns()); });
  e.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{2000, 5000}));
}

TEST(Engine, BlockAndUnblock) {
  Engine e;
  bool woke = false;
  Fiber* sleeper = nullptr;
  sleeper = &e.spawn("sleeper", [&] {
    Engine::current()->block();
    woke = true;
  });
  e.spawn("waker", [&] {
    advance(3_us);
    Engine::current()->unblock(*sleeper);
  });
  e.run();
  EXPECT_TRUE(woke);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Engine, DuplicateUnblockDoesNotDoubleResume) {
  Engine e;
  int resumes = 0;
  Fiber* sleeper = &e.spawn("sleeper", [&] {
    Engine::current()->block();
    ++resumes;
    Engine::current()->block();  // second sleep: must need a second unblock
    ++resumes;
  });
  e.spawn("waker", [&] {
    advance(1_us);
    Engine::current()->unblock(*sleeper);
    Engine::current()->unblock(*sleeper);  // stale duplicate
    advance(10_us);
    Engine::current()->unblock(*sleeper);
  });
  e.run();
  EXPECT_EQ(resumes, 2);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  e.spawn("t", [&] {
    for (int i = 0; i < 100; ++i) advance(1_ms);
  });
  const Time end = e.run_until(Time::from_ms(10));
  EXPECT_LE(end.ns(), Time::from_ms(11).ns());
  EXPECT_FALSE(e.all_fibers_done());
  EXPECT_EQ(e.unfinished_fibers().size(), 1u);
}

TEST(Engine, DeadlockedFibersAreNamedInDiagnostics) {
  // Classic AB-BA deadlock: run() returns once no event can fire, and
  // unfinished_fibers() must name exactly the stuck fibers so the user can
  // see who is blocked (and not the fiber that completed).
  Engine e;
  Mutex a;
  Mutex b;
  e.spawn("lock-a-then-b", [&] {
    a.lock();
    advance(1_us);  // guarantee both fibers hold their first mutex
    b.lock();
    b.unlock();
    a.unlock();
  });
  e.spawn("lock-b-then-a", [&] {
    b.lock();
    advance(1_us);
    a.lock();
    a.unlock();
    b.unlock();
  });
  e.spawn("bystander", [&] { advance(5_us); });
  e.run();

  EXPECT_FALSE(e.all_fibers_done());
  const std::vector<std::string> stuck = e.unfinished_fibers();
  ASSERT_EQ(stuck.size(), 2u);
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "lock-a-then-b"),
            stuck.end());
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "lock-b-then-a"),
            stuck.end());
  EXPECT_EQ(std::find(stuck.begin(), stuck.end(), "bystander"), stuck.end());
}

TEST(Engine, FiberStuckOnForeverHeldMutexIsReported) {
  Engine e;
  Mutex m;
  Mutex cv_m;
  CondVar never_signaled;
  e.spawn("holder", [&] {
    m.lock();  // held across the wait: progress hostage
    cv_m.lock();
    never_signaled.wait(cv_m);  // parks forever (releases only cv_m)
    cv_m.unlock();
    m.unlock();
  });
  e.spawn("blocked-on-mutex", [&] {
    advance(1_us);
    m.lock();
    m.unlock();
  });
  e.run();

  const std::vector<std::string> stuck = e.unfinished_fibers();
  ASSERT_EQ(stuck.size(), 2u);
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "holder"), stuck.end());
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "blocked-on-mutex"),
            stuck.end());
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    Rng rng(42);
    std::vector<std::int64_t> trace;
    for (int f = 0; f < 4; ++f) {
      e.spawn("f", [&, f] {
        Rng local(static_cast<std::uint64_t>(f) + 7);
        for (int i = 0; i < 50; ++i) {
          advance(Time(static_cast<std::int64_t>(local.next_below(1000) + 1)));
          trace.push_back(now().ns() * 10 + f);
        }
      });
    }
    e.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StatsCountEvents) {
  Engine e;
  e.spawn("f", [&] {
    for (int i = 0; i < 5; ++i) advance(1_us);
  });
  e.run();
  EXPECT_EQ(e.stats().fibers_spawned, 1u);
  EXPECT_GE(e.stats().events_fired, 6u);
}

TEST(Engine, ManyFibersLargeFanout) {
  Engine e;
  int done = 0;
  for (int i = 0; i < 2000; ++i) {
    e.spawn("w", [&, i] {
      advance(Time(i % 97));
      ++done;
    });
  }
  e.run();
  EXPECT_EQ(done, 2000);
}

// ---- Stack-switch contract (sim/context.hpp), checked through fibers ----

namespace {

// Address of a 16-byte-aligned local in a fresh frame. It is read back
// through a volatile so the compiler cannot fold the alignment it assumes.
[[gnu::noinline]] std::uintptr_t aligned_local_address() {
  alignas(16) char probe[16];
  volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(probe);
  return addr;
}

// Recurse `depth` frames, yield at the bottom, then throw `value`: the
// unwinder must walk frames that lived across a switch.
[[gnu::noinline]] void yield_then_throw(int depth, int value) {
  if (depth > 0) {
    yield_then_throw(depth - 1, value);
    return;
  }
  yield();
  throw std::runtime_error(std::to_string(value));
}

}  // namespace

TEST(FiberSwitch, StackIs16ByteAlignedAtEntryAndAfterResumes) {
  Engine e;
  int checks = 0;
  int misaligned = 0;
  for (int f = 0; f < 3; ++f) {
    e.spawn("f", [&, f] {
      misaligned += aligned_local_address() % 16 != 0;
      ++checks;
      for (int i = 0; i < 50; ++i) {
        advance(Time(1 + f));
        misaligned += aligned_local_address() % 16 != 0;
        ++checks;
      }
    });
  }
  e.run();
  EXPECT_EQ(checks, 3 * 51);
  EXPECT_EQ(misaligned, 0);
}

TEST(FiberSwitch, RoundingModeStaysWithItsFiber) {
  const int caller_mode = std::fegetround();
  ASSERT_NE(caller_mode, FE_UPWARD);
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;

  Engine e;
  int other_mode = -1;
  double other_third = 0.0;
  int resumed_mode = -1;
  double resumed_third = 0.0;
  e.spawn("upward", [&] {
    std::fesetround(FE_UPWARD);
    yield();  // "other" runs while this fiber is suspended
    resumed_mode = std::fegetround();
    resumed_third = one / three;
  });
  e.spawn("other", [&] {
    other_mode = std::fegetround();
    other_third = one / three;
  });
  e.run();
  const int after_run = std::fegetround();
  std::fesetround(caller_mode);

  EXPECT_EQ(after_run, caller_mode);
  EXPECT_EQ(other_mode, caller_mode);
  EXPECT_EQ(other_third, nearest_third);
  EXPECT_EQ(resumed_mode, FE_UPWARD);
  EXPECT_GT(resumed_third, nearest_third);  // SSE division rounded upward
}

TEST(FiberSwitch, ExceptionsCaughtInsideFibersSurviveManySwitches) {
  constexpr int kFibers = 4;
  constexpr int kRounds = 300;
  Engine e;
  std::vector<int> caught(kFibers, 0);
  for (int f = 0; f < kFibers; ++f) {
    e.spawn("thrower", [&caught, f] {
      for (int i = 0; i < kRounds; ++i) {
        const int value = f * kRounds + i;
        try {
          yield_then_throw(i % 8, value);
        } catch (const std::runtime_error& err) {
          if (std::stoi(err.what()) == value) ++caught[static_cast<std::size_t>(f)];
        }
        advance(Time(1 + f));
      }
    });
  }
  e.run();
  EXPECT_TRUE(e.all_fibers_done());
  for (int f = 0; f < kFibers; ++f) {
    EXPECT_EQ(caught[static_cast<std::size_t>(f)], kRounds) << "fiber " << f;
  }
}

TEST(FiberSwitch, EscapingExceptionIsRethrownByRunAfterOthersFinish) {
  Engine e;
  int finished = 0;
  for (int f = 0; f < 3; ++f) {
    e.spawn("worker", [&] {
      for (int i = 0; i < 100; ++i) yield();
      ++finished;
    });
  }
  e.spawn("fails", [] { yield_then_throw(4, 42); });
  std::string what;
  try {
    e.run();
  } catch (const std::runtime_error& err) {
    what = err.what();
  }
  EXPECT_EQ(what, "42");
  EXPECT_EQ(finished, 3);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(FiberSwitch, DeepStackSurvivesThousandsOfSwitches) {
  // Fibers get 128 KiB stacks; fill ~96 KiB of one and switch under it.
  constexpr std::size_t kBytes = 96 * 1024;
  constexpr int kSwitches = 4000;
  const auto pattern = [](std::size_t i) {
    return static_cast<unsigned char>(i * 131 + 7);
  };
  Engine e;
  std::size_t corrupted = kBytes;
  int shallow_runs = 0;
  e.spawn("deep", [&] {
    unsigned char buf[kBytes];
    volatile unsigned char* p = buf;
    for (std::size_t i = 0; i < kBytes; ++i) p[i] = pattern(i);
    for (int i = 0; i < kSwitches; ++i) yield();
    corrupted = 0;
    for (std::size_t i = 0; i < kBytes; ++i) corrupted += p[i] != pattern(i);
  });
  e.spawn("shallow", [&] {
    for (int i = 0; i < kSwitches; ++i) {
      ++shallow_runs;
      yield();
    }
  });
  e.run();
  EXPECT_EQ(corrupted, 0u);
  EXPECT_EQ(shallow_runs, kSwitches);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Rng, DeterministicAndRoughlyUniform) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
  Rng r(123);
  Stats s;
  for (int i = 0; i < 10000; ++i) s.add(r.next_double());
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
  EXPECT_GE(s.min(), 0.0);
  EXPECT_LT(s.max(), 1.0);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
}
