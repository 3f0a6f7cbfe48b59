// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "trace/tracer.hpp"

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

TEST(Engine, SameTimeWakesAndCallbacksFireInSchedulingOrder) {
  // Fiber wakes and call_at callbacks share one queue and one (time, seq)
  // order: scheduled interleaved for one timestamp, they fire as scheduled.
  Engine e;
  std::vector<int> order;
  std::vector<Fiber*> sleepers;
  for (int i = 0; i < 10; i += 2) {
    sleepers.push_back(&e.spawn("s" + std::to_string(i), [&order, i] {
      Engine::current()->block();
      order.push_back(i);
    }));
  }
  e.spawn("poster", [&] {
    advance(1_us);
    for (int i = 0; i < 10; ++i) {
      Engine* eng = Engine::current();
      if (i % 2 == 0) {
        eng->unblock(*sleepers[static_cast<std::size_t>(i / 2)], 3_us);
      } else {
        eng->call_after(3_us, [&order, i] { order.push_back(i); });
      }
    }
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(e.now().ns(), 4000);
}

TEST(Engine, CallbackThatGrowsTheQueueKeepsItsCaptures) {
  // The callback schedules 1500 callbacks, growing the callable storage
  // under it, and only then reads its captures. Its two-word closure sits
  // inside its std::function, so running it in place would read freed
  // storage (ASan reports it; plain builds read allocator metadata).
  Engine e;
  std::vector<int> fired;
  std::vector<int>* const sink = &fired;
  const int key = 0x5eed;
  e.call_at(1_us, [sink, key] {
    Engine* eng = Engine::current();
    for (int i = 0; i < 1500; ++i) {
      eng->call_after(1_us, [sink, i] { sink->push_back(i); });
    }
    sink->push_back(key);
  });
  e.run();
  ASSERT_EQ(fired.size(), 1501u);
  EXPECT_EQ(fired[0], 0x5eed);
  for (int i = 0; i < 1500; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
  }
}

TEST(Engine, CallbackCapturesDieWhenItReturns) {
  // A callback's captures are destroyed as soon as it has run — by the next
  // event, not when its storage happens to be reused. Delivery callbacks own
  // their message, so a lingering closure would keep it alive.
  Engine e;
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  long during = -1, next_event = -1;
  e.call_at(1_us, [token, &during, &watch] { during = watch.use_count(); });
  e.spawn_at(2_us, "next", [&] { next_event = watch.use_count(); });
  token.reset();
  e.run();
  EXPECT_EQ(during, 1);
  EXPECT_EQ(next_event, 0);
}

TEST(Engine, EventScheduledAfterADeadlineStopFiresFirst) {
  // run_until stops with the clock at the last event it fired. An event
  // scheduled then, at or after now() but before everything still queued,
  // is the first to fire when the run resumes.
  Engine e;
  std::vector<std::string> order;
  e.call_at(1_us, [&] { order.push_back("first"); });
  e.call_at(10_us, [&] { order.push_back("queued-cb"); });
  e.spawn_at(10_us, "queued-fiber", [&] { order.push_back("queued-fiber"); });
  e.run_until(5_us);
  EXPECT_EQ(e.now().ns(), 1000);
  EXPECT_EQ(order, (std::vector<std::string>{"first"}));
  e.call_at(e.now() + 2_us, [&] { order.push_back("later"); });
  e.call_at(e.now(), [&] { order.push_back("at-now"); });
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "at-now", "later",
                                             "queued-cb", "queued-fiber"}));
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
  Notifier never_signaled;
  e.spawn("holder", [&] {
    m.lock();  // held across the wait: progress hostage
    never_signaled.wait_beyond(0);  // parks forever
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

// ---- Step chains: advance_steps(dt, n) against n x advance(dt) ----

namespace {

struct StepRun {
  /// (virtual ns, actor) of every observable action, in dispatch order.
  std::vector<std::pair<std::int64_t, std::string>> log;
  /// (clock, log length) where each run_until segment stopped.
  std::vector<std::pair<std::int64_t, std::size_t>> stops;
  EngineStats stats;
  /// With the tracer on: every trace event but the "ctx" switch instants
  /// as (phase, track, start, duration, name), and how many of those
  /// instants there were.
  std::vector<std::tuple<char, std::uint64_t, std::int64_t, std::int64_t,
                         std::string>>
      trace;
  std::size_t ctx_instants = 0;
};

// Two fibers each run two chains of `n` steps, one with period 10 ns and one
// with 15 ns, so their steps tie at multiples of 30 ns. A ticker fiber wakes
// every 10 ns, on chain A's step times, and posts callbacks while the chains
// run: one for now (behind the step due now), one a period later (tying a
// later step). Callbacks posted before the run land on step times too, and
// one spawns a fiber mid-chain. `chained` picks advance_steps or the loop it
// abbreviates; the run stops at each of `deadlines` before running out.
StepRun run_step_scenario(std::uint64_t n, bool chained,
                          const std::vector<Time>& deadlines = {}) {
  Engine e;
  StepRun r;
  const auto note = [&r, &e](const std::string& who) {
    r.log.emplace_back(e.now().ns(), who);
  };
  const auto steps = [chained](Time dt, std::uint64_t k) {
    if (chained) {
      advance_steps(dt, k);
    } else {
      for (std::uint64_t i = 0; i < k; ++i) advance(dt);
    }
  };
  e.spawn("A", [&] {
    note("A0");
    steps(10_ns, n);
    note("A1");
    steps(10_ns, n);
    note("A2");
  });
  e.spawn("B", [&] {
    note("B0");
    steps(15_ns, n);
    note("B1");
    advance(5_ns);
    note("B2");
    steps(15_ns, n);
    note("B3");
  });
  e.spawn("ticker", [&] {
    for (int i = 0; i < 150; ++i) {
      note("tick");
      if (i % 7 == 3) e.call_after(0_ns, [&] { note("cb-now"); });
      if (i % 11 == 5) e.call_after(10_ns, [&] { note("cb-next"); });
      advance(10_ns);
    }
  });
  for (const std::int64_t t : {0, 20, 30, 45, 100, 640, 1270}) {
    e.call_at(Time(t), [&note, t] { note("pre" + std::to_string(t)); });
  }
  e.call_at(Time(330), [&] {
    note("spawn");
    e.spawn("late", [&] {
      note("late0");
      steps(10_ns, 3);
      note("late1");
    });
  });
  for (const Time d : deadlines) {
    e.run_until(d);
    r.stops.emplace_back(e.now().ns(), r.log.size());
  }
  e.run();
  r.stops.emplace_back(e.now().ns(), r.log.size());
  r.stats = e.stats();
  if (!trace::Tracer::on()) return r;
  for (const trace::Event& ev : trace::Tracer::instance().events()) {
    if (ev.name == "ctx") {
      ++r.ctx_instants;
    } else {
      r.trace.emplace_back(ev.ph, ev.tid, ev.ts_ns, ev.dur_ns, ev.name);
    }
  }
  trace::Tracer::instance().clear();
  return r;
}

/// Switches a chain of `n` steps saves: all but the last step's.
std::uint64_t saved_switches(std::uint64_t n) { return n < 2 ? 0 : n - 1; }

}  // namespace

TEST(StepChain, MatchesRepeatedAdvance) {
  for (const std::uint64_t n : {0, 1, 2, 64}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const StepRun want = run_step_scenario(n, false);
    const StepRun got = run_step_scenario(n, true);
    EXPECT_EQ(got.log, want.log);
    EXPECT_EQ(got.stops, want.stops);
    EXPECT_EQ(got.stats.events_fired, want.stats.events_fired);
    // Four chains of n steps plus the late fiber's chain of three.
    EXPECT_EQ(want.stats.context_switches - got.stats.context_switches,
              4 * saved_switches(n) + saved_switches(3));
  }
}

TEST(StepChain, TracesTheSameCpuSlicesWithoutTheSkippedSwitches) {
  trace::Tracer::instance().clear();
  trace::Tracer::set_enabled(true);
  const StepRun want = run_step_scenario(64, false);
  const StepRun got = run_step_scenario(64, true);
  trace::Tracer::set_enabled(false);
  EXPECT_FALSE(want.trace.empty());
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(want.ctx_instants - got.ctx_instants,
            4 * saved_switches(64) + saved_switches(3));
}

TEST(StepChain, DeadlinesInsideAChainStopWhereRepeatedAdvanceStops) {
  // A's first chain covers 0..640 ns; every deadline falls inside a chain
  // (one exactly on a step time) and the next run_until resumes it.
  const std::vector<Time> deadlines{255_ns, 300_ns, 333_ns, 900_ns};
  const StepRun want = run_step_scenario(64, false, deadlines);
  const StepRun got = run_step_scenario(64, true, deadlines);
  EXPECT_EQ(got.log, want.log);
  EXPECT_EQ(got.stops, want.stops);
  EXPECT_EQ(got.stats.events_fired, want.stats.events_fired);
  EXPECT_EQ(want.stats.context_switches - got.stats.context_switches,
            4 * saved_switches(64) + saved_switches(3));
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
  constexpr int kDraws = 10000;
  double sum = 0, lo = 1, hi = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = r.next_double();
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);
}

namespace {

/// Recurse until this frame sits `limit` bytes below `top` (or `depth`
/// frames deep), writing every frame so each page on the way down is
/// touched; frames stay well under a page, so none can skip a guard page.
/// The result depends on every frame, which keeps the recursion a recursion.
int descend(const char* top, std::size_t limit, int depth) {
  volatile char frame[256];
  for (volatile char& b : frame) b = static_cast<char>(depth);
  const auto* here = static_cast<const char*>(__builtin_frame_address(0));
  if (depth == 0 || static_cast<std::size_t>(top - here) > limit) {
    return frame[0];
  }
  return descend(top, limit, depth - 1) + frame[255];
}

}  // namespace

TEST(FiberStackDeathTest, OverrunFaultsOnTheGuardPage) {
  // A fiber's 128 KiB stack has a PROT_NONE page below it: running a few
  // KiB past the bottom must kill the process at once. Without the guard
  // the recursion writes into the stacks of the fibers spawned after it
  // (mapped just below, and finished by then) and the fiber exits cleanly.
  EXPECT_DEATH(
      {
        Engine e;
        e.spawn("overrun", [] {
          advance(1_us);
          const auto* top =
              static_cast<const char*>(__builtin_frame_address(0));
          (void)descend(top, 128 * 1024 + 8 * 1024, 1 << 16);
          std::_Exit(0);  // survived the overrun
        });
        for (int i = 0; i < 4; ++i) e.spawn("below", [] {});
        e.run();
      },
      "");
}
