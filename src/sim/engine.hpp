// Deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock, an event queue ordered by
// (time, insertion sequence), and a set of fibers. Exactly one fiber runs at
// a time on the host thread; the engine interleaves them at their explicit
// suspension points. Timed callbacks model autonomous hardware (NIC DMA
// completion, wire delivery) that makes progress without occupying any
// simulated core.
//
// A fiber that knows its next few steps observe nothing (advance_steps) runs
// them as a step chain: every step still fires as an event in the position
// advance() would give it, but only the last one switches into the fiber.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace sim {

/// Statistics the engine keeps about a finished run; useful in tests and for
/// sanity-checking that experiment sizes stay tractable.
struct EngineStats {
  std::uint64_t events_fired = 0;
  std::uint64_t fibers_spawned = 0;
  std::uint64_t context_switches = 0;
};

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The engine currently executing a fiber on this host thread, or nullptr
  /// when called from outside Engine::run.
  static Engine* current();
  /// The fiber currently executing, or nullptr from scheduler context.
  Fiber* current_fiber() const { return current_fiber_; }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// Create a fiber that becomes runnable at the current virtual time.
  Fiber& spawn(std::string name, Fiber::Body body);
  /// Create a fiber that becomes runnable at time `start`.
  Fiber& spawn_at(Time start, std::string name, Fiber::Body body);

  /// Schedule `fn` to run in scheduler context at now()+delay.
  void call_at(Time when, std::function<void()> fn);
  void call_after(Time delay, std::function<void()> fn);

  // ---- Fiber-side API (must be called from a running fiber) ----

  /// Model computation: suspend the calling fiber and resume it `dt` later.
  void advance(Time dt);
  /// Exactly `n` back-to-back advance(dt) calls with no fiber code between
  /// them: each step fires as an event at the time and with the sequence
  /// number advance() would give it (events_fired counts it), but the fiber
  /// is switched back in only after the n-th. n = 0 is a no-op.
  void advance_steps(Time dt, std::uint64_t n);
  /// Reschedule the calling fiber at the current time, behind already-queued
  /// events (a cooperative yield).
  void yield();
  /// Suspend the calling fiber indefinitely; resumed by unblock().
  void block();
  /// Make a blocked fiber runnable at now()+delay. No-op if not blocked.
  void unblock(Fiber& f, Time delay = Time::zero());

  /// Run until the event queue empties. Returns the final virtual time.
  Time run();
  /// Run until the event queue empties or the clock passes `deadline`.
  Time run_until(Time deadline);

  /// True iff all spawned fibers have completed.
  [[nodiscard]] bool all_fibers_done() const;
  /// Names of fibers that have not finished (for deadlock diagnostics).
  [[nodiscard]] std::vector<std::string> unfinished_fibers() const;

  /// Record an exception thrown by a fiber body; run()/run_until() rethrows
  /// the first captured exception once the event loop stops.
  void capture_exception(std::exception_ptr e);

 private:
  friend class Fiber;

  /// One queued event: 32 trivially copyable bytes, so heap moves are plain
  /// copies. Callables live in callbacks_, not in the record.
  struct Event {
    Time when;
    std::uint64_t seq;
    Fiber* fiber;       // non-null: resume this fiber
    std::uint64_t aux;  // fiber: sched_gen_ it must still match to be live;
                        // callback: its slot in callbacks_

    bool operator>(const Event& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  /// The next step of an advance_steps chain: it fires at (when, seq);
  /// `left` counts it and the steps after it.
  struct Step {
    Time when;
    std::uint64_t seq;
    Fiber* fiber;
    std::uint64_t left;
  };
  /// The chains of one period `dt`. A step joins at now() + dt with the
  /// newest seq, and every queued step of the period joined no later, so
  /// appending keeps the FIFO in (when, seq) order.
  struct StepLane {
    Time dt;
    std::deque<Step> steps;
  };

  void schedule_fiber(Fiber& f, Time when);
  void dispatch(const Event& ev);
  /// Switch into `f` from the scheduler until it suspends again.
  void resume(Fiber& f);
  /// The lane whose front step fires first; step_chains_ must be nonzero.
  StepLane& next_step_lane();
  /// Fire the front step of `lane`: the chain's last step resumes its fiber,
  /// any other re-joins the lane one period later.
  void fire_step(StepLane& lane);

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  /// Step chains, one lane per distinct period (a handful at most), and
  /// how many chains they hold: zero keeps run_until on the heap alone.
  std::vector<StepLane> step_lanes_;
  std::size_t step_chains_ = 0;
  /// call_at callables by slot; a slot is cleared and recycled through
  /// free_callbacks_ as its event fires.
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint64_t> free_callbacks_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  Fiber* current_fiber_ = nullptr;
  Context scheduler_ctx_;
  bool running_ = false;
  std::exception_ptr first_error_;
  EngineStats stats_;
};

/// Convenience accessors for the ambient engine inside fiber code.
inline Time now() { return Engine::current()->now(); }
inline void advance(Time dt) { Engine::current()->advance(dt); }
inline void advance_steps(Time dt, std::uint64_t n) {
  Engine::current()->advance_steps(dt, n);
}
inline void yield() { Engine::current()->yield(); }

}  // namespace sim
