// Virtual-time synchronization primitives for fibers.
//
// These mirror the semantics of their pthread/OpenMP counterparts but operate
// on the simulated clock:
//  * Mutex       — FIFO fairness, optional acquire cost; models a contended
//                  pthread mutex / MPI "big lock".
//  * Barrier     — OpenMP-style thread-team barrier with per-entry cost.
//  * Notifier    — a monotonically-counted event channel that models a
//                  spin-wait: the waiter observes a new event only after a
//                  configurable detection latency (the spin-poll granularity
//                  of a real polling thread).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "san/san.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace sim {

/// FIFO mutex in virtual time. `hold` costs are modeled by the caller
/// advancing the clock while holding the lock.
class Mutex {
 public:
  explicit Mutex(Time acquire_cost = Time::zero())
      : acquire_cost_(acquire_cost) {}

  /// Acquire; blocks the calling fiber until the mutex is free. Charges
  /// `acquire_cost` of CPU time on every successful acquisition (atomic RMW
  /// plus possible cache-line transfer on real hardware).
  void lock() {
    Engine* e = Engine::current();
    Fiber* self = e->current_fiber();
    if (holder_ != nullptr) {
      waiters_.push_back(self);
      e->block();
      // Ownership is transferred to us by unlock() before we are resumed.
      if (holder_ != self) throw std::logic_error("mutex handoff violated");
    } else {
      holder_ = self;
    }
    san::acquire(this);  // HB edge: everything before the last unlock()
    if (acquire_cost_ > Time::zero()) e->advance(acquire_cost_);
  }

  /// Try to acquire without blocking; charges acquire cost only on success.
  bool try_lock() {
    Engine* e = Engine::current();
    if (holder_ != nullptr) return false;
    holder_ = e->current_fiber();
    san::acquire(this);
    if (acquire_cost_ > Time::zero()) e->advance(acquire_cost_);
    return true;
  }

  void unlock() {
    Engine* e = Engine::current();
    if (holder_ != e->current_fiber()) {
      throw std::logic_error("mutex unlocked by non-holder");
    }
    san::release(this);  // publish the critical section to the next holder
    if (waiters_.empty()) {
      holder_ = nullptr;
    } else {
      Fiber* next = waiters_.front();
      waiters_.pop_front();
      holder_ = next;  // direct handoff keeps FIFO fairness
      e->unblock(*next);
    }
  }

  [[nodiscard]] bool locked() const { return holder_ != nullptr; }

 private:
  Time acquire_cost_;
  Fiber* holder_ = nullptr;
  std::deque<Fiber*> waiters_;
};

/// RAII lock guard for sim::Mutex.
class LockGuard {
 public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// Team barrier: the `n`-th arriving fiber releases everyone. Each passage
/// charges `entry_cost` (the tree/atomic work of a real barrier).
class Barrier {
 public:
  explicit Barrier(int parties, Time entry_cost = Time::zero())
      : parties_(parties), entry_cost_(entry_cost) {}

  /// Returns the arrival index (0-based) within this generation.
  int arrive_and_wait() {
    Engine* e = Engine::current();
    if (entry_cost_ > Time::zero()) e->advance(entry_cost_);
    // Every arrival joins all earlier arrivals and publishes itself; the
    // releasing unblock()s then carry the joined clock to every waiter, so
    // a barrier is a full HB fence across the team.
    san::acquire(this);
    san::release(this);
    int idx = arrived_++;
    if (arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      for (Fiber* f : waiters_) e->unblock(*f);
      waiters_.clear();
    } else {
      std::uint64_t gen = generation_;
      waiters_.push_back(e->current_fiber());
      e->block();
      if (gen == generation_) throw std::logic_error("spurious barrier wake");
    }
    return idx;
  }

  [[nodiscard]] int parties() const { return parties_; }

 private:
  int parties_;
  Time entry_cost_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<Fiber*> waiters_;
};

/// Event-counting channel modeling a polled flag / doorbell.
///
/// A producer calls signal(); a consumer spin-waiting on the channel is woken
/// `detect_latency` later — the average delay before a real spinning thread's
/// next poll observes the store. wait_for_signal() returns immediately if
/// signals arrived since the consumer's last observation, so no event is ever
/// lost.
class Notifier {
 public:
  explicit Notifier(Time detect_latency = Time::from_ns(30))
      : detect_latency_(detect_latency) {}

  void signal() {
    ++count_;
    san::release(this);  // a poller observing count() acquires this history
    Engine* e = Engine::current();
    for (Fiber* f : waiters_) e->unblock(*f, detect_latency_);
    waiters_.clear();
  }

  /// Current number of signals ever issued; consumers diff against their own
  /// cursor to detect novelty without blocking.
  [[nodiscard]] std::uint64_t count() const {
    san::acquire(this);
    return count_;
  }

  /// Block until count() exceeds `seen`. Returns the new count.
  std::uint64_t wait_beyond(std::uint64_t seen) {
    Engine* e = Engine::current();
    while (count_ <= seen) {
      waiters_.push_back(e->current_fiber());
      e->block();
    }
    san::acquire(this);
    return count_;
  }

  /// Block until count() exceeds `seen` or `timeout` elapses. Returns true
  /// if a signal was observed (count() > seen).
  bool wait_beyond_timeout(std::uint64_t seen, Time timeout) {
    Engine* e = Engine::current();
    if (count_ > seen) {
      san::acquire(this);
      return true;
    }
    Fiber* self = e->current_fiber();
    waiters_.push_back(self);
    auto live = std::make_shared<bool>(true);
    e->call_after(timeout, [e, self, live]() {
      if (*live) e->unblock(*self);
    });
    e->block();
    *live = false;
    // If the timeout (not signal()) woke us, we are still registered.
    std::erase(waiters_, self);
    if (count_ > seen) {
      san::acquire(this);
      return true;
    }
    return false;
  }

  [[nodiscard]] Time detect_latency() const { return detect_latency_; }

 private:
  Time detect_latency_;
  std::uint64_t count_ = 0;
  std::vector<Fiber*> waiters_;
};

}  // namespace sim
