#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "san/san.hpp"
#include "trace/tracer.hpp"

namespace sim {

namespace {
thread_local Engine* g_current_engine = nullptr;
constexpr std::size_t kDefaultStackBytes = 128 * 1024;

// The fiber occupies its simulated core for [now, now+dt): one complete
// slice on the fiber's track ("where does the CPU time go").
void trace_cpu(Time now, Time dt, const Fiber& f) {
  if (trace::Tracer::on() && dt > Time::zero()) {
    trace::Tracer::instance().complete(now.ns(), dt.ns(), f.trace_pid(),
                                       f.id() + 1, "cpu", "sim");
  }
}
}  // namespace

std::string Time::str() const {
  char buf[64];
  if (ns_ >= 1000000000) {
    std::snprintf(buf, sizeof buf, "%.3fs", sec());
  } else if (ns_ >= 1000000) {
    std::snprintf(buf, sizeof buf, "%.3fms", ms());
  } else if (ns_ >= 1000) {
    std::snprintf(buf, sizeof buf, "%.3fus", us());
  } else {
    std::snprintf(buf, sizeof buf, "%ldns", static_cast<long>(ns_));
  }
  return buf;
}

// ---------------------------------------------------------------- Fiber ----

Fiber::Fiber(Engine* engine, std::uint64_t id, std::string name, Body body,
             std::size_t stack_bytes)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(stack_bytes) {
  make_context(
      ctx_, stack_.base(), stack_.size(),
      [](void* self) { static_cast<Fiber*>(self)->run_body(); }, this);
}

Fiber::~Fiber() = default;

void Fiber::run_body() {
  try {
    body_();
  } catch (...) {
    engine_->capture_exception(std::current_exception());
  }
  state_ = FiberState::kDone;
  // Return control to the scheduler permanently: a done fiber is never
  // resumed.
  switch_context(ctx_, engine_->scheduler_ctx_);
}

void Fiber::switch_in(Context& from) {
  state_ = FiberState::kRunning;
  switch_context(from, ctx_);
}

void Fiber::switch_out(Context& to) { switch_context(ctx_, to); }

// --------------------------------------------------------------- Engine ----

Engine::Engine() = default;
Engine::~Engine() = default;

Engine* Engine::current() { return g_current_engine; }

Fiber& Engine::spawn(std::string name, Fiber::Body body) {
  return spawn_at(now_, std::move(name), std::move(body));
}

Fiber& Engine::spawn_at(Time start, std::string name, Fiber::Body body) {
  fibers_.push_back(std::make_unique<Fiber>(this, fibers_.size(),
                                            std::move(name), std::move(body),
                                            kDefaultStackBytes));
  ++stats_.fibers_spawned;
  Fiber& f = *fibers_.back();
  san::on_fork(f.id() + 1, f.name().c_str());
  schedule_fiber(f, start);
  return f;
}

void Engine::call_at(Time when, std::function<void()> fn) {
  assert(when >= now_ && "scheduling into the past");
  std::uint64_t slot = 0;
  if (free_callbacks_.empty()) {
    slot = callbacks_.size();
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  san::event_post(next_seq_);  // snapshot the poster's clock under this seq
  events_.push(Event{when, next_seq_++, nullptr, slot});
}

void Engine::call_after(Time delay, std::function<void()> fn) {
  call_at(now_ + delay, std::move(fn));
}

void Engine::schedule_fiber(Fiber& f, Time when) {
  assert(when >= now_ && "scheduling into the past");
  f.state_ = FiberState::kRunnable;
  f.sched_gen_ += 1;
  events_.push(Event{when, next_seq_++, &f, f.sched_gen_});
}

void Engine::advance(Time dt) {
  Fiber* f = current_fiber_;
  assert(f != nullptr && "advance() called outside a fiber");
  assert(dt >= Time::zero() && "negative advance");
  trace_cpu(now_, dt, *f);
  schedule_fiber(*f, now_ + dt);
  f->switch_out(scheduler_ctx_);
}

void Engine::advance_steps(Time dt, std::uint64_t n) {
  if (n <= 1) {
    if (n == 1) advance(dt);
    return;
  }
  Fiber* f = current_fiber_;
  assert(f != nullptr && "advance_steps() called outside a fiber");
  assert(dt >= Time::zero() && "negative advance");
  trace_cpu(now_, dt, *f);
  auto lane = std::find_if(step_lanes_.begin(), step_lanes_.end(),
                           [dt](const StepLane& l) { return l.dt == dt; });
  if (lane == step_lanes_.end()) {
    lane = step_lanes_.insert(lane, StepLane{dt, {}});
  }
  // The first step draws the seq the first advance(dt) would have drawn. The
  // fiber is runnable (unblock() leaves it alone) and no queued wake of it
  // stays live, as after schedule_fiber.
  f->state_ = FiberState::kRunnable;
  f->sched_gen_ += 1;
  lane->steps.push_back(Step{now_ + dt, next_seq_++, f, n});
  ++step_chains_;
  f->switch_out(scheduler_ctx_);
}

void Engine::yield() { advance(Time::zero()); }

void Engine::block() {
  Fiber* f = current_fiber_;
  assert(f != nullptr && "block() called outside a fiber");
  f->state_ = FiberState::kBlocked;
  f->switch_out(scheduler_ctx_);
}

void Engine::unblock(Fiber& f, Time delay) {
  if (f.state_ != FiberState::kBlocked) return;
  san::on_wake(f.id() + 1);  // the waker's history reaches the woken fiber
  schedule_fiber(f, now_ + delay);
}

void Engine::resume(Fiber& f) {
  current_fiber_ = &f;
  ++stats_.context_switches;
  if (trace::Tracer::on()) {
    trace::Tracer::instance().instant(now_.ns(), f.trace_pid(), f.id() + 1,
                                      "ctx", "sim");
  }
  san::on_switch(f.id() + 1, f.name().c_str(), now_.ns());
  f.switch_in(scheduler_ctx_);
  current_fiber_ = nullptr;
}

void Engine::dispatch(const Event& ev) {
  now_ = ev.when;
  ++stats_.events_fired;
  if (ev.fiber != nullptr) {
    // A fiber may have been re-scheduled and then blocked again before this
    // event fires; only resume if it is still runnable for this event.
    if (ev.fiber->state_ != FiberState::kRunnable ||
        ev.fiber->sched_gen_ != ev.aux) {
      return;
    }
    resume(*ev.fiber);
  } else {
    // Take the callable out and free its slot before the call: the callback
    // may schedule callbacks that grow the slab under it, and its captures
    // (a delivery's message, say) must die when it returns.
    std::function<void()> fn = std::move(callbacks_[ev.aux]);
    callbacks_[ev.aux] = nullptr;
    free_callbacks_.push_back(ev.aux);
    san::event_fire(ev.seq, now_.ns());
    fn();
  }
}

Engine::StepLane& Engine::next_step_lane() {
  StepLane* best = nullptr;
  for (StepLane& l : step_lanes_) {
    if (l.steps.empty()) continue;
    if (best == nullptr) {
      best = &l;
      continue;
    }
    const Step& a = l.steps.front();
    const Step& b = best->steps.front();
    if (a.when < b.when || (a.when == b.when && a.seq < b.seq)) best = &l;
  }
  assert(best != nullptr && "no step chain queued");
  return *best;
}

void Engine::fire_step(StepLane& lane) {
  Step s = lane.steps.front();
  lane.steps.pop_front();
  now_ = s.when;
  ++stats_.events_fired;
  if (--s.left == 0) {
    --step_chains_;
    resume(*s.fiber);  // may add a lane: `lane` is not used past this
    return;
  }
  // No fiber code runs between steps (hence no san::on_switch): the next
  // step joins at the time and with the seq the fiber's next advance(dt)
  // would have drawn here.
  trace_cpu(now_, lane.dt, *s.fiber);
  s.when = now_ + lane.dt;
  s.seq = next_seq_++;
  lane.steps.push_back(s);
}

Time Engine::run() { return run_until(Time::max()); }

Time Engine::run_until(Time deadline) {
  if (running_) throw std::logic_error("Engine::run is not reentrant");
  running_ = true;
  Engine* prev = g_current_engine;
  g_current_engine = this;
  for (;;) {
    // The least of the heap top and the step lanes' fronts fires next.
    if (step_chains_ != 0) {
      StepLane& lane = next_step_lane();
      const Step& s = lane.steps.front();
      if (events_.empty() || s.when < events_.top().when ||
          (s.when == events_.top().when && s.seq < events_.top().seq)) {
        if (s.when > deadline) break;
        fire_step(lane);
        continue;
      }
    }
    if (events_.empty()) break;
    const Event ev = events_.top();
    if (ev.when > deadline) break;
    events_.pop();
    dispatch(ev);
  }
  g_current_engine = prev;
  running_ = false;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
  return now_;
}

void Engine::capture_exception(std::exception_ptr e) {
  if (!first_error_) first_error_ = std::move(e);
}

bool Engine::all_fibers_done() const {
  for (const auto& f : fibers_) {
    if (!f->done()) return false;
  }
  return true;
}

std::vector<std::string> Engine::unfinished_fibers() const {
  std::vector<std::string> out;
  for (const auto& f : fibers_) {
    if (!f->done()) out.push_back(f->name());
  }
  return out;
}

}  // namespace sim
