// Stackful fibers used as simulated hardware threads.
//
// Each fiber owns a private call stack and is cooperatively scheduled by the
// sim::Engine on a single OS thread. Fibers suspend only at explicit points
// (Engine::advance / block / yield), which makes simulated executions fully
// deterministic: interleaving is decided by the virtual-time event queue, not
// by the host scheduler.
//
// A fiber's stack is switched by sim::switch_context (sim/context.hpp): a
// register-only switch on x86-64, the POSIX context calls elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/context.hpp"

namespace sim {

class Engine;

/// Lifecycle of a fiber.
enum class FiberState : std::uint8_t {
  kCreated,   ///< spawned but never run
  kRunnable,  ///< scheduled in the event queue
  kRunning,   ///< currently executing on the host thread
  kBlocked,   ///< waiting for an explicit unblock (sync primitive)
  kDone,      ///< body returned
};

/// A cooperatively-scheduled simulated thread.
///
/// Fibers are created through Engine::spawn and owned by the engine; user
/// code only ever sees Fiber& / Fiber*.
class Fiber {
 public:
  using Body = std::function<void()>;

  Fiber(Engine* engine, std::uint64_t id, std::string name, Body body,
        std::size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] FiberState state() const { return state_; }
  [[nodiscard]] bool done() const { return state_ == FiberState::kDone; }

  /// Opaque per-fiber slot the MPI layer uses to attach a rank context.
  void set_user_data(void* p) { user_data_ = p; }
  [[nodiscard]] void* user_data() const { return user_data_; }

  /// Trace process id this fiber's events are attributed to (the simulated
  /// rank; set by whoever spawns the fiber, defaults to 0).
  void set_trace_pid(int pid) { trace_pid_ = pid; }
  [[nodiscard]] int trace_pid() const { return trace_pid_; }

 private:
  friend class Engine;

  /// Switch from the scheduler into this fiber. Returns when the fiber
  /// suspends or finishes.
  void switch_in(Context& from);
  /// Switch from this fiber back to the scheduler context.
  void switch_out(Context& to);

  void run_body();

  Engine* engine_;
  std::uint64_t id_;
  std::uint64_t sched_gen_ = 0;  ///< invalidates stale wake events
  std::string name_;
  Body body_;
  FiberState state_ = FiberState::kCreated;
  void* user_data_ = nullptr;
  int trace_pid_ = 0;

  FiberStack stack_;
  Context ctx_;
};

}  // namespace sim
