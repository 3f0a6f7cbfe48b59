// Stack switching: the one place that decides how a cooperative thread's
// call stack is suspended and resumed. sim::Fiber and the model checker's
// scheduler (chk::Checker) both run on these two calls.
//
// x86-64: a SysV register switch (context.cpp). It saves exactly what the
// ABI makes callee-saved — rbx, rbp, r12-r15, rsp, MXCSR and the x87
// control word — so a switch is a few dozen instructions, with none of
// glibc swapcontext's signal-mask syscall or full FP-environment save. It
// does not maintain a CET shadow stack; the build keeps its object from
// claiming shadow-stack compatibility. Every other architecture falls back to the POSIX context
// calls behind the same interface. The compiler's target macro picks the
// branch.
//
// Under AddressSanitizer every switch is announced with
// __sanitizer_start/finish_switch_fiber, so ASan knows which stack is live
// (exceptions thrown on a fiber stack unpoison the right range).
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace sim {

/// A suspended (or not yet started) execution context. Default-constructed,
/// it is a slot that switch_context fills with the running context.
struct Context {
#if defined(__x86_64__)
  void* sp = nullptr;  ///< saved stack pointer; registers are on the stack
#else
  ucontext_t uc{};
#endif
  // Stack bounds and fake-stack handle, read only under ASan. A thread's
  // own stack starts unknown and is learned at its first switch.
  const void* stack = nullptr;
  std::size_t stack_bytes = 0;
  void* fake_stack = nullptr;
};

using ContextEntry = void (*)(void* arg);

/// A call stack for make_context: `bytes` rounded up to whole pages of
/// anonymous memory from mmap, with one PROT_NONE guard page below it, so a
/// context that overruns its stack faults at once instead of writing into
/// a neighbouring mapping. Each stack costs two VMAs (guard and stack).
/// Throws std::system_error when the mapping fails.
class FiberStack {
 public:
  explicit FiberStack(std::size_t bytes);
  ~FiberStack();

  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Lowest usable address; the stack grows down towards the guard page.
  [[nodiscard]] void* base() const { return base_; }
  [[nodiscard]] std::size_t size() const { return bytes_; }

 private:
  void* map_ = nullptr;  ///< guard page, then the stack
  std::size_t map_bytes_ = 0;
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Prepare `ctx` so that the first switch_context to it runs entry(arg) on
/// [stack, stack + stack_bytes), starting with the caller's floating-point
/// control state. The caller owns the stack; it must outlive every switch
/// into `ctx`. `entry` must not return: it ends by switching away for good.
void make_context(Context& ctx, void* stack, std::size_t stack_bytes,
                  ContextEntry entry, void* arg);

/// Save the running context into `from` and resume `to`. Returns when some
/// context switches back to `from`.
void switch_context(Context& from, Context& to);

}  // namespace sim
