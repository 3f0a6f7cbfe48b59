#include "sim/context.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#define MO_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MO_SIM_ASAN 1
#endif
#endif

#if defined(MO_SIM_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// The x86-64 switch moves rsp without touching the CET shadow stack, so a
// process running with shadow stacks enabled would fault on the first
// return into a resumed fiber. src/CMakeLists.txt therefore compiles this
// file with -fcf-protection=branch: the object then carries no SHSTK
// property, and no binary linking it is marked shadow-stack compatible.
#if defined(__x86_64__) && defined(__CET__) && (__CET__ & 2)
#error "sim/context.cpp must not be compiled with -fcf-protection=return or =full"
#endif

namespace {

#if defined(MO_SIM_ASAN)
// The context the in-flight switch is leaving. Whichever context resumes
// stores the bounds ASan reports for it: that is how a thread's own stack,
// which make_context never saw, becomes known.
thread_local sim::Context* t_leaving = nullptr;

void announce_switch(sim::Context& from, const sim::Context& to) {
  t_leaving = &from;
  __sanitizer_start_switch_fiber(&from.fake_stack, to.stack, to.stack_bytes);
}

void finish_switch(void* fake_stack) {
  __sanitizer_finish_switch_fiber(fake_stack, &t_leaving->stack,
                                  &t_leaving->stack_bytes);
}
#else
void announce_switch(sim::Context&, const sim::Context&) {}
void finish_switch(void*) {}
#endif

void set_stack(sim::Context& ctx, void* stack, std::size_t stack_bytes) {
  ctx.stack = stack;
  ctx.stack_bytes = stack_bytes;
#if defined(MO_SIM_ASAN)
  // A recycled stack can still carry redzone poison from frames that were
  // abandoned mid-run.
  __asan_unpoison_memory_region(stack, stack_bytes);
#endif
}

}  // namespace

/// First code to run on a new context.
extern "C" [[noreturn]] __attribute__((visibility("hidden"))) void
mo_sim_context_start(sim::ContextEntry entry, void* arg) {
  finish_switch(nullptr);
  entry(arg);
  std::abort();  // entry returned: there is no caller to return to
}

#if defined(__x86_64__)

extern "C" {
// Pushes the callee-saved registers, MXCSR and the x87 control word, stores
// rsp to *save_sp, loads next_sp, and pops the same set from there.
__attribute__((visibility("hidden"))) void mo_sim_switch_stack(
    void** save_sp, void* next_sp) noexcept;
// Where a new context's first switch returns to: calls
// mo_sim_context_start(r12, r13) with a 16-byte-aligned stack.
__attribute__((visibility("hidden"))) void mo_sim_stack_start() noexcept;
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl mo_sim_switch_stack
  .hidden mo_sim_switch_stack
  .type mo_sim_switch_stack, @function
mo_sim_switch_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size mo_sim_switch_stack, .-mo_sim_switch_stack

  .p2align 4
  .globl mo_sim_stack_start
  .hidden mo_sim_stack_start
  .type mo_sim_stack_start, @function
mo_sim_stack_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  movq %r13, %rsi
  call mo_sim_context_start
  ud2
  .cfi_endproc
  .size mo_sim_stack_start, .-mo_sim_stack_start
  .popsection
)");

namespace sim {

void make_context(Context& ctx, void* stack, std::size_t stack_bytes,
                  ContextEntry entry, void* arg) {
  set_stack(ctx, stack, stack_bytes);
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
  // The frame mo_sim_switch_stack pops, lowest address first: MXCSR and
  // control word, r15, r14, r13, r12, rbx, rbp (0 ends frame-pointer
  // walks), return address. It sits 8 bytes below a 16-byte boundary, so
  // the start stub runs with rsp 16-aligned and its call enters
  // mo_sim_context_start exactly as the ABI requires.
  const std::uint64_t frame[8] = {
      mxcsr | (std::uint64_t{fpucw} << 32),
      0,
      0,
      reinterpret_cast<std::uint64_t>(arg),
      reinterpret_cast<std::uint64_t>(entry),
      0,
      0,
      reinterpret_cast<std::uint64_t>(&mo_sim_stack_start),
  };
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack) + stack_bytes) &
      ~std::uintptr_t{15};
  void* sp = reinterpret_cast<void*>(top - sizeof frame);
  std::memcpy(sp, frame, sizeof frame);
  ctx.sp = sp;
}

void switch_context(Context& from, Context& to) {
  announce_switch(from, to);
  mo_sim_switch_stack(&from.sp, to.sp);
  finish_switch(from.fake_stack);
}

}  // namespace sim

#else  // !__x86_64__: POSIX ucontext

namespace {

// makecontext passes only int arguments: each pointer travels as two halves.
void ucontext_start(unsigned entry_hi, unsigned entry_lo, unsigned arg_hi,
                    unsigned arg_lo) {
  const auto join = [](unsigned hi, unsigned lo) {
    return static_cast<std::uintptr_t>((std::uint64_t{hi} << 32) | lo);
  };
  mo_sim_context_start(
      reinterpret_cast<sim::ContextEntry>(join(entry_hi, entry_lo)),
      reinterpret_cast<void*>(join(arg_hi, arg_lo)));
}

}  // namespace

namespace sim {

void make_context(Context& ctx, void* stack, std::size_t stack_bytes,
                  ContextEntry entry, void* arg) {
  set_stack(ctx, stack, stack_bytes);
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = stack_bytes;
  ctx.uc.uc_link = nullptr;
  const auto e = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(entry));
  const auto a = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(arg));
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&ucontext_start), 4,
              static_cast<unsigned>(e >> 32), static_cast<unsigned>(e),
              static_cast<unsigned>(a >> 32), static_cast<unsigned>(a));
}

void switch_context(Context& from, Context& to) {
  announce_switch(from, to);
  swapcontext(&from.uc, &to.uc);
  finish_switch(from.fake_stack);
}

}  // namespace sim

#endif
