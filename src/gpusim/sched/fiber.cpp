#include "gpusim/sched/fiber.hpp"

#include <cstdint>
#include <cstring>

#include "common/error.hpp"

#if defined(SPADEN_FIBER_FAST)
// void spaden_fiber_switch(void** save_sp, void* target_sp)
//
// Saves the System V callee-saved register frame on the current stack,
// publishes the resulting stack pointer through *save_sp, switches rsp to
// target_sp and restores the frame waiting there. Everything else (argument,
// scratch and vector registers) is caller-saved, so the compiler spills any
// value live across the call site on its own. The FP control words (mxcsr,
// x87 cw) are deliberately not switched: no simulator code changes rounding
// modes, so both sides always agree on the process defaults.
asm(R"(
.text
.align 16
.globl spaden_fiber_switch
.hidden spaden_fiber_switch
.type spaden_fiber_switch, @function
spaden_fiber_switch:
	pushq %rbp
	pushq %rbx
	pushq %r12
	pushq %r13
	pushq %r14
	pushq %r15
	movq %rsp, (%rdi)
	movq %rsi, %rsp
	popq %r15
	popq %r14
	popq %r13
	popq %r12
	popq %rbx
	popq %rbp
	ret
.size spaden_fiber_switch, . - spaden_fiber_switch
)");
extern "C" void spaden_fiber_switch(void** save_sp, void* target_sp);
#endif

namespace spaden::sim {

namespace {
/// Carries `this` into the entry trampoline (which portably takes no
/// arguments): written immediately before the first swap into a fiber, read
/// exactly once on the fiber's own stack. thread_local because each
/// simulation thread schedules its own fibers.
thread_local Fiber* t_starting_fiber = nullptr;

/// Canary words at the base (lowest addresses) of the stack — the direction
/// a downward-growing overflow runs into first. Two words so a single stray
/// 8-byte store cannot silently pass the check.
constexpr std::uint64_t kCanary0 = 0x5AFE'57AC'CA11'AB1Eull;
constexpr std::uint64_t kCanary1 = 0xF1BE'0F10'0DEA'D5EAull;
}  // namespace

Fiber::Fiber() : stack_(new char[kFiberStackBytes]) {}

void Fiber::write_canary() {
  std::memcpy(stack_.get(), &kCanary0, sizeof(kCanary0));
  std::memcpy(stack_.get() + sizeof(kCanary0), &kCanary1, sizeof(kCanary1));
}

void Fiber::check_canary() const {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  std::memcpy(&w0, stack_.get(), sizeof(w0));
  std::memcpy(&w1, stack_.get() + sizeof(w0), sizeof(w1));
  SPADEN_REQUIRE(w0 == kCanary0 && w1 == kCanary1,
                 "fiber stack overflow: a warp overran its %zu-byte stack "
                 "(raise kFiberStackBytes)",
                 kFiberStackBytes);
}

void Fiber::trampoline() {
  Fiber* self = t_starting_fiber;
  self->entry_(self->arg_);
  self->finished_ = true;
#if defined(SPADEN_FIBER_FAST)
  // Hand control back to the pending resume(). sp_ receives the dead
  // context's stack pointer, which the next start() discards.
  spaden_fiber_switch(&self->sp_, self->link_sp_);
  __builtin_unreachable();
#else
  // ucontext: returning runs uc_link (= link_), i.e. resumes resume().
#endif
}

void Fiber::start(Entry entry, void* arg) {
  SPADEN_REQUIRE(finished_, "Fiber::start while a previous entry is still suspended");
  entry_ = entry;
  arg_ = arg;
  write_canary();
#if defined(SPADEN_FIBER_FAST)
  // Build a frame at the top of the stack that spaden_fiber_switch can
  // "return" through: six callee-saved slots, then the trampoline as the
  // return address. Alignment: the top is rounded to 16 bytes and the frame
  // is 8 slots, so after the six pops and the ret the trampoline starts
  // with rsp % 16 == 8 — exactly the ABI state after a call instruction.
  char* top = stack_.get() + kFiberStackBytes;
  top -= reinterpret_cast<std::uintptr_t>(top) & 15;
  void** frame = reinterpret_cast<void**>(top);
  *--frame = nullptr;  // keeps the ret-target slot 16-byte aligned
  *--frame = reinterpret_cast<void*>(&Fiber::trampoline);
  for (int i = 0; i < 6; ++i) {
    *--frame = nullptr;  // rbp, rbx, r12..r15
  }
  sp_ = frame;
#else
  const int rc = getcontext(&ctx_);
  SPADEN_REQUIRE(rc == 0, "getcontext failed");
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = kFiberStackBytes;
  ctx_.uc_link = &link_;
  makecontext(&ctx_, &Fiber::trampoline, 0);
#endif
  started_ = false;
  finished_ = false;
}

bool Fiber::resume() {
  SPADEN_REQUIRE(!finished_, "Fiber::resume on a finished fiber");
  if (!started_) {
    started_ = true;
    t_starting_fiber = this;
  }
#if defined(SPADEN_FIBER_FAST)
  spaden_fiber_switch(&link_sp_, sp_);
#else
  const int rc = swapcontext(&link_, &ctx_);
  SPADEN_REQUIRE(rc == 0, "swapcontext into fiber failed");
#endif
  check_canary();
  return !finished_;
}

void Fiber::yield() {
#if defined(SPADEN_FIBER_FAST)
  spaden_fiber_switch(&sp_, link_sp_);
#else
  const int rc = swapcontext(&ctx_, &link_);
  SPADEN_REQUIRE(rc == 0, "swapcontext out of fiber failed");
#endif
}

}  // namespace spaden::sim
