#include "gpusim/sched/fiber.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "common/parse.hpp"

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
constexpr std::size_t kCanaryBytes = 2 * sizeof(std::uint64_t);

constexpr char kFillByte = '\xAB';

std::atomic<std::size_t> g_max_high_water{0};
}  // namespace

std::size_t default_fiber_stack_bytes() {
  static const std::size_t bytes = [] {
    const char* env = std::getenv("SPADEN_SIM_FIBER_STACK");
    if (env == nullptr || env[0] == '\0') {
      return kFiberStackBytes;
    }
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env) {
      return kFiberStackBytes;  // not a number: ignore, keep the default
    }
    if (*end == 'k' || *end == 'K') {
      v *= 1024ull;
    } else if (*end == 'm' || *end == 'M') {
      v *= 1024ull * 1024ull;
    }
    const unsigned long long lo = 16ull * 1024ull;
    const unsigned long long hi = 8ull * 1024ull * 1024ull;
    return static_cast<std::size_t>(std::clamp(v, lo, hi));
  }();
  return bytes;
}

bool Fiber::stack_debug() {
  static const bool on = env_flag("SPADEN_SIM_FIBER_STACK_DEBUG");
  return on;
}

Fiber::Fiber(std::size_t stack_bytes)
    : stack_(new char[stack_bytes]), stack_bytes_(stack_bytes) {
  SPADEN_REQUIRE(stack_bytes > 2 * kCanaryBytes, "fiber stack of %zu bytes is too small",
                 stack_bytes);
}

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
                 "(raise SPADEN_SIM_FIBER_STACK)",
                 stack_bytes_);
}

std::size_t Fiber::high_water() const {
  if (!stack_debug() || !started_) {
    return 0;
  }
  // First byte above the canary that lost the fill pattern, scanning up from
  // the base: everything from there to the top has been touched.
  std::size_t i = kCanaryBytes;
  while (i < stack_bytes_ && stack_[i] == kFillByte) {
    ++i;
  }
  const std::size_t used = stack_bytes_ - i;
  std::size_t prev = g_max_high_water.load(std::memory_order_relaxed);
  while (used > prev &&
         !g_max_high_water.compare_exchange_weak(prev, used, std::memory_order_relaxed)) {
  }
  return used;
}

std::size_t Fiber::max_high_water() { return g_max_high_water.load(std::memory_order_relaxed); }

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
  if (stack_debug()) {
    std::memset(stack_.get(), kFillByte, stack_bytes_);
  }
  write_canary();
#if defined(SPADEN_FIBER_FAST)
  // Build a frame at the top of the stack that spaden_fiber_switch can
  // "return" through: six callee-saved slots, then the trampoline as the
  // return address. Alignment: the top is rounded to 16 bytes and the frame
  // is 8 slots, so after the six pops and the ret the trampoline starts
  // with rsp % 16 == 8 — exactly the ABI state after a call instruction.
  char* top = stack_.get() + stack_bytes_;
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
  ctx_.uc_stack.ss_size = stack_bytes_;
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
