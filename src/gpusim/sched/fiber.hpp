// Stackful fibers for the warp scheduler (src/gpusim/sched/).
//
// A Fiber is one suspendable execution context: the scheduler resumes it,
// the fiber runs until it yields (or its entry returns), and control comes
// back to the resume() caller. One fixed heap stack per fiber, so a
// suspended warp's locals (fragments, Lanes<T> registers, RAII range
// guards) survive across switches.
//
// Backend: on plain x86-64 Linux builds the switch is a hand-rolled
// callee-saved-register swap (~20 instructions, no syscall). glibc's
// swapcontext additionally saves and restores the signal mask — an
// rt_sigprocmask syscall per switch — which dominates switch cost in
// scheduled launches. Sanitizers understand ucontext (swapcontext is
// intercepted) but not custom stack switching, so any sanitizer build, and
// any non-x86-64 target, falls back to the ucontext backend; both backends
// implement exactly the same API and the schedule is identical.
//
// Threading: a Fiber never migrates — it is created, resumed and finished
// on one simulation thread (its virtual SM).
#pragma once

#include <cstddef>
#include <memory>

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SPADEN_FIBER_UCONTEXT 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SPADEN_FIBER_UCONTEXT 1
#endif
#endif
#if !defined(SPADEN_FIBER_UCONTEXT) && defined(__x86_64__) && defined(__linux__)
#define SPADEN_FIBER_FAST 1
#else
#undef SPADEN_FIBER_FAST
#ifndef SPADEN_FIBER_UCONTEXT
#define SPADEN_FIBER_UCONTEXT 1
#endif
#include <ucontext.h>
#endif

namespace spaden::sim {

/// Per-fiber stack size. Kernel frames hold a few fragments plus Lanes<T>
/// locals: the measured high-water across the shipped kernels stays under
/// 12 KiB, the deepest being the batched Spaden SpMM with four 16-column
/// tiles per warp, so 64 KiB leaves over 5x headroom. The stack canary
/// turns an overflow into an immediate loud failure rather than silent
/// corruption; raise this constant if a custom kernel legitimately needs
/// more.
inline constexpr std::size_t kFiberStackBytes = 64 * 1024;

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Arm the fiber: the next resume() runs entry(arg) from the top of the
  /// stack. May be called again once the previous entry has finished (the
  /// scheduler reuses one fiber per resident-warp slot).
  void start(Entry entry, void* arg);

  /// Switch from the calling context into the fiber; returns when the fiber
  /// yields or its entry returns. False once the entry has returned.
  /// Verifies the stack canary on every return and fails loudly (naming
  /// kFiberStackBytes) if the fiber overflowed its stack.
  bool resume();

  /// From inside the fiber: suspend back to the resume() caller.
  void yield();

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  static void trampoline();
  void write_canary();
  void check_canary() const;

#if defined(SPADEN_FIBER_FAST)
  void* sp_ = nullptr;       // the fiber's suspended stack pointer
  void* link_sp_ = nullptr;  // the resume() caller's stack pointer
#else
  ucontext_t ctx_{};   // the fiber's suspended state
  ucontext_t link_{};  // the resume() caller's state
#endif
  std::unique_ptr<char[]> stack_;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  bool started_ = false;
  bool finished_ = true;
};

}  // namespace spaden::sim
