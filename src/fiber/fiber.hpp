// Non-preemptive user-level threads (fibers).
//
// This is the repository's stand-in for the AWESIME threads package the
// paper used to run all n threads of a pC++ program on one processor.  The
// property the trace-translation algorithm relies on — threads switch ONLY
// at synchronization boundaries (barrier entry/exit, remote waits) — is
// guaranteed here by construction: a fiber runs until it explicitly yields
// or blocks; there is no preemption.
//
// Control always passes fiber -> scheduler -> fiber (never fiber -> fiber),
// which keeps the scheduler logic trivial and the switch points auditable.
//
// Two context-switch backends exist behind this API (fiber/context.hpp):
// the fcontext-style assembly switch on pooled mmap'd stacks (default
// where ported) and the portable ucontext fallback/oracle.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fiber/context.hpp"
#include "fiber/stack_pool.hpp"

namespace xp::fiber {

enum class FiberState { Ready, Running, Blocked, Finished };

const char* to_string(FiberState s);

class Scheduler;

/// One cooperative thread of control with its own stack.
class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Fiber(int id, std::function<void()> body, std::size_t stack_bytes,
        Backend backend);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  int id() const { return id_; }
  FiberState state() const { return state_; }

 private:
  friend class Scheduler;

  /// Drop the execution context once the fiber can never run again
  /// (finished, or torn down): returns the pooled stack, destroys the
  /// sanitizer fiber.  Idempotent.
  void release_context();

  /// The stack the fiber runs on, [stack_bottom(), + stack_size()).
  const void* stack_bottom() const {
    return stack_ ? stack_.top - stack_.usable : ustack_.get();
  }
  std::size_t stack_size() const {
    return stack_ ? stack_.usable : stack_bytes_;
  }

  int id_;
  Backend backend_;
  FiberState state_ = FiberState::Ready;
  std::function<void()> body_;
  std::size_t stack_bytes_;

  // Fcontext backend: pooled stack acquired lazily at the first switch-in,
  // released as soon as the fiber finishes; sp_ is the saved stack pointer
  // while the fiber is switched out.
  StackSpan stack_{};
  void* sp_ = nullptr;

  // Ucontext backend: heap stack + full ucontext.
  std::unique_ptr<char[]> ustack_;
  ucontext_t ctx_{};

  bool started_ = false;
  std::exception_ptr error_;
  void* tsan_fiber_ = nullptr;
  void* asan_fake_stack_ = nullptr;  ///< ASan state while switched out
};

}  // namespace xp::fiber
