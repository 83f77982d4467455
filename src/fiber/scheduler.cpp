#include "fiber/scheduler.hpp"

#include "util/error.hpp"

namespace xp::fiber {

thread_local Scheduler* Scheduler::launching_ = nullptr;

Scheduler::Scheduler(Backend backend) : backend_(resolve_backend(backend)) {}

Scheduler::~Scheduler() = default;

int Scheduler::spawn(std::function<void()> body, std::size_t stack_bytes) {
  XP_REQUIRE(!running_ || current_ >= 0,
             "spawn() from scheduler internals is not supported");
  const int id = static_cast<int>(fibers_.size());
  fibers_.push_back(
      std::make_unique<Fiber>(id, std::move(body), stack_bytes, backend_));
  ready_.push_back(id);
  return id;
}

std::size_t Scheduler::live_count() const {
  std::size_t n = 0;
  for (const auto& f : fibers_)
    if (f->state() != FiberState::Finished) ++n;
  return n;
}

FiberState Scheduler::state_of(int id) const {
  XP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < fibers_.size(),
             "state_of: bad fiber id");
  return fibers_[static_cast<std::size_t>(id)]->state();
}

void Scheduler::trampoline() {
  Scheduler* sched = launching_;
  asan_finish_switch(nullptr, &sched->main_stack_bottom_,
                     &sched->main_stack_size_);
  Fiber& self = *sched->fibers_[static_cast<std::size_t>(sched->current_)];
  try {
    self.body_();
  } catch (...) {
    self.error_ = std::current_exception();
  }
  sched->return_to_scheduler(FiberState::Finished);
  // Unreachable: a Finished fiber is never resumed.
}

void Scheduler::switch_to(Fiber& f) {
  current_ = f.id();
  f.state_ = FiberState::Running;
  const bool fcontext = backend_ == Backend::Fcontext;
  if (!f.started_) {
    f.started_ = true;
    launching_ = this;
    if (fcontext) {
      f.stack_ = stack_acquire(f.stack_bytes_);
      // A pooled stack still carries the poison of its last fiber's frames.
      asan_unpoison_stack(f.stack_bottom(), f.stack_size());
      f.sp_ = make_fcontext_frame(f.stack_.top, &Scheduler::trampoline);
#if defined(XP_TSAN_FIBERS)
      f.tsan_fiber_ = __tsan_create_fiber(0);
#endif
    } else {
      XP_CHECK(getcontext(&f.ctx_) == 0, "getcontext failed");
      f.ctx_.uc_stack.ss_sp = f.ustack_.get();
      f.ctx_.uc_stack.ss_size = f.stack_bytes_;
      f.ctx_.uc_link = &main_ctx_;  // safety net; normal exit goes via trampoline
      makecontext(&f.ctx_, &Scheduler::trampoline, 0);
    }
  }
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, f.stack_bottom(), f.stack_size());
  if (fcontext) {
#if defined(XP_TSAN_FIBERS)
    if (!main_tsan_fiber_) main_tsan_fiber_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f.tsan_fiber_, 0);
#endif
    xp_fcontext_swap(&main_sp_, f.sp_);
  } else {
    XP_CHECK(swapcontext(&main_ctx_, &f.ctx_) == 0, "swapcontext failed");
  }
  asan_finish_switch(fake_stack, nullptr, nullptr);
  current_ = -1;
  // A Finished fiber can never run again; hand its stack back to the pool
  // immediately so the next spawned fiber reuses it.
  if (f.state_ == FiberState::Finished) f.release_context();
  if (f.error_) {
    auto err = f.error_;
    f.error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void Scheduler::return_to_scheduler(FiberState new_state) {
  Fiber& self = *fibers_[static_cast<std::size_t>(current_)];
  self.state_ = new_state;
  // A finished fiber never resumes, so ASan may drop its fake stack.
  asan_start_switch(
      new_state == FiberState::Finished ? nullptr : &self.asan_fake_stack_,
      main_stack_bottom_, main_stack_size_);
  if (backend_ == Backend::Fcontext) {
#if defined(XP_TSAN_FIBERS)
    __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
    xp_fcontext_swap(&self.sp_, main_sp_);
  } else {
    XP_CHECK(swapcontext(&self.ctx_, &main_ctx_) == 0, "swapcontext failed");
  }
  asan_finish_switch(self.asan_fake_stack_, nullptr, nullptr);
}

void Scheduler::run() {
  XP_REQUIRE(!running_, "scheduler is not reentrant");
  running_ = true;
  try {
    for (;;) {
      if (ready_.empty()) {
        if (live_count() == 0) break;
        if (idle_hook_) {
          // Give the embedder (machine simulator) a chance to unblock
          // fibers by advancing simulated time, as long as it reports
          // progress.
          bool progressed = true;
          while (ready_.empty() && progressed) progressed = idle_hook_();
          if (!ready_.empty()) continue;
        }
        if (live_count() == 0) break;
        running_ = false;
        throw util::Error(
            "fiber deadlock: " + std::to_string(live_count()) +
            " live fiber(s) blocked with an empty ready queue");
      }
      const int id = ready_.front();
      ready_.pop_front();
      Fiber& f = *fibers_[static_cast<std::size_t>(id)];
      XP_CHECK(f.state() == FiberState::Ready, "ready queue holds non-ready fiber");
      switch_to(f);
    }
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
}

void Scheduler::yield() {
  XP_REQUIRE(current_ >= 0, "yield() outside a fiber");
  ready_.push_back(current_);
  return_to_scheduler(FiberState::Ready);
}

void Scheduler::block() {
  XP_REQUIRE(current_ >= 0, "block() outside a fiber");
  return_to_scheduler(FiberState::Blocked);
}

void Scheduler::unblock(int id) {
  XP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < fibers_.size(),
             "unblock: bad fiber id");
  Fiber& f = *fibers_[static_cast<std::size_t>(id)];
  XP_REQUIRE(f.state() == FiberState::Blocked,
             std::string("unblock: fiber ") + std::to_string(id) + " is " +
                 to_string(f.state()));
  f.state_ = FiberState::Ready;
  ready_.push_back(id);
}

}  // namespace xp::fiber
