// Worker pool with one cost-ordered task queue.
//
// The sweep engine (core/sweep.hpp) and the serve daemon fan independent
// work out over this pool.  Tasks are plain std::function<void()>; the pool
// imposes no ordering on completion, so callers that need deterministic
// output write results by index.  wait() blocks until every task submitted
// so far has finished, so one pool serves several batches back to back.
//
// Scheduling: one mutex-guarded queue in descending `cost_hint` order, so
// the longest tasks start earliest (LPT list scheduling); ties keep
// submission order.  A submit from inside a running task joins the same
// queue, ordered against what is already there — that is how a sweep's
// pre-warm job releases its own cells (DESIGN.md §10).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xp::util {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawn `n_workers` threads (>= 1; throws util::Error otherwise).
  explicit ThreadPool(int n_workers);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue with hint 0: behind every hinted task, FIFO among unhinted
  /// ones.  Tasks must not throw — wrap fallible work and stash the
  /// exception yourself (see core::SweepRunner for the pattern).
  void submit(Task task);

  /// Enqueue with a size hint (any monotone cost proxy: thread count,
  /// event count); larger hints start first.
  void submit(Task task, double cost_hint);

  /// Block until every task submitted so far (including tasks submitted by
  /// running tasks) has completed.  Throws util::Error when called from
  /// inside one of this pool's tasks — that worker would wait for itself.
  void wait();

  int size() const { return static_cast<int>(workers_.size()); }

  /// hardware_concurrency with a floor of 1 (the standard allows 0).
  static int default_workers();

 private:
  struct Item {
    double hint;
    Task task;
  };
  void worker_loop();

  std::mutex mu_;               ///< guards the four members below
  std::deque<Item> queue_;      ///< descending hint, FIFO among ties
  std::int64_t in_flight_ = 0;  ///< submitted, not yet finished
  bool stopping_ = false;
  std::condition_variable work_ready_;  ///< queue non-empty or stopping
  std::condition_variable all_done_;    ///< in_flight_ reached 0
  std::vector<std::thread> workers_;    ///< last: the threads use the rest
};

/// CPU seconds consumed by the calling thread: deltas taken on the worker
/// that ran a job measure work done, not time-sliced wall time
/// (see core::SweepStages).
double thread_cpu_seconds();

}  // namespace xp::util
