#include "util/thread_pool.hpp"

#include <time.h>

#include <iterator>

#include "util/error.hpp"

namespace xp::util {

// The pool the calling thread works for, if any: wait() refuses to block a
// worker on its own pool.
static thread_local const ThreadPool* tls_pool = nullptr;

ThreadPool::ThreadPool(int n_workers) {
  XP_REQUIRE(n_workers >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  lock.unlock();
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(Task task) { submit(std::move(task), 0.0); }

void ThreadPool::submit(Task task, double cost_hint) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Descending hint, stable among ties (linear from the back: batches
    // are typically submitted roughly largest-first already).
    auto it = queue_.end();
    while (it != queue_.begin() && std::prev(it)->hint < cost_hint) --it;
    queue_.insert(it, Item{cost_hint, std::move(task)});
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the queue has drained
    {
      Task task = std::move(queue_.front().task);
      queue_.pop_front();
      lock.unlock();
      task();  // contract: tasks do not throw (a throw terminates)
    }  // the task's captures die before wait() can return
    lock.lock();
    if (--in_flight_ == 0) all_done_.notify_all();
  }
}

void ThreadPool::wait() {
  XP_REQUIRE(tls_pool != this,
             "wait() from inside a pool task would deadlock");
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::default_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double thread_cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace xp::util
