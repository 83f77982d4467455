// Stress battery for util::ThreadPool.
//
// The pool's contract (util/thread_pool.hpp): every submitted task runs
// exactly once on some worker; wait() covers everything submitted so far,
// including tasks submitted BY running tasks; one pool serves many batches
// back to back; hinted submits drain in descending cost order (LPT), also
// against tasks a running task submits; and none of it is allowed to lose,
// duplicate, or reorder-by-index any work.  The whole battery runs under
// TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace xp::util {
namespace {

TEST(ThreadPool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool(0), util::Error);
  EXPECT_THROW(ThreadPool(-3), util::Error);
}

TEST(ThreadPool, WaitAcrossBatchesReusesTheSamePool) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    const int batch = 50 + round * 37;  // varying batch sizes
    for (int i = 0; i < batch; ++i) pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), batch) << "wait() returned before batch drained";
    count.store(0);
    // wait() on an idle pool returns immediately.
    pool.wait();
  }
}

TEST(ThreadPool, SubmitFromInsideATaskIsCoveredByWait) {
  ThreadPool pool(4);
  std::atomic<int> leaves{0};
  // A task tree: each root fans out children from inside the pool; wait()
  // must not return until the whole tree has run.
  constexpr int kRoots = 8;
  constexpr int kChildren = 16;
  constexpr int kGrandchildren = 4;
  for (int r = 0; r < kRoots; ++r) {
    pool.submit([&] {
      for (int c = 0; c < kChildren; ++c) {
        pool.submit([&] {
          for (int g = 0; g < kGrandchildren; ++g)
            pool.submit([&] { ++leaves; });
        });
      }
    });
  }
  pool.wait();
  EXPECT_EQ(leaves.load(), kRoots * kChildren * kGrandchildren);
}

// Nested skewed fan-out: ONE task spawns the entire fan-out from inside
// the pool while the other workers sit idle; every spawned task must run
// exactly once, on the pool's own threads.
TEST(ThreadPool, NestedSkewedFanOut) {
  constexpr int kWorkers = 4;
  constexpr int kTasks = 4096;
  ThreadPool pool(kWorkers);
  std::vector<std::atomic<int>> ran(kTasks);
  for (auto& r : ran) r.store(0);
  std::mutex mu;
  std::set<std::thread::id> threads_seen;

  pool.submit([&] {
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&, i] {
        ran[static_cast<std::size_t>(i)].fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        threads_seen.insert(std::this_thread::get_id());
      });
    }
  });
  pool.wait();

  for (int i = 0; i < kTasks; ++i)
    ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
        << "task " << i << " lost or duplicated";
  EXPECT_GE(threads_seen.size(), 1u);
  EXPECT_LE(threads_seen.size(), static_cast<std::size_t>(kWorkers));
  EXPECT_EQ(threads_seen.count(std::this_thread::get_id()), 0u);
}

// The exception-stashing pattern the pool's "tasks must not throw"
// contract prescribes (and core::SweepRunner uses): wrap fallible work,
// keep the first error, rethrow after the batch drains.
TEST(ThreadPool, ExceptionStashingPatternDeliversFirstError) {
  ThreadPool pool(4);
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::atomic<int> completed{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&, i] {
      try {
        if (i % 10 == 3) throw util::Error("task " + std::to_string(i));
        ++completed;
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait();
  EXPECT_EQ(completed.load(), 90);
  ASSERT_TRUE(first_error != nullptr);
  EXPECT_THROW(std::rethrow_exception(first_error), util::Error);
}

// 10k-task churn: many small batches with varying shapes — external
// submits, nested submits, and both mixed — must neither lose a task nor
// wedge a worker.
TEST(ThreadPool, TenThousandTaskChurn) {
  ThreadPool pool(8);
  std::atomic<std::int64_t> sum{0};
  std::int64_t expected = 0;
  int submitted = 0;
  int batch_no = 0;
  while (submitted < 10000) {
    const int batch = 1 + (batch_no * 7) % 23;
    ++batch_no;
    for (int i = 0; i < batch && submitted < 10000; ++i, ++submitted) {
      const std::int64_t v = submitted;
      expected += v;
      if (v % 3 == 0) {
        // Nested: an outer task submits the real work from a worker.
        expected += 1000000;
        pool.submit([&, v] {
          sum.fetch_add(v);
          pool.submit([&] { sum.fetch_add(1000000); });
        });
      } else {
        pool.submit([&, v] { sum.fetch_add(v); });
      }
    }
    if (batch_no % 5 == 0) pool.wait();  // interleave waits with submits
  }
  pool.wait();
  EXPECT_EQ(sum.load(), expected);
}

// Occupies the single worker of a 1-worker pool until release().  The
// constructor returns only once the worker has claimed the blocking task,
// so every later submit queues up behind it instead of racing the worker
// for the queue front.
class Blocker {
 public:
  explicit Blocker(ThreadPool& pool) {
    pool.submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      started_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
};

// LPT hints: with one worker and a blocked queue, hinted tasks must drain
// in descending cost order regardless of submission order, and unhinted
// tasks keep FIFO order among themselves behind the hinted ones.
TEST(ThreadPool, CostHintsDrainLargestFirst) {
  ThreadPool pool(1);
  Blocker blocker(pool);

  std::vector<int> order;
  std::mutex order_mu;
  const auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(id);
  };
  // Submitted smallest-first on purpose; hints must invert the order.
  pool.submit([&] { record(1); }, 1.0);
  pool.submit([&] { record(2); }, 2.0);
  pool.submit([&] { record(3); }, 3.0);
  pool.submit([&] { record(4); }, 4.0);
  // Unhinted (hint 0) tasks trail the hinted ones, FIFO among themselves.
  pool.submit([&] { record(100); });
  pool.submit([&] { record(101); });

  blocker.release();
  pool.wait();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 100, 101}));
}

// A hinted submit from inside a running task joins the one queue in hint
// order, ahead of smaller tasks already queued and behind larger ones — a
// sweep's pre-warm job relies on this to launch its cells.
TEST(ThreadPool, NestedHintedSubmitIsOrderedAgainstQueuedTasks) {
  ThreadPool pool(1);
  Blocker blocker(pool);
  std::vector<int> order;
  std::mutex order_mu;
  const auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(id);
  };

  pool.submit(
      [&] {
        record(50);
        pool.submit([&] { record(3); }, 3.0);
        pool.submit([&] { record(1); }, 1.0);
        pool.submit([&] { record(0); });
      },
      50.0);
  pool.submit([&] { record(4); }, 4.0);
  pool.submit([&] { record(2); }, 2.0);

  blocker.release();
  pool.wait();
  EXPECT_EQ(order, (std::vector<int>{50, 4, 3, 2, 1, 0}));
}

// wait() from inside a task would wait for itself: it raises util::Error,
// which the task can catch, and the pool carries on.
TEST(ThreadPool, WaitInsideATaskThrows) {
  ThreadPool pool(2);
  std::atomic<int> raised{0};
  pool.submit([&] {
    try {
      pool.wait();
    } catch (const util::Error&) {
      ++raised;
    }
  });
  pool.wait();
  EXPECT_EQ(raised.load(), 1);
}

// Destruction with queued work: "pending tasks are still executed first".
TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) pool.submit([&] { ++ran; });
    // No wait(): the destructor must drain.
  }
  EXPECT_EQ(ran.load(), 500);
}

// Heavy mixed contention: several external threads submitting concurrently
// while workers also spawn nested tasks — the counters must balance.
TEST(ThreadPool, ConcurrentExternalSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 250;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i)
        pool.submit([&, i] {
          count.fetch_add(1);
          // Every 50th task (by submit index, so the count is
          // deterministic) also spawns a nested task from the worker.
          if (i % 50 == 0) pool.submit([&] { count.fetch_add(1); });
        });
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait();
  const int direct = kSubmitters * kPerSubmitter;
  const int nested = kSubmitters * ((kPerSubmitter + 49) / 50);
  EXPECT_EQ(count.load(), direct + nested);
}

}  // namespace
}  // namespace xp::util
