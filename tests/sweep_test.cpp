// Differential + determinism coverage for the parallel sweep engine.
//
// The contract under test (core/sweep.hpp): a SweepRunner prediction is
// bitwise-identical to a sequential SimMode::EventDriven extrapolation of
// the same measured trace — for every grid point, at any pool size, under
// any task submission order, on repeated runs.  "Bitwise" is checked the
// strong way: every numeric field of the Prediction plus the full
// serialized extrapolated event stream.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "rt/collection.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/once_cell.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace xp::core {
namespace {

// A small but non-trivial program: computation, neighbor remote reads, and
// barriers, so every simulator subsystem participates.
class SweepProgram : public rt::Program {
 public:
  std::string name() const override { return "sweep_prog"; }
  void setup(rt::Runtime& rt) override {
    c_ = std::make_unique<rt::Collection<double>>(
        rt, rt::Distribution::d1(rt::Dist::Block, rt.n_threads(),
                                 rt.n_threads()),
        512);
    for (int i = 0; i < rt.n_threads(); ++i) c_->init(i) = i + 1.0;
  }
  void thread_main(rt::Runtime& rt) override {
    for (int k = 0; k < 3; ++k) {
      rt.compute_flops(568.0 * (rt.thread_id() % 3 + 1));
      if (rt.n_threads() > 1) {
        (void)c_->get((rt.thread_id() + 1) % rt.n_threads(), 16);
        if (k == 1) (void)c_->get((rt.thread_id() + 2) % rt.n_threads(), 64);
      }
      rt.barrier();
    }
  }
  std::unique_ptr<rt::Collection<double>> c_;
};

std::vector<SweepPoint> test_grid() {
  std::vector<SweepPoint> grid;
  const std::vector<std::pair<std::string, model::SimParams>> machines = {
      {"distributed", model::distributed_preset()},
      {"shared", model::shared_memory_preset()},
      {"cm5", model::cm5_preset()},
      {"ideal", model::ideal_preset()},
  };
  for (const auto& [label, params] : machines) {
    for (int n : {1, 2, 4, 8}) {
      SweepPoint p;
      p.n_threads = n;
      p.params = params;
      p.label = label;
      grid.push_back(std::move(p));
    }
  }
  return grid;
}

std::map<int, trace::Trace> measure_all(const std::vector<SweepPoint>& grid) {
  std::map<int, trace::Trace> traces;
  for (const auto& p : grid) {
    if (traces.count(p.n_threads)) continue;
    SweepProgram prog;
    rt::MeasureOptions mo;
    mo.n_threads = p.n_threads;
    traces.emplace(p.n_threads, rt::measure(prog, mo));
  }
  return traces;
}

// Serialize a Prediction exhaustively; byte-equal strings <=> bitwise-equal
// predictions (times are integer ns; avg_inflight is printed as hexfloat).
// The engine event count is left out: it records which simulation path
// ran, not what was predicted, and the event-driven oracle fires events
// where Auto's engine-free path fires none.
std::string serialize(const Prediction& p) {
  std::ostringstream os;
  os << "n=" << p.n_threads << " pred=" << p.predicted_time.count_ns()
     << " ideal=" << p.ideal_time.count_ns()
     << " meas=" << p.measured_time.count_ns()
     << " makespan=" << p.sim.makespan.count_ns()
     << " msgs=" << p.sim.messages << " bytes=" << p.sim.bytes
     << " inflight=" << std::hexfloat
     << p.sim.avg_inflight << std::defaultfloat << '\n';
  for (const auto& t : p.sim.threads) {
    os << "  t: " << t.compute.count_ns() << ' ' << t.comm_wait.count_ns()
       << ' ' << t.barrier_wait.count_ns() << ' ' << t.send_overhead.count_ns()
       << ' ' << t.service_time.count_ns() << ' ' << t.poll_time.count_ns()
       << ' ' << t.finish.count_ns() << ' ' << t.remote_accesses << ' '
       << t.intra_cluster_accesses << ' ' << t.requests_served << ' '
       << t.interrupts_taken << ' ' << t.polls << '\n';
  }
  trace::write_text(p.sim.extrapolated, os);
  return os.str();
}

std::string serialize(const SweepResult& r) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.predictions.size(); ++i)
    os << "[" << i << " " << r.grid[i].label
       << " events=" << r.predictions[i].sim.engine_events << "]\n"
       << serialize(r.predictions[i]);
  return os.str();
}

void expect_equal(const Prediction& a, const Prediction& b,
                  const std::string& what) {
  EXPECT_EQ(serialize(a), serialize(b)) << what;
}

/// The sequential oracle: the event-driven replay of one grid point.
Prediction event_reference(const SweepPoint& p, const trace::Trace& measured) {
  SimOptions oracle;
  oracle.mode = SimMode::EventDriven;
  return predict(prepare_trace(measured), p.params, oracle);
}

TEST(SweepRunner, MatchesSequentialExtrapolationAtEveryPoolSize) {
  const auto grid = test_grid();
  const auto traces = measure_all(grid);

  // Sequential reference: one event-driven replay per point over the same
  // traces.
  std::vector<Prediction> reference;
  for (const auto& p : grid)
    reference.push_back(event_reference(p, traces.at(p.n_threads)));

  const int hw = util::ThreadPool::default_workers();
  for (int workers : {1, 4, hw}) {
    SweepOptions opt;
    opt.n_workers = workers;
    SweepRunner runner(opt);
    for (const auto& [n, t] : traces) runner.seed_trace(t);
    const SweepResult result = runner.run(grid);
    ASSERT_EQ(result.predictions.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
      expect_equal(result.predictions[i], reference[i],
                   "workers=" + std::to_string(workers) + " point=" +
                       std::to_string(i) + " (" + grid[i].label + ", n=" +
                       std::to_string(grid[i].n_threads) + ")");
    EXPECT_EQ(result.cache_hits + result.cache_misses, grid.size());
  }
}

TEST(SweepRunner, FactoryPathMatchesSeededPath) {
  const auto grid = test_grid();
  const auto traces = measure_all(grid);

  SweepOptions opt;
  opt.n_workers = 4;
  SweepRunner measured([] { return std::make_unique<SweepProgram>(); }, opt);
  const SweepResult from_factory = measured.run(grid);
  // Four distinct thread counts -> four measurements, the rest cache hits.
  EXPECT_EQ(from_factory.cache_misses, 4u);
  EXPECT_EQ(from_factory.cache_hits, grid.size() - 4);

  SweepRunner seeded(opt);
  for (const auto& [n, t] : traces) seeded.seed_trace(t);
  const SweepResult from_seed = seeded.run(grid);
  EXPECT_EQ(serialize(from_factory), serialize(from_seed));

  // The factory path did real measurements through the pre-warm jobs, so
  // the per-stage breakdown must account for them; the seeded path never
  // measures.  Both CPU-sum and wall views must be populated.
  EXPECT_GT(from_factory.stages.measure_cpu_s, 0.0);
  EXPECT_GT(from_factory.stages.prewarm_wall_s, 0.0);
  EXPECT_GT(from_factory.stages.simulate_wall_s, 0.0);
  EXPECT_GT(from_factory.stages.simulate_cpu_s, 0.0);
  EXPECT_EQ(from_seed.stages.measure_cpu_s, 0.0);
}

TEST(SweepRunner, DeterministicAcrossRunsAndSubmissionOrders) {
  const auto grid = test_grid();
  const auto traces = measure_all(grid);

  const auto run_with = [&](std::vector<std::size_t> order) {
    SweepOptions opt;
    opt.n_workers = 4;
    opt.submit_order = std::move(order);
    SweepRunner runner(opt);
    for (const auto& [n, t] : traces) runner.seed_trace(t);
    return serialize(runner.run(grid));
  };

  const std::string first = run_with({});
  const std::string second = run_with({});
  EXPECT_EQ(first, second) << "repeated sweep is not byte-identical";

  // A deterministic shuffle: reversed order, then odd/even interleave.
  std::vector<std::size_t> shuffled;
  for (std::size_t i = grid.size(); i-- > 0;)
    if (i % 2 == 0) shuffled.push_back(i);
  for (std::size_t i = grid.size(); i-- > 0;)
    if (i % 2 == 1) shuffled.push_back(i);
  const std::string third = run_with(shuffled);
  EXPECT_EQ(first, third) << "submission order leaked into the results";
}

// Property test: for a RANDOMIZED grid (random sizes, random machine per
// cell, random duplicate structure) and a RANDOMIZED submission order,
// predictions are bitwise-identical across n_workers ∈ {1, 2, 8}, identical
// to the sequential event-driven path, and the cache accounting invariant
// `hits + misses == grid size` holds in every configuration.  The RNG is
// seeded per round, so failures reproduce exactly.
TEST(SweepRunner, RandomizedGridsAreWorkerCountInvariant) {
  const std::vector<model::SimParams> machines = {
      model::distributed_preset(), model::shared_memory_preset(),
      model::cm5_preset(), model::paragon_preset(), model::ideal_preset()};

  for (std::uint64_t round = 0; round < 3; ++round) {
    util::Xoshiro256ss rng(0xC0FFEE00ull + round);

    // 6–20 cells, thread counts drawn from {1..8} with repeats so the
    // cache sees both misses and hits.
    const std::size_t cells = 6 + rng.next_below(15);
    std::vector<SweepPoint> grid;
    for (std::size_t i = 0; i < cells; ++i) {
      SweepPoint p;
      p.n_threads = 1 + static_cast<int>(rng.next_below(8));
      p.params = machines[rng.next_below(machines.size())];
      p.label = "cell" + std::to_string(i);
      grid.push_back(std::move(p));
    }
    const auto traces = measure_all(grid);

    std::vector<Prediction> reference;
    for (const auto& p : grid)
      reference.push_back(event_reference(p, traces.at(p.n_threads)));

    std::string first_serial;
    for (int workers : {1, 2, 8}) {
      std::vector<std::size_t> order(grid.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      util::shuffle(order, rng);  // a fresh random permutation per config

      SweepOptions opt;
      opt.n_workers = workers;
      opt.submit_order = std::move(order);
      SweepRunner runner(opt);
      for (const auto& [n, t] : traces) runner.seed_trace(t);
      const SweepResult result = runner.run(grid);

      ASSERT_EQ(result.predictions.size(), grid.size());
      EXPECT_EQ(result.cache_hits + result.cache_misses, grid.size())
          << "round=" << round << " workers=" << workers;
      // Seeded runner: every key was covered by seed_trace, so no misses.
      EXPECT_EQ(result.cache_misses, 0u)
          << "round=" << round << " workers=" << workers;
      for (std::size_t i = 0; i < grid.size(); ++i)
        expect_equal(result.predictions[i], reference[i],
                     "round=" + std::to_string(round) + " workers=" +
                         std::to_string(workers) + " point=" +
                         std::to_string(i));
      const std::string serial = serialize(result);
      if (first_serial.empty())
        first_serial = serial;
      else
        EXPECT_EQ(serial, first_serial)
            << "round=" << round << " workers=" << workers
            << ": worker count leaked into the results";
    }
  }
}

TEST(SweepRunner, RunGridBuildsMachineMajorCrossProduct) {
  SweepOptions opt;
  opt.n_workers = 2;
  SweepRunner runner([] { return std::make_unique<SweepProgram>(); }, opt);
  const SweepResult r = runner.run_grid(
      {1, 2, 4}, {model::ideal_preset(), model::cm5_preset()},
      {"ideal", "cm5"});
  ASSERT_EQ(r.grid.size(), 6u);
  EXPECT_EQ(r.grid[0].label, "ideal");
  EXPECT_EQ(r.grid[0].n_threads, 1);
  EXPECT_EQ(r.grid[5].label, "cm5");
  EXPECT_EQ(r.grid[5].n_threads, 4);
  // The ideal series must reproduce the zero-cost bound.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(r.predictions[static_cast<std::size_t>(i)].predicted_time,
              r.predictions[static_cast<std::size_t>(i)].ideal_time);
}

TEST(SweepRunner, MissingFactoryAndSeedIsAnError) {
  SweepRunner runner;  // no factory, no seeds
  SweepPoint p;
  p.n_threads = 2;
  p.params = model::ideal_preset();
  EXPECT_THROW(runner.run({p}), util::Error);
}

TEST(SweepRunner, RejectsBadSubmitOrder) {
  SweepOptions opt;
  opt.submit_order = {0, 0};  // not a permutation
  SweepRunner runner([] { return std::make_unique<SweepProgram>(); }, opt);
  SweepPoint p;
  p.n_threads = 1;
  p.params = model::ideal_preset();
  EXPECT_THROW(runner.run({p, p}), util::Error);
}

// A program whose measurement fails at one thread count.
class FailingAtProgram : public SweepProgram {
 public:
  explicit FailingAtProgram(int bad_n) : bad_n_(bad_n) {}
  void setup(rt::Runtime& rt) override {
    if (rt.n_threads() == bad_n_) throw util::Error("measurement failed");
    SweepProgram::setup(rt);
  }

 private:
  int bad_n_;
};

// One failing key in a multi-key grid: run() rethrows the measurement's
// util::Error only once the pool has drained — every other key was still
// measured and no cell still holds a trace — and the same runner then
// answers a grid without that key exactly like a sequential Extrapolator.
TEST(SweepRunner, FailingKeyThrowsAfterDrainAndRunnerStaysUsable) {
  static constexpr int kBad = 8;  // the largest key: its job starts first
  SweepOptions opt;
  opt.n_workers = 4;
  SweepRunner runner([] { return std::make_unique<FailingAtProgram>(kBad); },
                     opt);
  const auto grid = test_grid();
  EXPECT_THROW(runner.run(grid), util::Error);
  for (int n : {1, 2, 4}) {
    TranslateKey key;
    key.n_threads = n;
    const auto tt = runner.cache().get(key);
    ASSERT_NE(tt, nullptr) << "n=" << n << " was not measured";
    EXPECT_EQ(tt.use_count(), 2) << "a cell outlived run() at n=" << n;
  }

  std::vector<SweepPoint> good;
  for (const SweepPoint& p : grid)
    if (p.n_threads != kBad) good.push_back(p);
  const SweepResult r = runner.run(good);
  EXPECT_EQ(r.cache_misses, 0u);
  EXPECT_EQ(r.cache_hits, good.size());
  for (std::size_t i = 0; i < good.size(); ++i) {
    SweepProgram prog;
    expect_equal(r.predictions[i],
                 Extrapolator(good[i].params).extrapolate(prog, good[i].n_threads),
                 "point=" + std::to_string(i));
  }
}

TEST(TranslateCache, KeyedOnThreadCountAndOptions) {
  SweepProgram prog;
  rt::MeasureOptions mo;
  mo.n_threads = 2;
  const trace::Trace t = rt::measure(prog, mo);

  TranslateCache cache;
  cache.put(t);
  TranslateKey key;
  key.n_threads = 2;
  ASSERT_NE(cache.get(key), nullptr);
  EXPECT_EQ(cache.get(key)->n_threads, 2);

  // Different options -> different entry.
  key.topt.remove_event_overhead = false;
  EXPECT_EQ(cache.get(key), nullptr);
  // Different thread count -> different entry.
  key.topt = TranslateOptions{};
  key.n_threads = 3;
  EXPECT_EQ(cache.get(key), nullptr);
}

TEST(TranslateCache, HashCoversEveryTranslateOptionsField) {
  // Audit for the stale-cache-hit failure mode: a field of
  // TranslateOptions that equality sees but the hash ignores is legal for
  // unordered_map, yet a hash that *collides* for differing options while
  // a buggy equality ignored them would silently serve the wrong
  // translation.  Pin down that every field currently in TranslateOptions
  // (see the static_assert next to TranslateKeyHash) changes the hash.
  TranslateKeyHash h;
  TranslateKey base;
  base.n_threads = 4;

  TranslateKey other = base;
  other.n_threads = 5;
  EXPECT_NE(h(base), h(other)) << "n_threads not mixed";

  other = base;
  other.topt.remove_event_overhead = !base.topt.remove_event_overhead;
  EXPECT_NE(h(base), h(other)) << "remove_event_overhead not mixed";

  other = base;
  other.topt.event_overhead_override = util::Time::ns(123);
  EXPECT_NE(h(base), h(other)) << "event_overhead_override not mixed";

  // And distinct options must land in distinct entries end to end.
  SweepProgram prog;
  rt::MeasureOptions mo;
  mo.n_threads = 2;
  const trace::Trace t = rt::measure(prog, mo);
  TranslateCache cache;
  TranslateOptions keep;
  keep.remove_event_overhead = false;
  TranslateOptions strip;  // default: remove overhead
  cache.put(t, keep);
  cache.put(t, strip);
  EXPECT_EQ(cache.size(), 2u);
  TranslateKey k1{2, keep}, k2{2, strip};
  ASSERT_NE(cache.get(k1), nullptr);
  ASSERT_NE(cache.get(k2), nullptr);
  EXPECT_NE(cache.get(k1), cache.get(k2));
}

TEST(TranslateCache, MeasuresOncePerKeyUnderConcurrency) {
  std::atomic<int> measurements{0};
  TranslateCache cache;
  TranslateKey key;
  key.n_threads = 2;
  const TranslateCache::Measure measure = [&](int n) {
    ++measurements;
    SweepProgram prog;
    rt::MeasureOptions mo;
    mo.n_threads = n;
    return rt::measure(prog, mo);
  };

  util::ThreadPool pool(8);
  for (int i = 0; i < 32; ++i)
    pool.submit([&] { (void)cache.get_or_prepare(key, measure); });
  pool.wait();
  EXPECT_EQ(measurements.load(), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 31u);
}

// Concurrency regression for the sharded cache: N threads hammer
// get_or_prepare over OVERLAPPING keys.  Exactly one miss (one measurement)
// per distinct key, every other call a hit, and every returned translation
// complete and shared — the invariants that hold the sweep's
// `hits + misses == grid size` accounting together under any interleaving.
// Runs under TSan in CI, which is what holds the "no torn reads" half.
TEST(TranslateCache, ConcurrentOverlappingKeysMissOncePerKey) {
  constexpr int kThreads = 8;
  constexpr int kDistinctKeys = 4;
  constexpr int kRoundsPerThread = 8;

  TranslateCache cache;
  std::atomic<int> measurements{0};
  const TranslateCache::Measure measure = [&](int n) {
    ++measurements;
    SweepProgram prog;
    rt::MeasureOptions mo;
    mo.n_threads = n;
    return rt::measure(prog, mo);
  };

  util::ThreadPool pool(kThreads);
  std::vector<std::shared_ptr<const TranslatedTrace>> got(
      kThreads * kDistinctKeys * kRoundsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    pool.submit([&, t] {
      for (int r = 0; r < kRoundsPerThread; ++r) {
        for (int k = 0; k < kDistinctKeys; ++k) {
          TranslateKey key;
          // Interleave key order per thread so lookups collide hard.
          key.n_threads = 1 + (k + t + r) % kDistinctKeys;
          const auto v = cache.get_or_prepare(key, measure);
          got[static_cast<std::size_t>(
              (t * kRoundsPerThread + r) * kDistinctKeys + k)] = v;
        }
      }
    });
  }
  pool.wait();

  EXPECT_EQ(measurements.load(), kDistinctKeys);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kDistinctKeys));
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(kDistinctKeys));
  EXPECT_EQ(cache.hits(),
            static_cast<std::uint64_t>(kThreads * kDistinctKeys *
                                       kRoundsPerThread - kDistinctKeys));
  // Every caller got the complete, shared translation for its key: same
  // pointer per key, fully populated.
  std::map<int, const TranslatedTrace*> canonical;
  for (const auto& v : got) {
    ASSERT_NE(v, nullptr);
    EXPECT_GE(v->n_threads, 1);
    EXPECT_EQ(v->translated.size(),
              static_cast<std::size_t>(v->n_threads));
    auto [it, inserted] = canonical.emplace(v->n_threads, v.get());
    if (!inserted) {
      EXPECT_EQ(it->second, v.get());
    }
  }
}

// put() followed by concurrent get(): a reader either sees nothing or the
// complete immutable entry — never a partially-constructed translation.
TEST(TranslateCache, ConcurrentGetDuringPutNeverReturnsPartialEntries) {
  SweepProgram prog;
  rt::MeasureOptions mo;
  mo.n_threads = 3;
  const trace::Trace t = rt::measure(prog, mo);

  for (int round = 0; round < 8; ++round) {
    TranslateCache cache;
    TranslateKey key;
    key.n_threads = 3;

    util::ThreadPool pool(4);
    std::atomic<bool> stop{false};
    std::atomic<int> complete_views{0};
    for (int r = 0; r < 3; ++r) {
      pool.submit([&] {
        const auto check = [&](const std::shared_ptr<const TranslatedTrace>& v)
            -> bool {
          if (!v) return false;
          // Entry visible => fully constructed.
          EXPECT_EQ(v->n_threads, 3);
          EXPECT_EQ(v->translated.size(), 3u);
          EXPECT_NE(v->compiled, nullptr);
          ++complete_views;
          return true;
        };
        while (!stop.load()) {
          check(cache.get(key));
          std::this_thread::yield();
        }
        // put() happened-before stop, so the entry must be visible now.
        EXPECT_TRUE(check(cache.get(key)));
      });
    }
    pool.submit([&] {
      cache.put(t);
      stop.store(true);
    });
    pool.wait();
    ASSERT_NE(cache.get(key), nullptr);
    EXPECT_GT(complete_views.load(), 0);
  }
}

// --- byte-budget LRU cap (the knob the serve daemon relies on) ------------

// One cache entry per thread count, measured from the shared test program.
trace::Trace measure_n(int n) {
  SweepProgram prog;
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return rt::measure(prog, mo);
}

TEST(TranslateCache, ByteBudgetEvictsLeastRecentlyUsed) {
  TranslateCache cache;
  std::size_t per_entry_max = 0;
  for (int n : {2, 3, 4, 5}) {
    const auto tt = cache.get_or_prepare(TranslateKey{n, {}},
                                         [](int m) { return measure_n(m); });
    per_entry_max =
        std::max(per_entry_max, TranslateCache::footprint_bytes(*tt));
  }
  ASSERT_EQ(cache.size(), 4u);
  ASSERT_GT(cache.bytes(), 0u);
  ASSERT_EQ(cache.evictions(), 0u);

  // Touch n=2 so it becomes the most recently used entry, then shrink the
  // budget to roughly two entries' worth: the oldest untouched entries go,
  // n=2 stays, and the accounting lands back under the budget.
  ASSERT_NE(cache.get(TranslateKey{2, {}}), nullptr);
  const std::size_t budget = 2 * per_entry_max;
  cache.set_byte_budget(budget);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_LT(cache.size(), 4u);
  EXPECT_NE(cache.get(TranslateKey{2, {}}), nullptr)
      << "the most recently used entry was evicted";
  EXPECT_EQ(cache.get(TranslateKey{3, {}}), nullptr)
      << "the least recently used entry survived";
}

TEST(TranslateCache, BudgetNeverEvictsTheOnlyOrNewestEntry) {
  TranslateCache cache;
  cache.set_byte_budget(1);  // absurdly small: nothing fits
  (void)cache.get_or_prepare(TranslateKey{2, {}},
                             [](int m) { return measure_n(m); });
  // A single resident entry is always retained, even over budget — evicting
  // it would turn the cache into a measure-every-time regression.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  // A second insert makes the first evictable; the newest must survive.
  (void)cache.get_or_prepare(TranslateKey{3, {}},
                             [](int m) { return measure_n(m); });
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get(TranslateKey{2, {}}), nullptr);
  EXPECT_NE(cache.get(TranslateKey{3, {}}), nullptr);
}

TEST(TranslateCache, EvictedKeysRemeasureOnNextUse) {
  TranslateCache cache;
  std::atomic<int> measurements{0};
  const TranslateCache::Measure measure = [&](int m) {
    ++measurements;
    return measure_n(m);
  };
  cache.set_byte_budget(1);
  (void)cache.get_or_prepare(TranslateKey{2, {}}, measure);
  (void)cache.get_or_prepare(TranslateKey{3, {}}, measure);  // evicts n=2
  EXPECT_EQ(measurements.load(), 2);
  (void)cache.get_or_prepare(TranslateKey{2, {}}, measure);  // miss again
  EXPECT_EQ(measurements.load(), 3);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TranslateCache, UnboundedByDefaultAndBudgetIsLifted) {
  TranslateCache cache;
  EXPECT_EQ(cache.byte_budget(), 0u);
  for (int n : {2, 3, 4, 5})
    (void)cache.get_or_prepare(TranslateKey{n, {}},
                               [](int m) { return measure_n(m); });
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 0u);

  cache.set_byte_budget(1);
  EXPECT_LT(cache.size(), 4u);
  const auto evicted = cache.evictions();
  EXPECT_GT(evicted, 0u);

  // Lifting the budget stops eviction; new entries accumulate again.
  cache.set_byte_budget(0);
  (void)cache.get_or_prepare(TranslateKey{6, {}},
                             [](int m) { return measure_n(m); });
  EXPECT_EQ(cache.evictions(), evicted);
}

TEST(ThreadPool, DrainsAllTasksAndIsReusable) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), (round + 1) * 100);
  }
}

TEST(OnceCell, RetriesAfterThrowingInitializer) {
  util::OnceCell<int> cell;
  EXPECT_THROW(cell.get_or_init([]() -> int { throw util::Error("boom"); }),
               util::Error);
  EXPECT_EQ(cell.peek(), nullptr);
  EXPECT_EQ(cell.get_or_init([] { return 7; }), 7);
  ASSERT_NE(cell.peek(), nullptr);
  EXPECT_EQ(*cell.peek(), 7);
}

}  // namespace
}  // namespace xp::core
