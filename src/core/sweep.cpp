#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/once_cell.hpp"
#include "util/thread_pool.hpp"

namespace xp::core {

// Tripwire for the cache-key contract: TranslateOptions currently holds
// {bool remove_event_overhead; Time event_overhead_override} and the hash
// below mixes both.  If this assert fires you added (or resized) a field —
// mix it into TranslateKeyHash too, or equal-hash lookups can serve stale
// translations for options that differ only in the unmixed field.
static_assert(sizeof(TranslateOptions) == 16,
              "TranslateOptions layout changed: update TranslateKeyHash "
              "(and tests/sweep_test.cpp hash-audit cases), then adjust "
              "this size check");

std::size_t TranslateKeyHash::operator()(const TranslateKey& k) const {
  // FNV-1a over the key fields; collisions only cost a bucket walk.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(k.n_threads));
  mix(k.topt.remove_event_overhead ? 1 : 0);
  mix(static_cast<std::uint64_t>(k.topt.event_overhead_override.count_ns()));
  return static_cast<std::size_t>(h);
}

struct TranslateCache::Entry {
  util::OnceCell<std::shared_ptr<const TranslatedTrace>> cell;
  std::uint64_t last_use = 0;  ///< LRU tick of the last access
  /// Footprint, set under the cache lock once the value is accounted; 0
  /// while computing or not yet accounted, and such entries never evict.
  std::size_t bytes = 0;
};

void TranslateCache::touch(Entry& e) const { e.last_use = ++tick_; }

std::size_t TranslateCache::footprint_bytes(const TranslatedTrace& tt) {
  std::size_t b = sizeof(TranslatedTrace);
  for (const trace::Trace& t : tt.translated)
    b += t.size() * sizeof(trace::Event);
  if (tt.compiled) {
    for (const CompiledThread& th : tt.compiled->threads) {
      b += th.ops.size() * (sizeof(OpKind) + sizeof(Time)) +
           th.proto.size() * sizeof(trace::Event) +
           th.remotes.size() * sizeof(RemoteRec) +
           th.barrier_ids.size() * sizeof(std::int32_t);
    }
    const EpochClassTable& ec = tt.compiled->epoch_classes;
    b += ec.fingerprint.size() * sizeof(std::uint64_t) +
         ec.class_of.size() * sizeof(std::int32_t) +
         (ec.exemplar.size() + ec.count.size()) * sizeof(std::int64_t);
  }
  return b;
}

void TranslateCache::set_byte_budget(std::size_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = budget;
  evict_to_budget();
}

// Evict least-recently-used accounted entries until the estimated bytes fit
// the budget again.  Entries still computing (or computed but not yet
// accounted) are skipped: their bytes are not in bytes_ yet, and their
// requester accounts them and re-runs eviction under this same lock.  The
// most recently used entry is never evicted, so a single over-budget
// translation stays usable instead of thrashing miss-evict.
void TranslateCache::evict_to_budget() {
  if (budget_ == 0) return;
  while (bytes_ > budget_) {
    auto victim = map_.end();
    std::size_t accounted = 0;
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second->bytes == 0) continue;
      ++accounted;
      if (victim == map_.end() ||
          it->second->last_use < victim->second->last_use)
        victim = it;
    }
    // Ticks are unique, so with two or more accounted entries the LRU one
    // is not the newest.
    if (accounted <= 1) return;
    bytes_ -= victim->second->bytes;
    ++evictions_;
    map_.erase(victim);
  }
}

std::shared_ptr<const TranslatedTrace> TranslateCache::insert(
    const TranslateKey& key, const Prepare& prepare, bool count) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = map_[key];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }
  bool computed = false;
  const auto& value = entry->cell.get_or_init([&] {
    computed = true;
    return std::make_shared<const TranslatedTrace>(prepare());
  });
  std::lock_guard<std::mutex> lock(mu_);
  touch(*entry);
  if (count) ++(computed ? misses_ : hits_);
  if (computed) {
    entry->bytes = footprint_bytes(*value);
    bytes_ += entry->bytes;
    evict_to_budget();
  }
  return value;
}

std::shared_ptr<const TranslatedTrace> TranslateCache::get_or_prepare(
    const TranslateKey& key, const Measure& measure) {
  XP_REQUIRE(key.n_threads >= 1, "translate-cache key needs n_threads >= 1");
  return insert(
      key,
      [&] {
        const trace::Trace measured = measure(key.n_threads);
        XP_REQUIRE(measured.n_threads() == key.n_threads,
                   "measured trace thread count does not match the cache key");
        return prepare_trace(measured, key.topt);
      },
      true);
}

void TranslateCache::put(const trace::Trace& measured,
                         const TranslateOptions& topt) {
  XP_REQUIRE(measured.n_threads() >= 1, "seed trace needs n_threads >= 1");
  (void)insert(TranslateKey{measured.n_threads(), topt},
               [&] { return prepare_trace(measured, topt); }, false);
}

std::shared_ptr<const TranslatedTrace> TranslateCache::get(
    const TranslateKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  // peek() is nullptr while the entry is still computing, so a concurrent
  // get() observes either nothing or the complete immutable translation —
  // never a partially-constructed one.
  const auto* v = it->second->cell.peek();
  if (!v) return nullptr;
  touch(*it->second);
  return *v;
}

std::size_t TranslateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::uint64_t TranslateCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t TranslateCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t TranslateCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

std::size_t TranslateCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t TranslateCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

SweepRunner::SweepRunner(ProgramFactory factory, SweepOptions opt)
    : factory_(std::move(factory)),
      opt_(std::move(opt)),
      cache_(std::make_shared<TranslateCache>()) {}

SweepRunner::SweepRunner(SweepOptions opt)
    : SweepRunner(ProgramFactory{}, std::move(opt)) {}

void SweepRunner::seed_trace(const trace::Trace& measured) {
  cache_->put(measured, opt_.translate);
}

SweepResult SweepRunner::run(const std::vector<SweepPoint>& grid) {
  SweepResult out;
  out.grid = grid;
  out.predictions.resize(grid.size());
  if (grid.empty()) return out;

  for (const SweepPoint& p : grid) {
    XP_REQUIRE(p.n_threads >= 1, "sweep point needs n_threads >= 1");
    p.params.validate(p.n_threads);
  }

  const std::uint64_t hits0 = cache_->hits();
  const std::uint64_t misses0 = cache_->misses();

  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };

  // The measurement for a cache miss (each Scheduler is confined to the OS
  // thread that runs it, so concurrent measurements on pool workers are
  // safe).  `measure_cpu_s` reports how much of a pre-warm job was program
  // measurement (thread-CPU seconds), so translate+compile cost can be
  // attributed separately.
  const auto measure_fn = [this](double* measure_cpu_s) {
    return [this, measure_cpu_s](int n) {
      XP_REQUIRE(factory_ != nullptr,
                 "sweep needs a ProgramFactory or a seed_trace() covering "
                 "n_threads=" +
                     std::to_string(n));
      auto prog = factory_();
      XP_REQUIRE(prog != nullptr, "ProgramFactory returned null");
      rt::MeasureOptions mo;
      mo.n_threads = n;
      mo.host = opt_.host;
      const double cpu0 = util::thread_cpu_seconds();
      trace::Trace t = rt::measure(*prog, mo);
      if (measure_cpu_s) *measure_cpu_s = util::thread_cpu_seconds() - cpu0;
      return t;
    };
  };

  // One pre-warm (measure -> translate -> compile) job per distinct thread
  // count, each owning its key's cells in grid order.
  struct PrewarmJob {
    TranslateKey key;
    std::vector<std::size_t> cells;
    double measure_cpu_s = 0;
    double total_cpu_s = 0;
  };
  std::vector<PrewarmJob> jobs;
  std::unordered_map<TranslateKey, std::size_t, TranslateKeyHash> job_of_key;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    TranslateKey key;
    key.n_threads = grid[i].n_threads;
    key.topt = opt_.translate;
    const auto [it, fresh] = job_of_key.emplace(key, jobs.size());
    if (fresh) jobs.push_back(PrewarmJob{key, {}, 0, 0});
    jobs[it->second].cells.push_back(i);
  }
  // Measurement cost grows with n: submitted largest first at equal
  // (infinite) rank, the biggest measurement starts earliest.
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const PrewarmJob& a, const PrewarmJob& b) {
                     return a.key.n_threads > b.key.n_threads;
                   });

  const int n_workers =
      opt_.n_workers > 0 ? opt_.n_workers : util::ThreadPool::default_workers();
  std::mutex err_mu;
  std::exception_ptr first_error;
  const auto keep_first_error = [&] {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error) first_error = std::current_exception();
  };
  std::vector<double> sim_cpu(grid.size(), 0.0);
  std::atomic<std::size_t> prewarm_left{jobs.size()};
  Clock::time_point prewarm_end;

  util::ThreadPool pool(n_workers);

  // A cell simulates one grid point on its key's prepared trace and writes
  // only its own grid slot, so completion order is irrelevant to the
  // result; the first exception is kept and rethrown once the pool drains.
  const auto cell = [&](std::size_t i,
                        std::shared_ptr<const TranslatedTrace> tt) {
    return [&, i, tt = std::move(tt)] {
      const double cpu0 = util::thread_cpu_seconds();
      try {
        SimOptions sopts;
        sopts.emit_trace = opt_.emit_traces;
        out.predictions[i] = predict(*tt, grid[i].params, sopts);
      } catch (...) {
        keep_first_error();
      }
      sim_cpu[i] = util::thread_cpu_seconds() - cpu0;
    };
  };

  // One stage: each pre-warm job launches its own cells the moment its
  // trace is ready.  Pre-warm jobs outrank every cell (a cell's hint is its
  // finite translated event count — simulation cost is linear in replayed
  // events), so no cell starts while a measurement is still queued, and
  // cells fill the workers the last measurements leave idle.
  const auto sweep0 = Clock::now();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    pool.submit(
        [&, j] {
          PrewarmJob& job = jobs[j];
          const double cpu0 = util::thread_cpu_seconds();
          try {
            const auto tt = cache_->get_or_prepare(
                job.key, measure_fn(&job.measure_cpu_s));
            job.total_cpu_s = util::thread_cpu_seconds() - cpu0;
            double events = 0;
            for (const trace::Trace& t : tt->translated)
              events += static_cast<double>(t.size());
            // The first cell consumes the pre-warm result; duplicates go
            // through the cache (as hits), so hits + misses over a sweep
            // always equals the grid size.
            for (std::size_t c = 0; c < job.cells.size(); ++c)
              pool.submit(
                  cell(job.cells[c],
                       c == 0 ? tt
                              : cache_->get_or_prepare(job.key,
                                                       measure_fn(nullptr))),
                  events);
          } catch (...) {
            keep_first_error();
          }
          if (prewarm_left.fetch_sub(1) == 1) prewarm_end = Clock::now();
        },
        std::numeric_limits<double>::infinity());
  }
  pool.wait();
  const auto sweep1 = Clock::now();
  out.stages.prewarm_wall_s = secs(prewarm_end - sweep0);
  out.stages.simulate_wall_s = secs(sweep1 - prewarm_end);
  for (const PrewarmJob& job : jobs) {
    out.stages.measure_cpu_s += job.measure_cpu_s;
    out.stages.translate_cpu_s += job.total_cpu_s - job.measure_cpu_s;
  }
  for (double s : sim_cpu) out.stages.simulate_cpu_s += s;
  if (first_error) std::rethrow_exception(first_error);

  out.cache_hits = cache_->hits() - hits0;
  out.cache_misses = cache_->misses() - misses0;
  return out;
}

SweepResult SweepRunner::run_grid(const std::vector<int>& procs,
                                  const std::vector<model::SimParams>& machines,
                                  const std::vector<std::string>& labels) {
  XP_REQUIRE(labels.empty() || labels.size() == machines.size(),
             "run_grid: one label per machine (or none)");
  std::vector<SweepPoint> grid;
  grid.reserve(procs.size() * machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (int n : procs) {
      SweepPoint p;
      p.n_threads = n;
      p.params = machines[m];
      p.label = labels.empty() ? "set" + std::to_string(m) : labels[m];
      grid.push_back(std::move(p));
    }
  }
  return run(grid);
}

}  // namespace xp::core
