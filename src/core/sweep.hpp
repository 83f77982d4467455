// Batch "what if" extrapolation (the workload of §4).
//
// Every real use of ExtraP asks the paper's question — "what would this
// program do on n processors?" — for a whole grid of configurations: thread
// counts x target-machine parameter sets (grid_whatif, machine_shootout,
// scalability_report, the bench/ figures).  The pipeline splits cleanly:
//
//   measure + translate   expensive, depends only on (n_threads, topt)
//   simulate              cheap-ish, depends on the full (trace, SimParams)
//
// SweepRunner exploits that split.  It measures each distinct thread count
// ONCE, memoizes the translated traces in a TranslateCache keyed on
// (n_threads, TranslateOptions), and runs BOTH halves as one stage on one
// util::ThreadPool: the measure->translate->compile jobs of all distinct
// thread counts start first (largest first, so the longest measurement
// starts earliest), and each one submits its own cells' simulations the
// moment its trace is ready, so cells fill the workers that finished
// measuring.  Schedulers are strictly per-OS-thread (fiber/scheduler.hpp),
// so one measurement per worker is safe.
//
// Determinism guarantee: results land in SweepResult::predictions by GRID
// INDEX, never by completion order, and the simulator itself is a
// deterministic discrete-event engine on an integer-nanosecond virtual
// clock.  A sweep therefore produces bitwise-identical Predictions
// regardless of worker count, task submission order, or OS scheduling —
// tests/sweep_test.cpp holds this against sequential Extrapolator runs.
//
// Cache-key contract: two lookups hit the same entry iff their thread
// counts and TranslateOptions compare equal; entries are immutable after
// insert and shared by reference, so concurrent simulations never copy or
// mutate trace data.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/extrapolator.hpp"

namespace xp::core {

/// TranslateCache key: a thread count plus the translation options used.
struct TranslateKey {
  int n_threads = 0;
  TranslateOptions topt;

  bool operator==(const TranslateKey&) const = default;
};

struct TranslateKeyHash {
  std::size_t operator()(const TranslateKey& k) const;
};

/// Memoized measure+translate results, shared across the threads of a
/// sweep.  Insertion is synchronized; each entry is computed exactly once
/// (concurrent requesters of the same key block until it is ready) and is
/// immutable afterwards.
///
/// The key map is SHARDED by key hash: concurrent lookups of distinct keys
/// take independent mutexes, so a pool's simulation fan-out (every cell
/// resolves its trace through here) never serializes on one cache-wide
/// lock.  Each shard's lock only covers the entry lookup — measurement and
/// translation run outside it under the entry's own OnceCell, so a slow
/// miss never blocks hits on other keys of the same shard either.
///
/// Long-lived holders (the xp::serve daemon keeps one cache per source hot
/// for the process lifetime) can cap the resident footprint with
/// set_byte_budget(): when the estimated bytes of completed entries exceed
/// the budget, the least-recently-used completed entries are evicted until
/// the cache fits again (the most recently used entry is always retained,
/// so a single oversized translation cannot evict itself into a thrash
/// loop).  Eviction only drops the cache's reference — holders of the
/// shared_ptr keep their immutable translation alive.
class TranslateCache {
 public:
  /// Callback that produces the measured trace for a thread count (runs at
  /// most once per key; called outside the cache lock).
  using Measure = std::function<trace::Trace(int n_threads)>;

  /// The prepared trace for `key`, measuring + translating on first use.
  std::shared_ptr<const TranslatedTrace> get_or_prepare(
      const TranslateKey& key, const Measure& measure);

  /// Seed an entry from an already-measured trace (keyed by the trace's
  /// own thread count).  No-op if the key is already present.
  void put(const trace::Trace& measured, const TranslateOptions& topt = {});

  /// The entry for `key`, or nullptr if absent.
  std::shared_ptr<const TranslatedTrace> get(const TranslateKey& key) const;

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }

  /// Cap the estimated resident bytes of completed entries; 0 (the
  /// default) means unbounded.  May evict immediately if already over.
  void set_byte_budget(std::size_t budget);
  std::size_t byte_budget() const { return budget_.load(); }
  /// Estimated bytes held by completed entries still in the map.
  std::size_t bytes() const { return bytes_.load(); }
  std::uint64_t evictions() const { return evictions_.load(); }

  /// The footprint estimate eviction accounts with: translated events plus
  /// the compiled SoA arrays (the two allocations that dominate an entry).
  static std::size_t footprint_bytes(const TranslatedTrace& tt);

 private:
  struct Entry;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<TranslateKey, std::shared_ptr<Entry>, TranslateKeyHash>
        map;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(const TranslateKey& key);
  const Shard& shard_for(const TranslateKey& key) const;
  std::shared_ptr<Entry> entry_for(const TranslateKey& key);
  void touch(Entry& e) const;
  void account_insert(Entry& e, const TranslatedTrace& tt);
  void evict_to_budget();

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> tick_{0};  ///< LRU clock
  std::atomic<std::size_t> budget_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// One grid cell: extrapolate to `n_threads` processors under `params`.
struct SweepPoint {
  int n_threads = 0;
  model::SimParams params;
  std::string label;  ///< free-form series tag (machine name, hypothesis, …)
};

/// Per-stage timing of one sweep, for the scaling benchmarks.  *_cpu_s
/// sums per-job thread-CPU seconds (CLOCK_THREAD_CPUTIME_ID — actual work
/// done, immune to oversubscription and time-slicing): parallelism pays
/// when wall time shrinks while the CPU sums stay flat; a CPU sum that
/// inflates with the worker count is real contention.  Measurement and
/// simulation overlap, so the two wall clocks split the sweep's wall time
/// at the moment the last pre-warm job completes and add up to all of it.
/// (Path attribution is derived from the predictions: metrics::sweep_paths.)
struct SweepStages {
  double measure_cpu_s = 0;    ///< summed program-measurement CPU seconds
  double translate_cpu_s = 0;  ///< summed translate + compile CPU seconds
  double simulate_cpu_s = 0;   ///< summed per-cell simulation CPU seconds
  double prewarm_wall_s = 0;   ///< sweep start -> last pre-warm job done
  double simulate_wall_s = 0;  ///< last pre-warm job done -> sweep end
};

struct SweepResult {
  std::vector<SweepPoint> grid;         ///< the request, verbatim
  std::vector<Prediction> predictions;  ///< by grid index
  std::uint64_t cache_hits = 0;    ///< sweep-wide translate-cache hits
  std::uint64_t cache_misses = 0;  ///< = distinct (n_threads, topt) keys
  SweepStages stages;              ///< where this sweep's time went
};

struct SweepOptions {
  /// Simulation workers; 0 = ThreadPool::default_workers().
  int n_workers = 0;
  TranslateOptions translate;
  /// Measurement host for cache misses (n_threads comes from each key).
  rt::HostMachine host = rt::sun4_host();
  /// Task submission order as grid indices (empty = natural order).  A
  /// permutation; exposed so the determinism tests can prove submission
  /// order does not leak into results.
  std::vector<std::size_t> submit_order;
  /// Keep each prediction's extrapolated trace (SimOptions::emit_trace).
  /// phase_fit and pattern composition read them, so they stay on by
  /// default; prediction-only sweeps can turn them off, which also lets
  /// engine-free cells walk one exemplar per epoch class (exact).
  bool emit_traces = true;
};

class SweepRunner {
 public:
  /// Factory invoked once per distinct thread count to build a fresh
  /// Program for measurement (Programs are stateful, so each measurement
  /// needs its own instance).
  using ProgramFactory = std::function<std::unique_ptr<rt::Program>()>;

  SweepRunner(ProgramFactory factory, SweepOptions opt = {});

  /// Trace-seeded runner: no factory; every thread count in a grid must be
  /// covered by seed_trace() beforehand (util::Error otherwise).
  explicit SweepRunner(SweepOptions opt = {});

  /// Pre-populate the cache from an existing measured trace (e.g. loaded
  /// via trace_io), keyed by the trace's thread count and the runner's
  /// TranslateOptions.
  void seed_trace(const trace::Trace& measured);

  /// Run the whole grid.  Measurements for distinct thread counts happen
  /// once each; simulations run on the pool; predictions return in grid
  /// order.  The first task exception (if any) is rethrown after the pool
  /// drains.
  SweepResult run(const std::vector<SweepPoint>& grid);

  /// Convenience: the full cross product procs x machines, row-major
  /// (machine-major: all procs of machines[0] first).  `labels` names each
  /// machine series; empty = "set<i>".
  SweepResult run_grid(const std::vector<int>& procs,
                       const std::vector<model::SimParams>& machines,
                       const std::vector<std::string>& labels = {});

  const SweepOptions& options() const { return opt_; }
  TranslateCache& cache() { return *cache_; }
  const TranslateCache& cache() const { return *cache_; }

 private:
  ProgramFactory factory_;  ///< may be null (trace-seeded runner)
  SweepOptions opt_;
  std::shared_ptr<TranslateCache> cache_;
};

}  // namespace xp::core
