// Differential suite for representative-epoch sampling (DESIGN.md §15).
//
// The engine-free walk simulates ONE exemplar per epoch class and composes
// the full-trace prediction as sum(class_count x exemplar_time).  That
// identical-epoch dedup must be BITWISE equal to full simulation on every
// input — the golden traces, the suite codes, and sweeps at any worker
// count — and so must the per-epoch walk it shares its loop with (trace
// emitted, or no class table).  The fingerprint itself must be
// collision-robust: permuting work across threads must never merge epochs,
// and epochs a few nanoseconds apart must stay separate classes.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "core/translate.hpp"
#include "metrics/sweep_report.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace xp;
using core::CompiledTrace;
using core::EpochClassTable;
using core::SamplingStats;
using core::SimMode;
using core::SimOptions;
using core::SimResult;
using trace::Event;
using trace::EventKind;
using trace::Trace;
using util::Time;

const char* kLongGoldenPath = XP_GOLDEN_DIR "/pipestencil_long_n4.xpt";
const char* kGridGoldenPath = XP_GOLDEN_DIR "/grid_n4.xpt";

Trace load_golden(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden trace " << path;
  return trace::read_text(in);
}

model::SimParams single_cluster(model::SimParams p) {
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

const Trace& measured(const std::string& bench, int n) {
  static std::map<std::string, Trace> cache;
  const std::string key = bench + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto prog = suite::make_by_name(bench, suite::SuiteConfig{});
  rt::MeasureOptions mo;
  mo.n_threads = n;
  return cache.emplace(key, rt::measure(*prog, mo)).first->second;
}

/// Bitwise comparison of two simulations' numeric outputs (the sampled
/// path never emits a trace, so the extrapolated-event comparison of
/// hybrid_sim_test does not apply).
void expect_bitwise_equal(const SimResult& a, const SimResult& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.makespan.count_ns(), b.makespan.count_ns());
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t t = 0; t < a.threads.size(); ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    const auto& x = a.threads[t];
    const auto& y = b.threads[t];
    EXPECT_EQ(x.compute.count_ns(), y.compute.count_ns());
    EXPECT_EQ(x.comm_wait.count_ns(), y.comm_wait.count_ns());
    EXPECT_EQ(x.barrier_wait.count_ns(), y.barrier_wait.count_ns());
    EXPECT_EQ(x.send_overhead.count_ns(), y.send_overhead.count_ns());
    EXPECT_EQ(x.service_time.count_ns(), y.service_time.count_ns());
    EXPECT_EQ(x.poll_time.count_ns(), y.poll_time.count_ns());
    EXPECT_EQ(x.finish.count_ns(), y.finish.count_ns());
    EXPECT_EQ(x.remote_accesses, y.remote_accesses);
    EXPECT_EQ(x.intra_cluster_accesses, y.intra_cluster_accesses);
    EXPECT_EQ(x.requests_served, y.requests_served);
    EXPECT_EQ(x.interrupts_taken, y.interrupts_taken);
    EXPECT_EQ(x.polls, y.polls);
  }
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.avg_inflight, b.avg_inflight);
}

SimResult run(const CompiledTrace& ct, const model::SimParams& params,
              SimMode mode, bool emit_trace = false) {
  SimOptions opts;
  opts.mode = mode;
  opts.emit_trace = emit_trace;
  return core::simulate_compiled(ct, params, opts);
}

Event ev(std::int64_t t_ns, int thread, EventKind kind, int barrier = -1) {
  Event e;
  e.time = Time::ns(t_ns);
  e.thread = thread;
  e.kind = kind;
  e.barrier_id = barrier;
  return e;
}

/// Hand-built 2-thread measured trace whose interior epochs carry the
/// per-thread compute costs in `epochs` (one inner vector per epoch,
/// n_threads entries each).  All epochs share one shape: a single compute
/// interval per thread, terminated by a barrier.
Trace epoch_trace(const std::vector<std::vector<std::int64_t>>& epochs) {
  const int n = static_cast<int>(epochs.front().size());
  Trace t(n);
  std::vector<std::int64_t> clock(n, 0);
  for (int th = 0; th < n; ++th) t.append(ev(clock[th], th, EventKind::ThreadBegin));
  int barrier = 0;
  for (const auto& costs : epochs) {
    std::int64_t last = 0;
    for (int th = 0; th < n; ++th) {
      clock[th] += costs[th];
      t.append(ev(clock[th], th, EventKind::BarrierEntry, barrier));
      last = std::max(last, clock[th]);
    }
    for (int th = 0; th < n; ++th) {
      clock[th] = last;
      t.append(ev(clock[th], th, EventKind::BarrierExit, barrier));
    }
    ++barrier;
  }
  for (int th = 0; th < n; ++th) {
    clock[th] += 50;
    t.append(ev(clock[th], th, EventKind::ThreadEnd));
  }
  t.sort_by_time();
  t.validate();
  return t;
}

CompiledTrace compile_trace(const Trace& t) {
  core::TranslateOptions topt;
  topt.remove_event_overhead = false;  // keep the hand-built deltas verbatim
  return CompiledTrace::compile(core::translate(t, topt));
}

}  // namespace

// Structural invariants of the compile-time epoch-class table on the long
// iterative v2 golden (80 epochs, pipeline steady state repeats).
TEST(EpochClasses, LongGoldenTableInvariants) {
  const CompiledTrace ct =
      CompiledTrace::compile(core::translate(load_golden(kLongGoldenPath)));
  ASSERT_TRUE(ct.uniform_barriers);
  const EpochClassTable& tab = ct.epoch_classes;
  ASSERT_TRUE(tab.built());
  EXPECT_GE(tab.epochs(), 50);
  EXPECT_LT(tab.n_classes(), tab.epochs() / 2)
      << "an iterative trace must actually repeat epochs";

  // Exemplars are first occurrences, in order; counts partition the trace.
  std::int64_t total = 0;
  for (std::int64_t c = 0; c < tab.n_classes(); ++c) {
    ASSERT_GE(tab.exemplar[c], 0);
    ASSERT_LT(tab.exemplar[c], tab.epochs());
    EXPECT_EQ(tab.class_of[static_cast<std::size_t>(tab.exemplar[c])], c);
    if (c > 0) {
      EXPECT_GT(tab.exemplar[c], tab.exemplar[c - 1]);
    }
    EXPECT_GE(tab.count[c], 1);
    total += tab.count[c];
  }
  EXPECT_EQ(total, tab.epochs());

  // Every member is VERIFIED identical to its exemplar (no hash trust),
  // and shares its fingerprint.
  for (std::int64_t e = 0; e < tab.epochs(); ++e) {
    const std::int32_t c = tab.class_of[static_cast<std::size_t>(e)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, tab.n_classes());
    EXPECT_TRUE(core::epochs_identical(ct, tab.exemplar[c], e));
    EXPECT_EQ(core::epoch_fingerprint(ct, e),
              tab.fingerprint[static_cast<std::size_t>(e)]);
  }

  // The final End-terminated epoch never merges with a barrier epoch.
  EXPECT_EQ(tab.count[tab.class_of.back()], 1);
}

// Permuting WHICH thread does the work must never merge two epochs: the
// per-thread sums are equal, so a fingerprint that ignored thread identity
// (or a grouping that trusted hashes) would collide here.
TEST(EpochClasses, PermutedThreadEpochsDoNotCollide) {
  const Trace t = epoch_trace({{50, 50},      // epoch 0: warmup (carries Begin)
                               {100, 200},    // epoch 1: t0 light, t1 heavy
                               {200, 100},    // epoch 2: permuted
                               {100, 200}});  // epoch 3: repeats epoch 1
  const CompiledTrace ct = compile_trace(t);
  ASSERT_TRUE(ct.epoch_classes.built());

  // Epoch 0 contains the ThreadBegin ops, so only epochs 1..3 share a
  // shape; the interesting comparisons are all interior.
  EXPECT_NE(core::epoch_fingerprint(ct, 1), core::epoch_fingerprint(ct, 2));
  EXPECT_FALSE(core::epochs_identical(ct, 1, 2));
  EXPECT_TRUE(core::epochs_identical(ct, 1, 3));

  const EpochClassTable& tab = ct.epoch_classes;
  EXPECT_NE(tab.class_of[1], tab.class_of[2]);
  EXPECT_EQ(tab.class_of[1], tab.class_of[3]);
}

// Dedup is exact, not approximate: epochs differing by 5 ns on a 1005 ns
// segment stay separate classes, and the sampled walk over those classes
// is bitwise-equal to full simulation.
TEST(EpochClasses, NearIdenticalEpochsStaySeparateClasses) {
  const Trace t = epoch_trace({{500, 500},    // warmup epoch (carries Begin)
                               {1000, 1000},
                               {1005, 1000},  // +5 ns on thread 0
                               {1000, 1000},
                               {1005, 1000}});
  const CompiledTrace ct = compile_trace(t);
  const EpochClassTable& tab = ct.epoch_classes;
  ASSERT_TRUE(tab.built());
  // warmup + {e1,e3} + {e2,e4} + final = 4 classes.
  EXPECT_EQ(tab.n_classes(), 4);

  EXPECT_EQ(tab.class_of[1], tab.class_of[3]);
  EXPECT_EQ(tab.class_of[2], tab.class_of[4]);
  EXPECT_NE(tab.class_of[1], tab.class_of[2]);

  const model::SimParams params = single_cluster(model::shared_memory_preset());
  const SimResult exact = run(ct, params, SimMode::EventDriven);
  const SimResult au = run(ct, params, SimMode::Auto);
  ASSERT_TRUE(au.sampling.active);
  EXPECT_EQ(au.sampling.classes, 4);
  EXPECT_EQ(au.sampling.epochs_simulated, 4);
  EXPECT_EQ(au.sampling.error_bound.count_ns(), 0);
  expect_bitwise_equal(au, exact, "dedup over near-identical epochs");
}

// Acceptance bar: on every suite workload the Auto walk is bitwise-equal
// to EventDriven under the analytic presets where it can engage — sampled
// (one exemplar per class), with the trace emitted, and over a copy
// without its class table (both of which walk every epoch).
TEST(EpochClasses, SuiteWorkloadsBitwiseAcrossModes) {
  // A MipsRatio != 1 forces the per-op walk (no pre-summed segments), so
  // the exemplar walks read their remote records one by one.
  model::SimParams scaled = single_cluster(model::shared_memory_preset());
  scaled.proc.mips_ratio = 0.41;
  const std::vector<std::pair<std::string, model::SimParams>> presets = {
      {"ideal/1cluster", single_cluster(model::ideal_preset())},
      {"shared/1cluster", single_cluster(model::shared_memory_preset())},
      {"shared/1cluster/mips0.41", scaled},
      {"shared", model::shared_memory_preset()}};
  for (const std::string& bench : suite::benchmark_names()) {
    const CompiledTrace ct =
        CompiledTrace::compile(core::translate(measured(bench, 4)));
    CompiledTrace unclassed = ct;
    unclassed.epoch_classes = EpochClassTable{};
    for (const auto& [name, params] : presets) {
      const SimResult ev = run(ct, params, SimMode::EventDriven);
      const SimResult au = run(ct, params, SimMode::Auto);
      expect_bitwise_equal(au, ev, bench + "/" + name + " auto vs event");
      expect_bitwise_equal(run(ct, params, SimMode::Auto, /*emit_trace=*/true),
                           ev, bench + "/" + name + " emitting auto vs event");
      const SimResult flat = run(unclassed, params, SimMode::Auto);
      EXPECT_FALSE(flat.sampling.active) << bench << "/" << name;
      expect_bitwise_equal(flat, ev,
                           bench + "/" + name + " classless auto vs event");
      if (au.sampling.active) {
        // Iterative codes dedup; codes with all-distinct epochs (embar,
        // cyclic) legitimately walk every one.
        EXPECT_LE(au.sampling.epochs_simulated, au.sampling.epochs)
            << bench << "/" << name;
        EXPECT_EQ(au.sampling.error_bound.count_ns(), 0);
      }
    }
  }
}

// The long iterative golden must actually take the sampled path and win:
// far fewer exemplar walks than epochs, bitwise-equal anyway.
TEST(EpochClasses, LongGoldenSampledPathEngagesAndStaysExact) {
  const CompiledTrace ct =
      CompiledTrace::compile(core::translate(load_golden(kLongGoldenPath)));
  const model::SimParams params = single_cluster(model::shared_memory_preset());
  const SimResult ev = run(ct, params, SimMode::EventDriven);
  const SimResult au = run(ct, params, SimMode::Auto);
  ASSERT_TRUE(au.sampling.active);
  EXPECT_EQ(au.sampling.epochs, ct.epoch_classes.epochs());
  EXPECT_EQ(au.sampling.epochs_simulated, ct.epoch_classes.n_classes());
  EXPECT_LT(au.sampling.epochs_simulated, au.sampling.epochs / 2);
  expect_bitwise_equal(au, ev, "long golden auto vs event");
}

// Under the Poll service policy every compute interval pays its poll
// boundaries, which walk_segment counts per interval; the sampled path
// multiplies those counts per class and must stay exact.
TEST(EpochClasses, PollPolicySampledPathIsExact) {
  const CompiledTrace ct =
      CompiledTrace::compile(core::translate(load_golden(kGridGoldenPath)));
  model::SimParams params = single_cluster(model::shared_memory_preset());
  params.proc.policy = model::ServicePolicy::Poll;
  const SimResult ev = run(ct, params, SimMode::EventDriven);
  const SimResult au = run(ct, params, SimMode::Auto);
  ASSERT_TRUE(au.sampling.active);
  EXPECT_EQ(au.sampling.error_bound.count_ns(), 0);
  expect_bitwise_equal(au, ev, "poll policy");
}

// Sweeps must stay deterministic and bitwise-identical across worker
// counts with sampling in play, agree with the event-driven oracle, and
// the runner must attribute the sampled cells in SweepStages.
TEST(EpochClasses, SweepBitwiseAcrossWorkerCounts) {
  std::vector<core::SweepPoint> grid;
  for (int n : {2, 4, 8}) {
    core::SweepPoint p;
    p.n_threads = n;
    p.params = single_cluster(model::shared_memory_preset());
    p.label = "sampled";
    grid.push_back(p);
  }

  std::vector<core::SweepResult> results;
  std::vector<SimResult> oracle;  // EventDriven over the first runner's cache
  for (int workers : {1, 2, 8}) {
    core::SweepOptions opt;
    opt.n_workers = workers;
    opt.emit_traces = false;  // prediction-only sweep: let sampling engage
    core::SweepRunner runner(
        [] { return suite::make_by_name("grid", suite::SuiteConfig{}); },
        opt);
    results.push_back(runner.run(grid));
    if (!oracle.empty()) continue;
    for (const core::SweepPoint& p : grid) {
      core::TranslateKey key;
      key.n_threads = p.n_threads;
      oracle.push_back(
          run(*runner.cache().get(key)->compiled, p.params,
              SimMode::EventDriven));
    }
  }

  for (std::size_t w = 1; w < results.size(); ++w) {
    ASSERT_EQ(results[w].predictions.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE("workers run " + std::to_string(w) + ", cell " +
                   std::to_string(i));
      EXPECT_EQ(results[0].predictions[i].predicted_time.count_ns(),
                results[w].predictions[i].predicted_time.count_ns());
    }
  }
  for (const core::SweepResult& r : results) {
    // Every cell took the sampled path.
    const metrics::SweepPaths paths = metrics::sweep_paths(r);
    EXPECT_EQ(paths.cells_sampled, 3);
    EXPECT_GT(paths.sim_epochs_total, 0);
    EXPECT_GT(paths.sim_epoch_classes, 0);
    EXPECT_LT(paths.sim_epochs_simulated, paths.sim_epochs_total);
  }
  for (std::size_t i = 0; i < grid.size(); ++i)
    expect_bitwise_equal(results[0].predictions[i].sim, oracle[i],
                         "cell " + std::to_string(i) + " vs event oracle");
}
