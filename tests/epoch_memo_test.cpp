// Differential coverage for the event path's epoch memo (DESIGN.md §15).
//
// Under SimMode::Auto a run that replays through the engine parks at every
// quiescent cut (every thread arrived at a barrier, nothing else live) and
// replays each recurring epoch class's first window for its later members
// instead of running them through the engine.  The contract: every
// prediction field — makespan, every per-thread stat, messages, bytes,
// avg_inflight — and the emitted trace, event for event in emission order,
// are bit-for-bit those of SimMode::EventDriven, which never memoizes.
// engine_events, HybridStats and SamplingStats record the path taken and
// are left out of the comparison.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_trace.hpp"
#include "core/extrapolator.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "core/translate.hpp"
#include "model/params.hpp"
#include "rt/runtime.hpp"
#include "suite/suite.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace {

using namespace xp;
using core::CompiledTrace;
using core::SimMode;
using core::SimOptions;
using core::SimResult;
using trace::Event;
using trace::EventKind;
using trace::Trace;
using util::Time;

// Four threads, six barriers; every epoch's compute intervals differ from
// every other epoch's, so each epoch is its own class and nothing recurs.
const char* kDriftGoldenPath = XP_GOLDEN_DIR "/drift_n4.xpt";

const std::vector<std::pair<std::string, model::SimParams>>& presets() {
  static const std::vector<std::pair<std::string, model::SimParams>> all = {
      {"distributed", model::distributed_preset()},
      {"cm5", model::cm5_preset()},
      {"paragon", model::paragon_preset()},
      {"sp1", model::sp1_preset()},
      {"shared", model::shared_memory_preset()},
      {"sgi", model::sgi_shared_preset()}};
  return all;
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

SimResult run(const CompiledTrace& ct, const model::SimParams& params,
              SimMode mode) {
  SimOptions opts;
  opts.mode = mode;
  return core::simulate_compiled(ct, params, opts);
}

std::string text_of(const Trace& t) {
  std::ostringstream os;
  trace::write_text(t, os);
  return os.str();
}

void expect_same_prediction(const SimResult& a, const SimResult& b,
                            const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.makespan.count_ns(), b.makespan.count_ns());
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t t = 0; t < a.threads.size(); ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    const core::ThreadStats& x = a.threads[t];
    const core::ThreadStats& y = b.threads[t];
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
  EXPECT_EQ(a.extrapolated.n_threads(), b.extrapolated.n_threads());
  EXPECT_TRUE(a.extrapolated.events() == b.extrapolated.events())
      << "emitted traces differ";
}

std::string serialize(const core::Prediction& p) {
  std::ostringstream os;
  os << p.predicted_time.count_ns() << ' ' << p.sim.messages << ' '
     << p.sim.bytes << ' ' << std::hexfloat << p.sim.avg_inflight << '\n';
  for (const core::ThreadStats& t : p.sim.threads)
    os << t.compute.count_ns() << ' ' << t.comm_wait.count_ns() << ' '
       << t.barrier_wait.count_ns() << ' ' << t.send_overhead.count_ns()
       << ' ' << t.service_time.count_ns() << ' ' << t.poll_time.count_ns()
       << ' ' << t.finish.count_ns() << ' ' << t.remote_accesses << ' '
       << t.intra_cluster_accesses << ' ' << t.requests_served << ' '
       << t.interrupts_taken << ' ' << t.polls << '\n';
  return os.str() + text_of(p.sim.extrapolated);
}

}  // namespace

// The acceptance matrix: 7 suite codes x 6 presets x the three service
// policies at n in {4, 16}.  Every built-in preset has one processor per
// cluster, so every remote-accessing run replays through the engine.
TEST(EpochMemo, SuiteCodesPresetsAndPoliciesMatchEventDriven) {
  std::int64_t epochs = 0;
  std::int64_t simulated = 0;
  for (const std::string& bench : suite::benchmark_names())
    for (const int n : {4, 16}) {
      const CompiledTrace ct =
          CompiledTrace::compile(core::translate(measured(bench, n)));
      for (const auto& [name, preset] : presets())
        for (const model::ServicePolicy policy :
             {model::ServicePolicy::Interrupt,
              model::ServicePolicy::NoInterrupt,
              model::ServicePolicy::Poll}) {
          model::SimParams params = preset;
          params.proc.policy = policy;
          const std::string what = bench + "/n" + std::to_string(n) + "/" +
                                   name + "/" + model::to_string(policy);
          const SimResult ev = run(ct, params, SimMode::EventDriven);
          const SimResult au = run(ct, params, SimMode::Auto);
          expect_same_prediction(au, ev, what);
          EXPECT_FALSE(ev.sampling.active) << what;
          if (au.hybrid.path == core::HybridStats::Path::Event) {
            ASSERT_TRUE(au.sampling.active) << what;
            EXPECT_EQ(au.sampling.epochs, ct.epoch_classes.epochs());
            EXPECT_LE(au.sampling.epochs_simulated, au.sampling.epochs);
            EXPECT_GE(au.sampling.epochs_simulated, au.sampling.classes);
            EXPECT_EQ(au.sampling.error_bound.count_ns(), 0);
            epochs += au.sampling.epochs;
            simulated += au.sampling.epochs_simulated;
          }
        }
    }
  // Iterative codes recur, so the matrix must have skipped real work.
  EXPECT_LT(simulated, epochs / 2);
}

// Grid's steady-state iteration is one class: the memo must hit, so the
// matrix above cannot pass vacuously.
TEST(EpochMemo, GridHitsOnMessageAndAnalyticBarriers) {
  for (const int n : {4, 16}) {
    const CompiledTrace ct =
        CompiledTrace::compile(core::translate(measured("grid", n)));
    for (const auto& [name, params] : presets()) {
      const SimResult ev = run(ct, params, SimMode::EventDriven);
      const SimResult au = run(ct, params, SimMode::Auto);
      const std::string what = "grid/n" + std::to_string(n) + "/" + name;
      ASSERT_EQ(au.hybrid.path, core::HybridStats::Path::Event) << what;
      ASSERT_TRUE(au.sampling.active) << what;
      EXPECT_LT(au.sampling.epochs_simulated, au.sampling.epochs) << what;
      EXPECT_LT(au.engine_events, ev.engine_events) << what;
      expect_same_prediction(au, ev, what);
    }
  }
}

// Every epoch of the drift golden is its own class: the memo records
// nothing, hits nothing, and the run is the event-driven one.
TEST(EpochMemo, DriftingComputeNeverHits) {
  std::ifstream in(kDriftGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden trace " << kDriftGoldenPath;
  const CompiledTrace ct =
      CompiledTrace::compile(core::translate(trace::read_text(in)));
  ASSERT_TRUE(ct.epoch_classes.built());
  EXPECT_EQ(ct.epoch_classes.n_classes(), ct.epoch_classes.epochs());
  EXPECT_EQ(ct.epoch_classes.epochs(), 7);
  for (const auto& [name, params] : presets()) {
    const SimResult ev = run(ct, params, SimMode::EventDriven);
    const SimResult au = run(ct, params, SimMode::Auto);
    ASSERT_TRUE(au.sampling.active) << name;
    EXPECT_EQ(au.sampling.epochs_simulated, au.sampling.epochs) << name;
    EXPECT_GT(au.messages, 0) << name;
    expect_same_prediction(au, ev, "drift/" + name);
  }
}

// compile() builds an epoch-class table only for lockstep barriers.  A
// trace set whose threads pass different barriers gets none (and cannot
// complete: the barriers never fill, in either mode); a compiled trace
// without a table replays exactly as EventDriven does, event for event.
TEST(EpochMemo, NoClassTableLeavesTheMemoOff) {
  const auto thread_trace = [](int t, std::int32_t barrier) {
    Trace tr(2);
    const auto add = [&](std::int64_t ns, EventKind kind,
                         std::int32_t id = -1) {
      Event e;
      e.time = Time::ns(ns);
      e.thread = t;
      e.kind = kind;
      e.barrier_id = id;
      tr.append(e);
    };
    add(0, EventKind::ThreadBegin);
    add(100, EventKind::BarrierEntry, barrier);
    add(150, EventKind::BarrierExit, barrier);
    add(300, EventKind::ThreadEnd);
    return tr;
  };
  const CompiledTrace skewed =
      CompiledTrace::compile({thread_trace(0, 0), thread_trace(1, 1)});
  EXPECT_FALSE(skewed.uniform_barriers);
  EXPECT_FALSE(skewed.epoch_classes.built());
  const model::SimParams shared = model::shared_memory_preset();
  EXPECT_THROW(run(skewed, shared, SimMode::Auto), util::Error);
  EXPECT_THROW(run(skewed, shared, SimMode::EventDriven), util::Error);

  CompiledTrace classless =
      CompiledTrace::compile(core::translate(measured("grid", 4)));
  classless.epoch_classes = core::EpochClassTable{};
  for (const auto& [name, params] : presets()) {
    const SimResult ev = run(classless, params, SimMode::EventDriven);
    const SimResult au = run(classless, params, SimMode::Auto);
    EXPECT_FALSE(au.sampling.active) << name;
    EXPECT_EQ(au.engine_events, ev.engine_events) << name;
    expect_same_prediction(au, ev, "classless/" + name);
  }
}

// The memo lives inside one simulation, so sweep results cannot depend on
// the worker count: {1, 2, 8} workers each match the event-driven oracle.
TEST(EpochMemo, SweepMatchesEventDrivenAtEveryWorkerCount) {
  std::vector<core::SweepPoint> grid;
  for (const auto& [name, params] : presets())
    for (const int n : {4, 16}) {
      core::SweepPoint p;
      p.n_threads = n;
      p.params = params;
      p.label = name;
      grid.push_back(std::move(p));
    }
  for (const std::string bench : {"grid", "mgrid"}) {
    std::vector<std::string> oracle;
    for (const core::SweepPoint& p : grid) {
      SimOptions ev;
      ev.mode = SimMode::EventDriven;
      oracle.push_back(serialize(core::predict(
          core::prepare_trace(measured(bench, p.n_threads)), p.params, ev)));
    }
    for (const int workers : {1, 2, 8}) {
      core::SweepOptions opt;
      opt.n_workers = workers;
      core::SweepRunner runner(opt);
      runner.seed_trace(measured(bench, 4));
      runner.seed_trace(measured(bench, 16));
      const core::SweepResult r = runner.run(grid);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(serialize(r.predictions[i]), oracle[i])
            << bench << " workers=" << workers << " point " << i;
        EXPECT_TRUE(r.predictions[i].sim.sampling.active);
      }
    }
  }
}
