// suite-cold: a first scalability study.  Every Table-2 code at its default
// SuiteConfig x procs {2,4,8,16,32} x the six presets (210 cells), each code
// through a fresh SweepRunner (cold translate cache, library-default mode
// and options, nproc workers), then metrics::analyze_sweep + fit::fit_sweep.
// Measurement and fitting are a large share of this workload's time; it has
// the grid shape of scalability_report and model_fit_report.
//
// A request is one code's study.  The traced run replays the same pipeline
// from its public calls (rt::measure, core::translate, CompiledTrace::
// compile, core::predict, analyze_sweep, fit_sweep) on the same pool
// schedule, with a span around each call.
#include <memory>

#include "core/sweep.hpp"
#include "fit/fit.hpp"
#include "metrics/sweep_report.hpp"
#include "model/params_io.hpp"
#include "spans.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {

using namespace xp;

namespace {

struct Grid {
  std::vector<std::string> codes;
  std::vector<int> procs;
  std::vector<model::SimParams> machines;
  std::vector<std::string> labels;

  std::size_t cells_per_code() const { return procs.size() * machines.size(); }
  /// Reference key of cell i of a code's run_grid (machine-major).
  std::string key(const std::string& code, std::size_t i) const {
    return "cold/" + code + "/" + std::to_string(procs[i % procs.size()]) + "/" +
           labels[i / procs.size()];
  }
};

Grid make_grid(bool small) {
  Grid g;
  g.codes = cold_codes(small);
  g.procs = cold_procs(small);
  g.labels = preset_names();
  for (const std::string& p : g.labels) g.machines.push_back(model::preset_by_name(p));
  return g;
}

/// A study's outputs are correct when every prediction matches its digest
/// and every machine series got a fitted model.
void check_study(const Grid& g, const std::string& code,
                 const core::SweepResult& r, std::size_t n_fits, Reference& ref,
                 Outcome& out) {
  for (std::size_t i = 0; i < r.predictions.size(); ++i)
    ref.check(g.key(code, i), answer_of(r.predictions[i]), out);
  if (n_fits == g.machines.size())
    out.ok();
  else
    out.fail("fit_sweep returned " + std::to_string(n_fits) + " fits for " + code);
}

/// One pass through the library: per code a fresh SweepRunner, the grid,
/// analyze_sweep and fit_sweep.  Returns each study's wall time.
std::vector<double> library_pass(const Grid& g, Reference& ref, Outcome& out,
                                 SweepTally* tally) {
  std::vector<double> walls;
  for (const std::string& code : g.codes) {
    const auto t0 = Clock::now();
    core::SweepResult r;
    std::size_t n_fits = 0;
    try {
      core::SweepOptions opt;
      opt.n_workers = workers();
      core::SweepRunner runner([&code] { return suite::make_by_name(code); }, opt);
      r = runner.run_grid(g.procs, g.machines, g.labels);
      n_fits = fit::fit_sweep(metrics::analyze_sweep(r)).size();
    } catch (const std::exception& e) {
      out.fail("study of " + code + ": " + e.what(),
               static_cast<std::int64_t>(g.cells_per_code()));
      continue;
    }
    walls.push_back(seconds_since(t0));
    check_study(g, code, r, n_fits, ref, out);
    if (tally) tally->add(r);
  }
  return walls;
}

/// Counters the traced pass collects beside its spans.
struct TracedCounters {
  SimTally sim;
  double classes = 0;
  double epochs = 0;
};

/// The same pass composed from public calls, with spans.  `root` is the
/// pass span; its children ("sweep" per code, "fit" per code) are what
/// trace.coverage adds up.
void traced_pass(const Grid& g, SpanLog& log, int root, Reference& ref,
                 Outcome& out, TracedCounters& tc) {
  for (const std::string& code : g.codes) {
    std::vector<core::TranslatedTrace> prepared(g.procs.size());
    core::SweepResult r;
    std::atomic<bool> failed{false};
    {
      Scope sweep(&log, "sweep", root);
      util::ThreadPool pool(workers());
      {
        Scope stage(&log, "sweep.prewarm", sweep.id());
        for (std::size_t j = 0; j < g.procs.size(); ++j) {
          pool.submit(
              [&, j] {
                try {
                  const int n = g.procs[j];
                  trace::Trace measured;
                  {
                    Scope s(&log, "rt.measure", stage.id());
                    auto prog = suite::make_by_name(code);
                    rt::MeasureOptions mo;
                    mo.n_threads = n;
                    measured = rt::measure(*prog, mo);
                    s.set_count(static_cast<std::int64_t>(measured.size()));
                  }
                  core::TranslatedTrace& tt = prepared[j];
                  tt.n_threads = n;
                  tt.measured_time = measured.end_time();
                  {
                    Scope s(&log, "translate", stage.id());
                    tt.measured_summary = trace::summarize(measured);
                    tt.translated = core::translate(measured);
                    tt.ideal_time = core::ideal_parallel_time(tt.translated);
                  }
                  Scope s(&log, "compile", stage.id());
                  tt.compiled = std::make_shared<const core::CompiledTrace>(
                      core::CompiledTrace::compile(tt.translated));
                } catch (const std::exception& e) {
                  failed = true;
                  out.fail("traced prewarm of " + code + ": " + e.what());
                }
              },
              static_cast<double>(g.procs[j]));
        }
        pool.wait();
      }
      if (failed) {
        out.fail("traced study of " + code,
                 static_cast<std::int64_t>(g.cells_per_code()));
        continue;
      }
      for (const core::TranslatedTrace& tt : prepared) {
        tc.classes += static_cast<double>(tt.compiled->epoch_classes.n_classes());
        tc.epochs += static_cast<double>(tt.compiled->epoch_classes.epochs());
      }
      Scope stage(&log, "sweep.simulate", sweep.id());
      for (std::size_t m = 0; m < g.machines.size(); ++m)
        for (std::size_t j = 0; j < g.procs.size(); ++j) {
          core::SweepPoint p;
          p.n_threads = g.procs[j];
          p.params = g.machines[m];
          p.label = g.labels[m];
          r.grid.push_back(std::move(p));
        }
      r.predictions.resize(r.grid.size());
      for (std::size_t i = 0; i < r.grid.size(); ++i) {
        double events = 0;
        for (const trace::Trace& t : prepared[i % g.procs.size()].translated)
          events += static_cast<double>(t.size());
        pool.submit(
            [&, i] {
              Scope s(&log, "simulate", stage.id());
              try {
                r.predictions[i] = core::predict(prepared[i % g.procs.size()],
                                                 r.grid[i].params);
              } catch (const std::exception& e) {
                failed = true;
                out.fail("traced simulation " + g.key(code, i) + ": " + e.what());
              }
            },
            events);
      }
      pool.wait();
    }
    if (failed) continue;
    std::size_t n_fits = 0;
    {
      Scope s(&log, "fit", root);
      n_fits = fit::fit_sweep(metrics::analyze_sweep(r)).size();
    }
    check_study(g, code, r, n_fits, ref, out);
    for (std::size_t i = 0; i < r.predictions.size(); ++i)
      tc.sim.add(r.predictions[i],
                 prepared[i % g.procs.size()].compiled->epoch_classes.epochs());
  }
}

}  // namespace

Sheet run_suite_cold(const Options& opt, Reference& ref, Outcome& out) {
  const Grid g = make_grid(opt.small);
  const double cells = static_cast<double>(g.codes.size() * g.cells_per_code());
  Sheet s;

  // Set-up: the inputs and the machine reference for pred_error_pct.
  Accuracy acc;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    acc = machine_reference(opt.small);
    setups.push_back(seconds_since(t0));
  }
  s.setup_s = median(setups);

  // One untimed pass lets process-wide lazy state (fiber stack pools, the
  // tracer's capacity hints, allocator arenas) settle before timing.
  library_pass(g, ref, out, nullptr);

  if (!opt.trace) {
    std::vector<double> studies;
    const std::vector<double> passes = repeat_for(opt.seconds, 3, [&] {
      const std::vector<double> w = library_pass(g, ref, out, nullptr);
      studies.insert(studies.end(), w.begin(), w.end());
    });
    double total = 0;
    for (const double w : passes) total += w;
    print_series("pass walls (s)", passes);
    s.predictions_per_s = cells / median(passes);
    s.serve_max_rate_qps = static_cast<double>(studies.size()) / total;
    s.pred_error_pct = pred_error_pct(acc, ref, out);
    s.ok_frac = out.ok_frac();
    s.peak_rss_mb = peak_rss_mb();
    return s;
  }

  // Traced run: half the time through the library (sweep.* counters and the
  // untraced wall), half through the traced replay.
  SweepTally sweeps;
  const std::vector<double> plain = repeat_for(opt.seconds / 2, 2, [&] {
    library_pass(g, ref, out, &sweeps);
  });
  SpanLog log;
  TracedCounters tc;
  double covered = 0, traced_wall = 0;
  const std::vector<double> traced = repeat_for(opt.seconds / 2, 2, [&] {
    int root = 0;
    {
      Scope pass(&log, "pass");
      root = pass.id();
      traced_pass(g, log, root, ref, out, tc);
    }
    covered += log.children_s(root);
    traced_wall += log.duration(root);
  });
  const double np = static_cast<double>(plain.size());
  const double nt = static_cast<double>(traced.size());
  sweeps.store(s, np);

  s.rt_measure_s = log.busy_s("rt.measure") / nt;
  s.rt_events_recorded = static_cast<double>(log.count("rt.measure")) / nt;
  s.translate_busy_s = log.busy_s("translate") / nt;
  s.compile_busy_s = log.busy_s("compile") / nt;
  s.compile_classes_per_epoch = tc.epochs > 0 ? tc.classes / tc.epochs : 0.0;
  s.simulate_busy_s = log.busy_s("simulate") / nt;
  tc.sim.store(s, nt);
  s.simulate_cell_p50_ms = 1e3 * median(log.durations("simulate"));
  s.simulate_cell_p99_ms = 1e3 * quantile(log.durations("simulate"), 0.99);
  s.fit_busy_s = log.busy_s("fit") / nt;
  s.trace_coverage = traced_wall > 0 ? covered / traced_wall : 0.0;
  s.trace_overhead_frac = median(traced) / median(plain) - 1.0;
  if (!opt.out_dir.empty()) log.write_json(opt.out_dir + "/suite-cold.trace.json");
  return s;
}

}  // namespace pb
