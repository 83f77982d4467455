// whatif-warm: the what-if loop that follows a measurement.  Long iterative
// traces (Grid at 240 Jacobi iterations, Mgrid at 8 V-cycles, n in
// {16,32,64}) are measured, translated and compiled during set-up; each
// request then simulates the whole preset x MIPS-ratio grid on the warm
// translate cache.  Simulation is nearly all of the time and measurement
// none of it, so simulator work shows here and measurement work must not.
#include <iostream>
#include <memory>

#include "core/sweep.hpp"
#include "model/params_io.hpp"
#include "spans.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {

using namespace xp;

namespace {

suite::SuiteConfig whatif_config() {
  suite::SuiteConfig cfg;
  cfg.grid_iters = 240;
  cfg.mgrid_cycles = 8;
  return cfg;
}

struct Plan {
  std::vector<std::string> codes;
  std::vector<int> procs;
  std::vector<double> mips;  ///< multipliers of each preset's own MIPS ratio
};

Plan make_plan(bool small) {
  if (small) return {{"mgrid"}, {16}, {1.0, 2.0}};
  return {{"grid", "mgrid"}, {16, 32, 64}, {0.5, 1.0, 2.0}};
}

std::string mips_str(double m) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", m);
  return buf;
}

/// One code's what-if grid (preset x MIPS ratio x n) and reference keys.
struct CodeGrid {
  std::string code;
  std::vector<core::SweepPoint> points;
  std::vector<std::string> keys;
};

CodeGrid make_code_grid(const Plan& plan, const std::string& code) {
  CodeGrid cg;
  cg.code = code;
  for (const std::string& name : preset_names())
    for (const double m : plan.mips)
      for (const int n : plan.procs) {
        core::SweepPoint p;
        p.n_threads = n;
        p.params = model::preset_by_name(name);
        p.params.proc.mips_ratio *= m;
        p.label = name + "@x" + mips_str(m);
        cg.points.push_back(std::move(p));
        cg.keys.push_back("whatif/" + code + "/" + std::to_string(n) + "/" + name +
                          "/x" + mips_str(m));
      }
  return cg;
}

/// Set-up state: one SweepRunner per code with every thread count measured,
/// translated and compiled into its cache.
struct Warm {
  std::vector<CodeGrid> grids;
  std::vector<std::unique_ptr<core::SweepRunner>> runners;
  std::vector<trace::Trace> measured;  ///< kept by traced runs only
  Accuracy acc;
};

Warm set_up(const Options& opt, const Plan& plan, SpanLog* log) {
  Warm w;
  w.acc = machine_reference(opt.small);
  const suite::SuiteConfig cfg = whatif_config();
  for (const std::string& code : plan.codes) {
    w.grids.push_back(make_code_grid(plan, code));
    core::SweepOptions so;
    so.n_workers = workers();
    w.runners.push_back(std::make_unique<core::SweepRunner>(
        [code, cfg] { return suite::make_by_name(code, cfg); }, so));
  }
  const std::size_t jobs = plan.codes.size() * plan.procs.size();
  if (log) w.measured.resize(jobs);
  util::ThreadPool pool(workers());
  std::atomic<bool> failed{false};
  for (std::size_t j = 0; j < jobs; ++j) {
    const int n = plan.procs[j % plan.procs.size()];
    pool.submit(
        [&, j, n] {
          try {
            const std::string& code = plan.codes[j / plan.procs.size()];
            trace::Trace t;
            {
              Scope s(log, "rt.measure");
              auto prog = suite::make_by_name(code, cfg);
              rt::MeasureOptions mo;
              mo.n_threads = n;
              t = rt::measure(*prog, mo);
              s.set_count(static_cast<std::int64_t>(t.size()));
            }
            w.runners[j / plan.procs.size()]->seed_trace(t);
            if (log) w.measured[j] = std::move(t);
          } catch (const std::exception& e) {
            std::cerr << "perfbench: set-up measurement failed: " << e.what() << '\n';
            failed = true;
          }
        },
        static_cast<double>(n));
  }
  pool.wait();
  XP_REQUIRE(!failed, "whatif-warm set-up failed");
  return w;
}

/// One request through the library: every code's grid on its warm runner.
void library_pass(Warm& w, Reference& ref, Outcome& out, SweepTally* tally) {
  for (std::size_t c = 0; c < w.grids.size(); ++c) {
    const CodeGrid& cg = w.grids[c];
    core::SweepResult r;
    try {
      r = w.runners[c]->run(cg.points);
    } catch (const std::exception& e) {
      out.fail("what-if grid of " + cg.code + ": " + e.what(),
               static_cast<std::int64_t>(cg.points.size()));
      continue;
    }
    for (std::size_t i = 0; i < r.predictions.size(); ++i)
      ref.check(cg.keys[i], answer_of(r.predictions[i]), out);
    if (tally) tally->add(r);
  }
}

/// The same request composed from public calls: the cached translation of
/// each cell and core::predict on a pool, LPT by replayed events as the
/// sweep does, with a span per call.
void traced_pass(Warm& w, SpanLog& log, int root, Reference& ref, Outcome& out,
                 SimTally& sim) {
  for (std::size_t c = 0; c < w.grids.size(); ++c) {
    const CodeGrid& cg = w.grids[c];
    std::vector<core::Prediction> preds(cg.points.size());
    std::vector<std::shared_ptr<const core::TranslatedTrace>> prepared(cg.points.size());
    std::atomic<bool> failed{false};
    {
      Scope sweep(&log, "sweep", root);
      util::ThreadPool pool(workers());
      Scope stage(&log, "sweep.simulate", sweep.id());
      for (std::size_t i = 0; i < cg.points.size(); ++i) {
        core::TranslateKey key;
        key.n_threads = cg.points[i].n_threads;
        key.topt = w.runners[c]->options().translate;
        prepared[i] = w.runners[c]->cache().get(key);
        XP_REQUIRE(prepared[i] != nullptr, "warm cache lost an entry");
        double events = 0;
        for (const trace::Trace& t : prepared[i]->translated)
          events += static_cast<double>(t.size());
        pool.submit(
            [&, i] {
              Scope s(&log, "simulate", stage.id());
              try {
                preds[i] = core::predict(*prepared[i], cg.points[i].params);
              } catch (const std::exception& e) {
                failed = true;
                out.fail("traced simulation " + cg.keys[i] + ": " + e.what());
              }
            },
            events);
      }
      pool.wait();
    }
    if (failed) continue;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      ref.check(cg.keys[i], answer_of(preds[i]), out);
      sim.add(preds[i], prepared[i]->compiled->epoch_classes.epochs());
    }
  }
}

}  // namespace

Sheet run_whatif_warm(const Options& opt, Reference& ref, Outcome& out) {
  const Plan plan = make_plan(opt.small);
  Sheet s;
  std::unique_ptr<SpanLog> log;
  if (opt.trace) log = std::make_unique<SpanLog>();

  Warm w;
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : kSetupReps); ++i) {
    const auto t0 = Clock::now();
    w = set_up(opt, plan, log.get());
    setups.push_back(seconds_since(t0));
  }
  s.setup_s = median(setups);
  double cells = 0;
  for (const CodeGrid& cg : w.grids) cells += static_cast<double>(cg.points.size());

  library_pass(w, ref, out, nullptr);  // untimed warm-up

  if (!opt.trace) {
    const std::vector<double> passes = repeat_for(opt.seconds, 3, [&] {
      library_pass(w, ref, out, nullptr);
    });
    double total = 0;
    for (const double p : passes) total += p;
    print_series("pass walls (s)", passes);
    s.predictions_per_s = cells / median(passes);
    s.serve_max_rate_qps = static_cast<double>(passes.size()) / total;
    s.pred_error_pct = pred_error_pct(w.acc, ref, out);
    s.ok_frac = out.ok_frac();
    s.peak_rss_mb = peak_rss_mb();
    return s;
  }

  // Translation and compilation ran inside the runners' caches at set-up;
  // time them here on the same measured traces.
  double classes = 0, epochs = 0;
  for (const trace::Trace& t : w.measured) {
    std::vector<trace::Trace> translated;
    {
      Scope sc(log.get(), "translate");
      (void)trace::summarize(t);
      translated = core::translate(t);
      (void)core::ideal_parallel_time(translated);
    }
    Scope sc(log.get(), "compile");
    const core::CompiledTrace ct = core::CompiledTrace::compile(translated);
    classes += static_cast<double>(ct.epoch_classes.n_classes());
    epochs += static_cast<double>(ct.epoch_classes.epochs());
  }

  SweepTally sweeps;
  const std::vector<double> plain = repeat_for(opt.seconds / 2, 2, [&] {
    library_pass(w, ref, out, &sweeps);
  });
  SimTally sim;
  double covered = 0, traced_wall = 0;
  const std::vector<double> traced = repeat_for(opt.seconds / 2, 2, [&] {
    int root = 0;
    {
      Scope pass(log.get(), "pass");
      root = pass.id();
      traced_pass(w, *log, root, ref, out, sim);
    }
    covered += log->children_s(root);
    traced_wall += log->duration(root);
  });
  const double np = static_cast<double>(plain.size());
  const double nt = static_cast<double>(traced.size());
  s.rt_measure_s = log->busy_s("rt.measure");
  s.rt_events_recorded = static_cast<double>(log->count("rt.measure"));
  s.translate_busy_s = log->busy_s("translate");
  s.compile_busy_s = log->busy_s("compile");
  s.compile_classes_per_epoch = epochs > 0 ? classes / epochs : 0.0;
  sweeps.store(s, np);
  s.simulate_busy_s = log->busy_s("simulate") / nt;
  sim.store(s, nt);
  s.simulate_cell_p50_ms = 1e3 * median(log->durations("simulate"));
  s.simulate_cell_p99_ms = 1e3 * quantile(log->durations("simulate"), 0.99);
  s.trace_coverage = traced_wall > 0 ? covered / traced_wall : 0.0;
  s.trace_overhead_frac = median(traced) / median(plain) - 1.0;
  if (!opt.out_dir.empty()) log->write_json(opt.out_dir + "/whatif-warm.trace.json");
  return s;
}

}  // namespace pb
