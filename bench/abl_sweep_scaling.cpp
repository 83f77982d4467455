// abl_sweep_scaling — wall-clock scaling of the parallel sweep engine.
//
// Two claims under test (core/sweep.hpp):
//
//  1. Warm cache: once the per-thread-count traces are measured and
//     translated, the simulations of a what-if grid are independent and
//     fan out across the pool with near-linear speedup.  A what-if session
//     asks one grid after another of one runner; the warm rows time such a
//     session of back-to-back batches.
//  2. Cold cache: the (measure -> translate -> compile) jobs of all
//     distinct thread counts run on the same pool, each releasing its own
//     cells as soon as its trace is ready, so END-TO-END sweeps scale too.
//
// Both sections time the SAME 60-point grid (6 machine parameter sets x
// 10 processor counts; the warm session repeats it so the epoch memo's
// ~20 ms batches still add up to >= 0.5 s single-threaded, and the cold
// run's measurements take ~1 s, so parallelism has something to pay for)
// through SweepRunner at 1/2/4/8 workers and
// report wall-clock speedup over the 1-worker run, plus a bitwise check
// that every worker count produced identical predictions.  The e2e rows
// carry the per-stage breakdown — CPU-second sums (work done; flat CPU
// across worker counts means contention-free scaling) AND per-stage wall
// clocks.  The shape checks are the gates (the binary exits nonzero when
// one fails): >= 3x e2e at 4 workers with measure CPU within 1.3x of the
// 1-worker run on hosts with >= 4 CPUs, >= 5x at 8 workers with >= 8.
// The last stdout line is the JSON "sweep" section of BENCH_sim.json.
#include <chrono>
#include <iostream>

#include "core/sweep.hpp"
#include "common.hpp"
#include "metrics/sweep_report.hpp"
#include "util/thread_pool.hpp"

using namespace xp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string fingerprint(const core::SweepResult& r) {
  std::string s;
  for (const auto& p : r.predictions) {
    s += std::to_string(p.predicted_time.count_ns());
    s += ':';
    s += std::to_string(p.sim.engine_events);
    s += ';';
  }
  return s;
}

}  // namespace

int main() {
  std::cout << "=== sweep scaling: parallel vs sequential what-if grids ===\n";
  const std::string bench = "grid";
  // Longer traces than the suite default so the single-threaded end-to-end
  // run clears 1 s — a grid that finishes in 76 ms cannot show speedup.
  suite::SuiteConfig cfg;
  cfg.grid_iters = 60;
  const std::vector<int> procs = {4, 8, 12, 16, 20, 24, 32, 40, 48, 64};
  const std::vector<model::SimParams> machines = {
      model::distributed_preset(), model::cm5_preset(),
      model::paragon_preset(),     model::sp1_preset(),
      model::shared_memory_preset(), model::sgi_shared_preset()};
  const std::vector<std::string> labels = {"distributed", "cm5",    "paragon",
                                           "sp1",         "shared", "sgi"};
  const std::size_t grid_points = procs.size() * machines.size();

  const int hw = util::ThreadPool::default_workers();
  std::cout << "host hardware_concurrency: " << hw << "\n";

  // Measure once, up front, so every warm-cache run starts from the same
  // seeded cache and those timings isolate the simulation fan-out.
  auto t0 = std::chrono::steady_clock::now();
  std::map<int, trace::Trace> traces;
  for (int n : procs) {
    auto prog = suite::make_by_name(bench, cfg);
    rt::MeasureOptions mo;
    mo.n_threads = n;
    traces.emplace(n, rt::measure(*prog, mo));
  }
  const double measure_s = seconds_since(t0);
  std::cout << "measured " << traces.size() << " traces of '" << bench
            << "' in " << std::fixed;
  std::cout.precision(2);
  std::cout << measure_s << " s (done once, shared by every warm run)\n\n";

  const std::vector<int> worker_counts = {1, 2, 4, 8};

  const int reps = 3;      // best-of to shave scheduler noise
  const int batches = 30;  // back-to-back grids per warm session
  std::map<int, double> best_s;
  bench::JsonObject rows;
  double seq_best = 0.0;
  std::string seq_fp;
  bool all_match = true;
  std::cout << "-- warm cache (simulation fan-out only; " << batches
            << " batches per session) --\n";
  std::cout << "  workers      best of " << reps << "      speedup   grid\n";
  for (int workers : worker_counts) {
    double best = 1e30;
    std::string fp;
    // One runner per worker count, as a what-if session keeps one.
    core::SweepOptions opt;
    opt.n_workers = workers;
    core::SweepRunner runner(opt);
    for (const auto& [n, t] : traces) runner.seed_trace(t);
    for (int r = 0; r < reps; ++r) {
      t0 = std::chrono::steady_clock::now();
      for (int b = 0; b < batches; ++b)
        fp = fingerprint(runner.run_grid(procs, machines, labels));
      const double s = seconds_since(t0);
      if (s < best) best = s;
    }
    best_s[workers] = best;
    if (workers == 1) {
      seq_best = best;
      seq_fp = fp;
    }
    if (fp != seq_fp) all_match = false;
    std::printf("  %7d   %9.3f s   %8.2fx   %zu points%s\n", workers, best,
                seq_best / best, grid_points,
                fp == seq_fp ? "" : "   !! PREDICTIONS DIFFER");
    rows.obj("sweep_grid_workers_" + std::to_string(workers),
             bench::JsonObject()
                 .num("seconds", best, 3)
                 .num("speedup_vs_sequential", seq_best / best, 2));
  }

  // Cold cache: a fresh runner with a ProgramFactory, so every run pays
  // the full measure -> translate -> compile -> simulate pipeline.  The
  // 10 distinct measurements fan over the pool, each launching its cells.
  // Stage columns: CPU-second sums for measure/translate/simulate (work
  // done — inflation vs the 1-worker row is contention), then the wall
  // clock up to the last pre-warm job's end and after it.
  const int e2e_reps = 2;  // measurements dominate; two reps bound the noise
  std::map<int, double> e2e_best_s;
  std::map<int, core::SweepStages> e2e_stages;
  double e2e_seq_best = 0.0;
  std::string e2e_seq_fp;
  bool e2e_all_match = true;
  std::cout << "\n-- cold cache (end-to-end: measure + translate + simulate) "
               "--\n";
  std::cout << "  workers        total   meas.cpu    tra.cpu    sim.cpu  "
               "prew.wall   sim.wall   speedup\n";
  for (int workers : worker_counts) {
    double best = 1e30;
    core::SweepStages stages;
    metrics::SweepPaths paths;
    std::string fp;
    for (int r = 0; r < e2e_reps; ++r) {
      core::SweepOptions opt;
      opt.n_workers = workers;
      core::SweepRunner runner([&] { return suite::make_by_name(bench, cfg); },
                               opt);
      t0 = std::chrono::steady_clock::now();
      const core::SweepResult result = runner.run_grid(procs, machines, labels);
      const double s = seconds_since(t0);
      if (s < best) {
        best = s;
        stages = result.stages;
        paths = metrics::sweep_paths(result);
      }
      fp = fingerprint(result);
    }
    e2e_best_s[workers] = best;
    e2e_stages[workers] = stages;
    if (workers == 1) {
      e2e_seq_best = best;
      e2e_seq_fp = fp;
    }
    if (fp != e2e_seq_fp) e2e_all_match = false;
    std::printf(
        "  e2e %3d   %8.3f s  %8.3f s  %8.3f s  %8.3f s  %8.3f s  %8.3f s  "
        "%7.2fx%s\n",
        workers, best, stages.measure_cpu_s, stages.translate_cpu_s,
        stages.simulate_cpu_s, stages.prewarm_wall_s, stages.simulate_wall_s,
        e2e_seq_best / best, fp == e2e_seq_fp ? "" : "   !! PREDICTIONS DIFFER");
    // Which cells collapsed analytically vs ran the event engine, so the
    // JSON row tells how much of an e2e win came from either.
    rows.obj("sweep_e2e_workers_" + std::to_string(workers),
             bench::JsonObject()
                 .num("seconds", best, 3)
                 .num("measure_cpu_seconds", stages.measure_cpu_s, 3)
                 .num("translate_cpu_seconds", stages.translate_cpu_s, 3)
                 .num("simulate_cpu_seconds", stages.simulate_cpu_s, 3)
                 .num("prewarm_wall_seconds", stages.prewarm_wall_s, 3)
                 .num("simulate_wall_seconds", stages.simulate_wall_s, 3)
                 .num("speedup_vs_sequential", e2e_seq_best / best, 2)
                 .count("cells_event", paths.cells_event)
                 .count("cells_hybrid", paths.cells_hybrid)
                 .count("sim_events_fired", paths.sim_events_fired)
                 .count("sim_segments_collapsed", paths.sim_segments_collapsed)
                 .count("sim_segments_total", paths.sim_segments_total)
                 .count("sim_ops_collapsed", paths.sim_ops_collapsed));
  }

  // Within-run ratios, so host-speed drift cannot mask a regression; the
  // floors apply only where the host exposes the cores.
  std::cout << '\n';
  char claim[160];
  if (hw >= 4) {
    bench::shape_check("4 workers give >= 2x wall-clock speedup on the "
                       "warm 60-point grid",
                       seq_best / best_s.at(4) >= 2.0);
    const double e2e4 = e2e_seq_best / e2e_best_s.at(4);
    std::snprintf(claim, sizeof claim,
                  "4 workers give >= 3x end-to-end speedup on the cold "
                  "60-point grid (%.2fx)",
                  e2e4);
    bench::shape_check(claim, e2e4 >= 3.0);
    const double cpu1 = e2e_stages.at(1).measure_cpu_s;
    const double cpu_ratio =
        cpu1 > 0 ? e2e_stages.at(4).measure_cpu_s / cpu1 : 1.0;
    std::snprintf(claim, sizeof claim,
                  "measurement CPU-seconds at 4 workers stay within 1.3x of "
                  "the 1-worker run, i.e. no shared-state contention (%.2fx)",
                  cpu_ratio);
    bench::shape_check(claim, cpu_ratio <= 1.3);
  }
  if (hw >= 8) {
    const double e2e8 = e2e_seq_best / e2e_best_s.at(8);
    std::snprintf(claim, sizeof claim,
                  "8 workers give >= 5x end-to-end speedup on the cold "
                  "60-point grid (%.2fx)",
                  e2e8);
    bench::shape_check(claim, e2e8 >= 5.0);
  } else {
    std::cout << "  [n/a ] this host exposes " << hw << " CPU(s); the "
              << (hw < 4 ? "speedup checks need" : "8-worker check needs")
              << " >= " << (hw < 4 ? 4 : 8) << "\n";
  }
  bench::shape_check("every worker count produced bitwise-identical "
                     "predictions (warm cache)",
                     all_match);
  bench::shape_check("every worker count produced bitwise-identical "
                     "predictions (cold cache)",
                     e2e_all_match);
  std::cout << bench::JsonObject()
                   .count("hw_concurrency", hw)
                   .obj("sweep", rows)
                   .text()
            << '\n';
  return bench::exit_code();
}
