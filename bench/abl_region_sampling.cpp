// Ablation: representative-epoch sampling on long iterative traces.
//
// Iterative programs spend almost all trace length repeating one or two
// barrier-delimited epochs: a 500-iteration Grid sweep is >1000 epochs of
// which ~3 are distinct.  The engine-free walk (DESIGN.md §15) groups
// bit-identical epochs at compile time, walks ONE exemplar per epoch class,
// and composes the full-trace prediction as sum(class_count x
// exemplar_time) — bitwise-equal to full simulation.
//
// This harness simulates Grid at 100/500/1000 iterations (102/502/1002
// epochs) under Auto (sampled), the full analytic walk (the "hybrid" rows:
// Auto over the trace without its epoch-class table), and EventDriven
// against identical translated traces; holds all three bitwise equal; and
// gates sampled >= 10x full-analytic simulate-stage wall time at >= 1000
// epochs.
//
// The event-path rows are the representative ones: Grid at 240 iterations
// and 64 threads on the built-in cm5 and shared presets (one processor per
// cluster, so every cell replays through the engine), trace emitted as
// sweeps do by default.  There Auto's epoch memo replays each recurring
// epoch class through the engine once; the rows gate Auto >= 3x
// EventDriven wall time with bitwise-identical predictions and traces.
//
// A failed shape check makes the binary exit nonzero.  The last stdout
// line is the JSON "sampling", "sampling_speedup_vs_hybrid" and "memo"
// sections of BENCH_sim.json.
//
//   --smoke   run only the Auto grid 1002-epoch cell (CI long-trace smoke,
//             one minute for the whole measure->predict pipeline)
#include <time.h>

#include <cstring>

#include "common.hpp"

namespace xp::bench {
namespace {

double now_s() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

model::SimParams sampling_target() {
  // Single-cluster shared-memory machine: every segment collapses, the
  // whole replay is PureAnalytic, and the sampled path can engage.
  model::SimParams p = model::shared_memory_preset();
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

/// Grid sized so trace LENGTH (iterations) is the variable under study:
/// modest thread count and per-block work, iteration count from `iters`.
/// Grid runs one barrier per iteration plus a warmup barrier and the final
/// End-terminated epoch, so epochs = iters + 2.
suite::SuiteConfig grid_config(std::int64_t iters) {
  suite::SuiteConfig cfg;
  cfg.grid_blocks = 8;  // 64 blocks = 64 threads
  cfg.grid_block_points = 8;
  cfg.grid_iters = iters;
  return cfg;
}

struct Cell {
  double sim_s = 0;
  core::Prediction pred;
};

Cell run_cell(const core::TranslatedTrace& prepared,
              const model::SimParams& params, core::SimMode mode,
              bool emit_trace = false) {
  core::SimOptions opts;
  opts.mode = mode;
  opts.emit_trace = emit_trace;
  Cell cell;
  cell.sim_s = 1e30;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    core::Prediction p = core::predict(prepared, params, opts);
    cell.sim_s = std::min(cell.sim_s, now_s() - t0);
    cell.pred = std::move(p);
  }
  return cell;
}

bool bitwise_equal(const core::Prediction& a, const core::Prediction& b) {
  return a.predicted_time == b.predicted_time &&
         a.ideal_time == b.ideal_time && a.sim.messages == b.sim.messages &&
         a.sim.bytes == b.sim.bytes &&
         a.sim.total_compute() == b.sim.total_compute() &&
         a.sim.total_comm_wait() == b.sim.total_comm_wait() &&
         a.sim.total_barrier_wait() == b.sim.total_barrier_wait();
}

void add_row(JsonObject& rows, std::int64_t epochs, const char* mode,
             const Cell& cell) {
  const core::SamplingStats& sp = cell.pred.sim.sampling;
  rows.obj("sampling_grid_e" + std::to_string(epochs) + "_" + mode,
           JsonObject()
               .count("epochs", epochs)
               .num("seconds", cell.sim_s, 6)
               .count("classes", sp.classes)
               .count("epochs_simulated", sp.epochs_simulated)
               .count("epochs_replayed", sp.epochs_replayed)
               .count("predicted_ns", cell.pred.predicted_time.count_ns()));
}

int run(bool smoke) {
  const model::SimParams params = sampling_target();
  JsonObject rows, speedups;

  if (smoke) {
    // CI long-trace smoke: one >= 1000-epoch workload through Auto.
    auto prog = suite::make_by_name("grid", grid_config(1000));
    rt::MeasureOptions mo;
    mo.n_threads = 64;
    const trace::Trace measured = rt::measure(*prog, mo);
    const core::TranslatedTrace prepared = core::prepare_trace(measured);
    const Cell au = run_cell(prepared, params, core::SimMode::Auto);
    const core::SamplingStats& sp = au.pred.sim.sampling;
    add_row(rows, sp.epochs, "auto", au);
    shape_check("sampled path engaged on the 1002-epoch trace",
                sp.active && sp.epochs >= 1000);
    shape_check("distinct classes stayed tiny on the iterative trace",
                sp.active && sp.classes > 0 && sp.classes <= 8);
    std::cout << JsonObject().obj("sampling", rows).text() << '\n';
    return exit_code();
  }

  std::printf("Representative-epoch sampling on long iterative traces "
              "(grid, 64 threads, single-cluster target)\n\n");
  std::printf("  %7s  %-7s %10s  %8s  %10s\n", "epochs", "mode",
              "sim wall", "classes", "simulated");

  bool all_exact = true;
  bool all_sampled = true;
  double speedup_at_1000 = 0;

  for (std::int64_t iters : {100, 500, 1000}) {
    const double m0 = now_s();
    auto prog = suite::make_by_name("grid", grid_config(iters));
    rt::MeasureOptions mo;
    mo.n_threads = 64;
    const trace::Trace measured = rt::measure(*prog, mo);
    const core::TranslatedTrace prepared = core::prepare_trace(measured);
    const double prep_s = now_s() - m0;

    const Cell ev = run_cell(prepared, params, core::SimMode::EventDriven);
    const Cell hy = run_cell(without_epoch_classes(prepared), params,
                             core::SimMode::Auto);
    const Cell au = run_cell(prepared, params, core::SimMode::Auto);
    const core::SamplingStats& sp = au.pred.sim.sampling;
    const std::int64_t epochs = sp.epochs;

    std::printf("  %7lld  %-7s %8.3f ms  %8s  %10s\n",
                static_cast<long long>(epochs), "event", ev.sim_s * 1e3, "-",
                "-");
    std::printf("  %7lld  %-7s %8.3f ms  %8s  %10s\n",
                static_cast<long long>(epochs), "hybrid", hy.sim_s * 1e3, "-",
                "-");
    std::printf("  %7lld  %-7s %8.3f ms  %8lld  %10lld"
                "   (measure+translate %.2f s)\n",
                static_cast<long long>(epochs), "auto", au.sim_s * 1e3,
                static_cast<long long>(sp.classes),
                static_cast<long long>(sp.epochs_simulated), prep_s);

    if (!bitwise_equal(au.pred, hy.pred) || !bitwise_equal(au.pred, ev.pred))
      all_exact = false;
    if (!sp.active || sp.epochs_simulated >= epochs) all_sampled = false;

    add_row(rows, epochs, "event", ev);
    add_row(rows, epochs, "hybrid", hy);
    add_row(rows, epochs, "auto", au);
    const double speedup = au.sim_s > 0 ? hy.sim_s / au.sim_s : 0.0;
    speedups.num("grid_e" + std::to_string(epochs), speedup, 2);
    if (epochs >= 1000) speedup_at_1000 = speedup;
  }

  // Event-path epoch memo on built-in presets.
  std::printf("\nEvent-path epoch memo (grid 240 iterations, 64 threads, "
              "built-in presets, trace emitted)\n\n");
  std::printf("  %-7s %12s %12s %9s  %8s  %10s\n", "preset", "event",
              "auto", "speedup", "epochs", "simulated");
  JsonObject memo;
  bool memo_exact = true;
  bool memo_engaged = true;
  double memo_min_speedup = 1e30;
  {
    suite::SuiteConfig cfg;
    cfg.grid_iters = 240;
    auto prog = suite::make_by_name("grid", cfg);
    rt::MeasureOptions mo;
    mo.n_threads = 64;
    const core::TranslatedTrace prepared =
        core::prepare_trace(rt::measure(*prog, mo));
    for (const auto& [name, params] :
         {std::pair<const char*, model::SimParams>{"cm5", model::cm5_preset()},
          {"shared", model::shared_memory_preset()}}) {
      const Cell ev = run_cell(prepared, params, core::SimMode::EventDriven,
                               /*emit_trace=*/true);
      const Cell au =
          run_cell(prepared, params, core::SimMode::Auto, /*emit_trace=*/true);
      const core::SamplingStats& sp = au.pred.sim.sampling;
      const double speedup = au.sim_s > 0 ? ev.sim_s / au.sim_s : 0.0;
      std::printf("  %-7s %9.3f ms %9.3f ms %8.1fx  %8lld  %10lld\n", name,
                  ev.sim_s * 1e3, au.sim_s * 1e3, speedup,
                  static_cast<long long>(sp.epochs),
                  static_cast<long long>(sp.epochs_simulated));
      if (!bitwise_equal(au.pred, ev.pred) ||
          au.pred.sim.extrapolated.events() != ev.pred.sim.extrapolated.events())
        memo_exact = false;
      if (!sp.active || sp.epochs_simulated >= sp.epochs) memo_engaged = false;
      memo_min_speedup = std::min(memo_min_speedup, speedup);
      memo.obj(std::string("memo_grid240_n64_") + name,
               JsonObject()
                   .num("event_seconds", ev.sim_s, 6)
                   .num("auto_seconds", au.sim_s, 6)
                   .num("speedup", speedup, 2)
                   .count("epochs", sp.epochs)
                   .count("classes", sp.classes)
                   .count("epochs_simulated", sp.epochs_simulated)
                   .count("predicted_ns", au.pred.predicted_time.count_ns()));
    }
  }

  std::printf("\nShape checks (DESIGN.md §15: dedup is exact):\n");
  shape_check("auto == hybrid == event-driven bitwise at every length",
              all_exact);
  shape_check("sampled path engaged and walked fewer epochs than the trace",
              all_sampled);
  {
    char claim[128];
    std::snprintf(claim, sizeof claim,
                  "sampled >= 10x full-analytic simulate at 1002 epochs "
                  "(%.1fx)",
                  speedup_at_1000);
    shape_check(claim, speedup_at_1000 >= 10.0);
  }
  shape_check("memo: auto == event-driven bitwise, trace included, on cm5 "
              "and shared",
              memo_exact);
  shape_check("memo engaged: fewer epochs through the engine than the trace",
              memo_engaged);
  {
    char claim[128];
    std::snprintf(claim, sizeof claim,
                  "memo: auto >= 3x event-driven simulate on grid-240 n=64, "
                  "cm5 and shared (min %.1fx)",
                  memo_min_speedup);
    shape_check(claim, memo_min_speedup >= 3.0);
  }
  std::cout << JsonObject()
                   .obj("sampling", rows)
                   .obj("sampling_speedup_vs_hybrid", speedups)
                   .obj("memo", memo)
                   .text()
            << '\n';
  return exit_code();
}

}  // namespace
}  // namespace xp::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return xp::bench::run(smoke);
}
