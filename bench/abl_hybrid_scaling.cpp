// Ablation: hybrid analytic/discrete-event simulation at large n.
//
// The event-driven replay costs one engine event per traced operation, so
// simulating 10^5 processors means tens of millions of heap pops even when
// every thread just computes between barriers.  The engine-free path
// (DESIGN.md §13) collapses every segment into closed-form arithmetic and
// runs barrier epochs analytically; on a single-cluster shared-memory
// target SimMode::Auto takes it and the event engine never starts.
//
// This harness measures that directly: simulate Grid and Cyclic at
// n in {64 .. 100000} on both paths (event-driven only where feasible)
// against identical translated traces, and report wall time, engine events
// fired, and segments collapsed per cell.  The "hybrid" rows time the
// collapse-only analytic walk: Auto over a trace without its epoch-class
// table, so representative-epoch sampling (bench/abl_region_sampling)
// cannot shortcut the walk.  Both paths are exact, so the harness also
// holds their predictions bitwise equal where both run.
//
// The shape checks gate bitwise equality, the engine-free path and the
// analytic walk >= 10x event-driven at n=1024 on both benchmarks (the
// binary exits nonzero when one fails).  The last stdout line is the JSON
// "hybrid" and "hybrid_speedup_vs_event" sections of BENCH_sim.json.
//
//   --smoke   run only the analytic grid n=100000 cell (the CI huge-n smoke
//             budget is one minute for the whole measure->predict pipeline)
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

model::SimParams scaling_target() {
  // Single-cluster shared-memory machine: no messages, every remote
  // access intra-cluster, so the classifier can collapse whole epochs.
  model::SimParams p = model::shared_memory_preset();
  p.cluster.procs_per_cluster = 1 << 30;
  return p;
}

/// Problem sizes that keep the MEASUREMENT (100k fibers on one core)
/// inside the CI smoke budget while giving every thread real per-epoch
/// work for the simulator to chew on.
suite::SuiteConfig config_for(const std::string& bench, int n) {
  suite::SuiteConfig cfg;
  if (bench == "grid") {
    std::int64_t g = 8;
    while (g * g < n) g *= 2;
    if (n > 10000) g = 320;  // 320^2 = 102400 blocks >= 100k threads
    cfg.grid_blocks = g;
    cfg.grid_block_points = n <= 1024 ? 16 : 8;
    cfg.grid_iters = n <= 1024 ? 10 : 5;
  } else if (bench == "cyclic") {
    // Eight equations per thread at the event-feasible sizes: a real
    // per-epoch slab of work, so the comparison measures engine cost per
    // loaded processor rather than per near-empty barrier interval.
    const std::int64_t target = n <= 1024 ? 8 * static_cast<std::int64_t>(n)
                                          : static_cast<std::int64_t>(n);
    std::int64_t m = 1024;
    while (m < target) m *= 2;
    cfg.cyclic_size = m;
    cfg.cyclic_width = n <= 1024 ? 8 : 2;
  }
  return cfg;
}

const char* path_name(core::HybridStats::Path p) {
  switch (p) {
    case core::HybridStats::Path::Event: return "event";
    case core::HybridStats::Path::PureAnalytic: return "analytic";
  }
  return "?";
}

struct Cell {
  double sim_s = 0;
  core::Prediction pred;
};

/// Simulate `prepared` under `mode`, best-of-k wall time (k shrinks as n
/// grows — the big cells are single-shot).
Cell run_cell(const core::TranslatedTrace& prepared,
              const model::SimParams& params, core::SimMode mode, int n) {
  core::SimOptions opts;
  opts.mode = mode;
  opts.emit_trace = false;  // nobody reads the 10^5-thread trace
  const int reps = n <= 1024 ? 3 : 1;
  Cell cell;
  cell.sim_s = 1e30;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    core::Prediction p = core::predict(prepared, params, opts);
    cell.sim_s = std::min(cell.sim_s, now_s() - t0);
    cell.pred = std::move(p);
  }
  return cell;
}

JsonObject json_row(const Cell& cell) {
  const auto& h = cell.pred.sim.hybrid;
  return JsonObject()
      .num("seconds", cell.sim_s, 6)
      .count("engine_events", cell.pred.sim.engine_events)
      .count("segments_collapsed", h.segments_collapsed)
      .count("segments_total", h.segments_total)
      .str("path", path_name(h.path));
}

int run(bool smoke) {
  const model::SimParams params = scaling_target();

  struct Study {
    std::string bench;
    std::vector<int> ns;
  };
  std::vector<Study> studies;
  if (smoke) {
    studies.push_back({"grid", {100000}});
  } else {
    studies.push_back({"grid", {64, 256, 1024, 10000, 100000}});
    studies.push_back({"cyclic", {64, 256, 1024, 16384}});
  }

  std::printf("Hybrid vs event-driven simulation scaling "
              "(single-cluster shared-memory target)\n\n");
  std::printf("  %-7s %7s  %-7s %10s  %13s  %11s  %s\n", "bench", "n",
              "mode", "sim wall", "engine events", "collapsed", "path");

  bool all_exact = true;
  bool all_pure = true;
  std::map<std::string, double> event_s, hybrid_s;
  JsonObject rows, speedups;

  for (const auto& study : studies) {
    for (int n : study.ns) {
      const double m0 = now_s();
      auto prog = suite::make_by_name(study.bench, config_for(study.bench, n));
      rt::MeasureOptions mo;
      mo.n_threads = n;
      const trace::Trace measured = rt::measure(*prog, mo);
      const double measure_s = now_s() - m0;
      core::TranslatedTrace prepared = core::prepare_trace(measured);
      const double prep_s = now_s() - m0;
      prepared = without_epoch_classes(std::move(prepared));

      const bool event_feasible = n <= 1024;
      Cell ev, hy;
      if (event_feasible)
        ev = run_cell(prepared, params, core::SimMode::EventDriven, n);
      hy = run_cell(prepared, params, core::SimMode::Auto, n);

      const std::string key = study.bench + "_" + std::to_string(n);
      if (event_feasible) {
        event_s[key] = ev.sim_s;
        std::printf("  %-7s %7d  %-7s %8.3f ms  %13lld  %11lld  %s\n",
                    study.bench.c_str(), n, "event", ev.sim_s * 1e3,
                    static_cast<long long>(ev.pred.sim.engine_events),
                    static_cast<long long>(
                        ev.pred.sim.hybrid.segments_collapsed),
                    path_name(ev.pred.sim.hybrid.path));
        if (ev.pred.predicted_time != hy.pred.predicted_time ||
            ev.pred.sim.messages != hy.pred.sim.messages ||
            ev.pred.sim.bytes != hy.pred.sim.bytes)
          all_exact = false;
      }
      hybrid_s[key] = hy.sim_s;
      std::printf("  %-7s %7d  %-7s %8.3f ms  %13lld  %11lld  %s"
                  "   (measure %.2f s, translate %.2f s)\n",
                  study.bench.c_str(), n, "hybrid", hy.sim_s * 1e3,
                  static_cast<long long>(hy.pred.sim.engine_events),
                  static_cast<long long>(
                      hy.pred.sim.hybrid.segments_collapsed),
                  path_name(hy.pred.sim.hybrid.path), measure_s,
                  prep_s - measure_s);
      if (hy.pred.sim.hybrid.path != core::HybridStats::Path::PureAnalytic)
        all_pure = false;

      const std::string cell = study.bench + "_n" + std::to_string(n);
      if (event_feasible) {
        rows.obj("hybrid_" + cell + "_event", json_row(ev));
        speedups.num(cell, ev.sim_s / hy.sim_s, 2);
      }
      rows.obj("hybrid_" + cell + "_hybrid", json_row(hy));
    }
    std::printf("\n");
  }

  std::printf("Shape checks (paper: analytic collapse makes huge-n "
              "prediction tractable):\n");
  shape_check("single-cluster target collapses every segment (engine-free)",
              all_pure);
  if (!smoke) {
    shape_check("hybrid == event-driven bitwise wherever both ran",
                all_exact);
    for (const char* bench : {"grid", "cyclic"}) {
      const std::string key = std::string(bench) + "_1024";
      const double speedup = hybrid_s.at(key) > 0
                                 ? event_s.at(key) / hybrid_s.at(key)
                                 : 0.0;
      char claim[128];
      std::snprintf(claim, sizeof claim,
                    "hybrid >= 10x event-driven at n=1024 on %s (%.1fx)",
                    bench, speedup);
      shape_check(claim, speedup >= 10.0);
    }
  }
  std::cout << JsonObject()
                   .obj("hybrid", rows)
                   .obj("hybrid_speedup_vs_event", speedups)
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
