// Figure 6 — "Execution Time and Speedup Results with Different MipsRatio".
//
// All benchmarks extrapolated with MipsRatio in {2.0, 1.0, 0.5} (2x slower,
// unchanged, 2x faster target processors).  The paper highlights four
// panels: (i) Embar execution times scale directly with the ratio;
// (ii)/(iii) Cyclic and Sort speedups barely move; (iv) Mgrid's speedup
// visibly improves for slower processors (computation/communication ratio
// shifts); Poisson's communication bottleneck only shows at 32 processors.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout, "Figure 6 — MipsRatio effects");
  const double ratios[] = {2.0, 1.0, 0.5};
  // Coarser-grained Cyclic and Sort for this experiment (more computation
  // per transfer), approximating the originals' grain; see EXPERIMENTS.md.
  suite::SuiteConfig cfg;
  cfg.cyclic_width = 64;
  cfg.sort_keys = 65536;
  TraceCache cache(cfg);
  const auto& procs = paper_procs();

  std::map<std::string, std::map<double, std::vector<Time>>> times;
  for (const auto& bench : suite::benchmark_names())
    for (double r : ratios) {
      auto params = model::distributed_preset();
      params.proc.mips_ratio = r;
      times[bench][r] = time_curve(cache, bench, params);
    }

  // Panel (i): Embar execution time.
  {
    std::vector<metrics::Curve> curves;
    for (double r : ratios)
      curves.push_back(time_curve_ms("MipsRatio=" + util::Table::num(r),
                                     procs, times["embar"][r]));
    std::cout << metrics::render_curves("(i) Embar execution time", curves,
                                        "time [ms]", true, true);
  }

  // Panels (ii)-(iv) + Poisson: speedups.
  for (const char* bench : {"cyclic", "sort", "mgrid", "poisson"}) {
    std::vector<metrics::Curve> curves;
    for (double r : ratios)
      curves.push_back(speedup_curve("MipsRatio=" + util::Table::num(r),
                                     procs, times[bench][r]));
    std::cout << '\n'
              << metrics::render_curves(std::string("speedup: ") + bench,
                                        curves, "speedup");
  }

  std::cout << "\nshape checks against the paper:\n";
  auto s32 = [&](const char* b, double r) {
    return times[b][r][0] / times[b][r][5];
  };
  const double embar_scale =
      times["embar"][2.0][5] / times["embar"][0.5][5];
  auto spread = [&](const char* b) { return s32(b, 2.0) / s32(b, 0.5); };
  shape_check("Embar times scale ~4x between ratio 2.0 and 0.5",
              embar_scale > 3.0 && embar_scale < 5.0);
  shape_check("Embar speedup itself is nearly MipsRatio-invariant",
              spread("embar") < 1.3);
  shape_check("Cyclic speedup moves less with MipsRatio than Mgrid's",
              spread("cyclic") < spread("mgrid"));
  shape_check("Sort speedup moves much less with MipsRatio than Mgrid's",
              spread("sort") < 0.75 * spread("mgrid"));
  shape_check("Mgrid speedup improves for slower processors (ratio 2.0)",
              s32("mgrid", 2.0) > s32("mgrid", 0.5));
  shape_check("Poisson: faster processors mainly hurt at 32 procs",
              s32("poisson", 0.5) < s32("poisson", 2.0));
  return bench::exit_code();
}
