// Figure 7 — "Effect of MipsRatio and CommStartupTime on Mgrid".
//
// Mgrid execution times for MipsRatio in {1.0, 0.25} and CommStartupTime in
// {5, 100, 200} us.  The paper's observation: the processor count
// delivering minimum execution time drops from 16 (MipsRatio 1.0) to 4
// (MipsRatio 0.25) — faster processors make the communication overhead
// bite earlier.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Figure 7 — MipsRatio x CommStartupTime on Mgrid");
  const double ratios[] = {1.0, 0.25};
  const double startups_us[] = {5.0, 100.0, 200.0};
  // Problem granularity for this experiment: a smaller finest grid with an
  // extra V-cycle, so communication/synchronization weight matches the
  // regime the paper's Figure 7 explores (see EXPERIMENTS.md).
  suite::SuiteConfig cfg;
  cfg.mgrid_size = 16;
  cfg.mgrid_cycles = 3;
  TraceCache cache(cfg);
  const auto& procs = paper_procs();

  std::vector<metrics::Curve> curves;
  std::map<std::string, std::vector<Time>> times;
  for (double r : ratios)
    for (double su : startups_us) {
      auto params = model::distributed_preset();
      params.proc.mips_ratio = r;
      params.comm.comm_startup = Time::us(su);
      const std::string label = "ratio=" + util::Table::num(r) +
                                " startup=" + util::Table::num(su) + "us";
      times[label] = time_curve(cache, "mgrid", params);
      curves.push_back(time_curve_ms(label, procs, times[label]));
    }

  std::cout << metrics::render_curves("Mgrid execution time", curves,
                                      "time [ms]", true, true);

  util::Table t({"configuration", "min-time procs", "min time"});
  std::map<std::string, int> best;
  for (const auto& [label, ts] : times) {
    const std::size_t i = metrics::argmin_time(ts);
    best[label] = procs[i];
    t.add_row({label, std::to_string(procs[i]), ts[i].str()});
  }
  std::cout << '\n' << t.to_text();

  std::cout << "\nshape checks against the paper:\n";
  shape_check("minimum at 16 processors for MipsRatio = 1.0 (startup 100us)",
              best["ratio=1 startup=100us"] == 16);
  shape_check("minimum drops to 4 processors for MipsRatio = 0.25",
              best["ratio=0.25 startup=100us"] == 4);
  shape_check("with cheap startup (5us) larger counts stay profitable",
              best["ratio=1 startup=5us"] >= best["ratio=1 startup=200us"]);
  shape_check(
      "faster processors + expensive startup favor few processors (<= 4)",
      best["ratio=0.25 startup=200us"] <= 4);
  return bench::exit_code();
}
