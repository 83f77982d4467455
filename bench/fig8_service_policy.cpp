// Figure 8 — "Effects of Remote Data Request Service Policy".
//
// Cyclic and Grid execution times under the remote-access service policies:
// no-interrupt, interrupt, and polling with intervals of 100 us, 500 us,
// and 1000 us (CommStartupTime = 100 us throughout, as the paper notes).
//
// Paper shape: the "No interrupt/poll" curve is worst — by at most ~10% for
// Grid, significantly more for Cyclic (improving with more processors);
// interrupt wins for Grid; for Cyclic, polling wins out at larger
// processor counts, and larger polling intervals do better.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout, "Figure 8 — remote-access service policies");
  // Finer-grained Grid blocks for this experiment: service-policy effects
  // depend on how long owners compute between service opportunities, and
  // the paper's Grid shows at most ~10% policy sensitivity.
  suite::SuiteConfig cfg;
  cfg.grid_block_points = 16;
  cfg.grid_iters = 8;
  TraceCache cache(cfg);
  const auto& procs = paper_procs();

  struct Policy {
    const char* label;
    model::ServicePolicy policy;
    double poll_us;
  };
  const Policy policies[] = {
      {"no interrupt/poll", model::ServicePolicy::NoInterrupt, 0},
      {"interrupt", model::ServicePolicy::Interrupt, 0},
      {"poll 100us", model::ServicePolicy::Poll, 100},
      {"poll 500us", model::ServicePolicy::Poll, 500},
      {"poll 1000us", model::ServicePolicy::Poll, 1000},
  };

  std::map<std::string, std::map<std::string, std::vector<Time>>> times;
  for (const char* bench : {"cyclic", "grid"}) {
    std::vector<metrics::Curve> curves;
    for (const Policy& p : policies) {
      auto params = model::distributed_preset();
      params.comm.comm_startup = Time::us(100);
      // Post-§4.1 configuration: actual transfer sizes (the corrected
      // measurement), so remote-service timing — not raw transfer volume —
      // drives the comparison, as in the paper's Figure 8.
      params.size_mode = model::TransferSizeMode::Actual;
      params.proc.policy = p.policy;
      if (p.poll_us > 0) params.proc.poll_interval = Time::us(p.poll_us);
      times[bench][p.label] = time_curve(cache, bench, params);
      curves.push_back(
          time_curve_ms(p.label, procs, times[bench][p.label]));
    }
    std::cout << metrics::render_curves(
                     std::string(bench) + " execution time by policy", curves,
                     "time [ms]", true, true)
              << '\n';
  }

  std::cout << "shape checks against the paper:\n";
  auto T = [&](const char* b, const char* p, int i) {
    return times[b][p][static_cast<std::size_t>(i)];
  };
  shape_check("no-interrupt worst for Cyclic at small counts",
              T("cyclic", "no interrupt/poll", 2) >
                  T("cyclic", "interrupt", 2));
  const double gap4 = T("cyclic", "no interrupt/poll", 2) /
                      T("cyclic", "interrupt", 2);
  const double gap32 = T("cyclic", "no interrupt/poll", 5) /
                       T("cyclic", "interrupt", 5);
  shape_check("Cyclic's no-interrupt penalty shrinks with more processors",
              gap32 < gap4);
  shape_check("Grid: no-interrupt never beats interrupt",
              T("grid", "no interrupt/poll", 3) >=
                      T("grid", "interrupt", 3) &&
                  T("grid", "no interrupt/poll", 5) >=
                      T("grid", "interrupt", 5));
  shape_check("Grid: interrupt is the best policy (as the paper observes)",
              T("grid", "interrupt", 4) <= T("grid", "poll 100us", 4) &&
                  T("grid", "interrupt", 4) <=
                      T("grid", "poll 1000us", 4));
  shape_check("Cyclic at 32 procs: some polling interval beats interrupt "
              "or ties (within 2%)",
              std::min({T("cyclic", "poll 100us", 5),
                        T("cyclic", "poll 500us", 5),
                        T("cyclic", "poll 1000us", 5)}) <=
                  T("cyclic", "interrupt", 5) * 1.02);
  shape_check("larger poll intervals do not hurt Cyclic at 32 procs",
              T("cyclic", "poll 1000us", 5) <=
                  T("cyclic", "poll 100us", 5) * 1.05);
  return bench::exit_code();
}
