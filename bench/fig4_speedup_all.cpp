// Figure 4 — "Speedup curves for all Benchmarks".
//
// All seven pC++ benchmark codes extrapolated under the distributed-memory
// parameter set (20 MB/s links, high communication start-up and
// synchronization costs) for 1..32 processors.
//
// Paper shape: Embar near-linear; Cyclic and Poisson reasonable; Sparse and
// Sort limited by communication/synchronization; Grid and Mgrid level off
// after four processors, flat from 4 to 8 (idle processors under the
// square-floor (BLOCK, BLOCK) distribution).
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout, "Figure 4 — speedup curves, all benchmarks "
                                "(distributed-memory parameter set)");
  const auto params = model::distributed_preset();
  std::cout << "params: " << params.str() << "\n\n";

  TraceCache cache;
  std::vector<metrics::Curve> curves;
  std::map<std::string, std::vector<Time>> times;
  for (const auto& bench : suite::benchmark_names()) {
    times[bench] = time_curve(cache, bench, params);
    curves.push_back(speedup_curve(bench, paper_procs(), times[bench]));
  }

  std::cout << metrics::render_curves("Speedup vs processors", curves,
                                      "speedup");

  util::Table t({"benchmark", "T(1)", "T(8)", "T(32)", "S(8)", "S(32)"});
  for (const auto& bench : suite::benchmark_names()) {
    const auto& ts = times[bench];
    t.add_row({bench, ts[0].str(), ts[3].str(), ts[5].str(),
               util::Table::fixed(ts[0] / ts[3], 2),
               util::Table::fixed(ts[0] / ts[5], 2)});
  }
  std::cout << '\n' << t.to_text();

  std::cout << "\nshape checks against the paper:\n";
  auto s = [&](const std::string& b, int idx) {
    return times[b][0] / times[b][static_cast<std::size_t>(idx)];
  };
  shape_check("Embar speedup is near linear (S(32) > 24)", s("embar", 5) > 24);
  shape_check("Cyclic shows reasonable speedup (S(32) > 4)", s("cyclic", 5) > 4);
  shape_check("Poisson shows reasonable speedup (S(32) > 4)",
              s("poisson", 5) > 4);
  shape_check("Grid levels off after 4 processors (S(8) within 10% of S(4))",
              std::abs(s("grid", 3) / s("grid", 2) - 1.0) < 0.35);
  shape_check("Mgrid levels off after 4 processors",
              s("mgrid", 5) < 2.0 * s("mgrid", 2));
  shape_check("Sparse and Sort are hurt by communication (S(32) < 8)",
              s("sparse", 5) < 8 && s("sort", 5) < 8);
  return bench::exit_code();
}
