// Ablation A3 — the analytic contention model (§3.3.2).
//
// "The contention models were analytical expressions of remote access
// delay involving the contention factors calculated from the simulation
// state."  This ablation sweeps the contention factor and the topology on
// the communication-heavy Sort and Poisson codes.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout, "Ablation — network contention model");
  TraceCache cache;
  const auto& procs = paper_procs();

  // Factor sweep.
  for (const char* bench : {"sort", "poisson"}) {
    std::vector<metrics::Curve> curves;
    std::map<std::string, std::vector<Time>> times;
    for (double f : {0.0, 0.5, 1.0, 4.0}) {
      auto params = model::distributed_preset();
      params.network.contention.enabled = f > 0;
      params.network.contention.factor = f;
      const std::string label = "factor=" + util::Table::num(f);
      times[label] = time_curve(cache, bench, params);
      curves.push_back(time_curve_ms(label, procs, times[label]));
    }
    std::cout << metrics::render_curves(
                     std::string(bench) + " under contention factors", curves,
                     "time [ms]", true, true)
              << '\n';
  }

  // Topology comparison at factor 1.
  std::vector<metrics::Curve> topo_curves;
  std::map<std::string, std::vector<Time>> topo_times;
  for (auto topo : {net::TopologyKind::Bus, net::TopologyKind::Ring,
                    net::TopologyKind::Mesh2D, net::TopologyKind::FatTree,
                    net::TopologyKind::Crossbar}) {
    auto params = model::distributed_preset();
    params.network.topology = topo;
    const std::string label = net::to_string(topo);
    topo_times[label] = time_curve(cache, "sort", params);
    topo_curves.push_back(time_curve_ms(label, procs, topo_times[label]));
  }
  std::cout << metrics::render_curves("sort by topology (factor=1)",
                                      topo_curves, "time [ms]", true, true);

  std::cout << "\nshape checks:\n";
  auto last = [&](const std::string& l) { return topo_times[l][5]; };
  shape_check("a bus saturates hardest at 32 processors",
              last("bus") >= last("fattree") && last("bus") >= last("crossbar"));
  shape_check("crossbar/fat-tree tolerate the traffic best",
              last("crossbar") <= last("ring"));
  return bench::exit_code();
}
