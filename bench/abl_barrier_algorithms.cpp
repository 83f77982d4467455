// Ablation A1 — barrier algorithm substitution (§3.3.3).
//
// The paper notes the linear master–slave barrier "delivers an upper bound
// on barrier synchronization times" and that other algorithms (e.g.
// logarithmic) can be substituted.  This ablation compares linear,
// logarithmic-tree, and hardware barriers on Mgrid (barrier-heavy) across
// thread counts.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout, "Ablation — barrier algorithms on Mgrid");
  TraceCache cache;
  const auto& procs = paper_procs();

  std::map<std::string, std::vector<Time>> times;
  std::vector<metrics::Curve> curves;
  for (auto alg : {model::BarrierAlg::Linear, model::BarrierAlg::LogTree,
                   model::BarrierAlg::Hardware}) {
    auto params = model::distributed_preset();
    params.barrier.alg = alg;
    const std::string label = model::to_string(alg);
    times[label] = time_curve(cache, "mgrid", params);
    curves.push_back(time_curve_ms(label, procs, times[label]));
  }
  std::cout << metrics::render_curves("Mgrid execution time by barrier "
                                      "algorithm",
                                      curves, "time [ms]", true, true);

  std::cout << "\nshape checks:\n";
  shape_check("linear is the upper bound at 32 threads",
              times["linear"][5] >= times["logtree"][5] &&
                  times["linear"][5] >= times["hardware"][5]);
  shape_check("hardware barrier is cheapest at 32 threads",
              times["hardware"][5] <= times["logtree"][5]);
  shape_check("algorithms are indistinguishable at 1 thread",
              times["linear"][0] == times["hardware"][0] ||
                  times["linear"][0] / times["hardware"][0] < 1.01);
  return bench::exit_code();
}
