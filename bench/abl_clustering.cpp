// Ablation A4 — shared-memory clustering (§3.3.1).
//
// "Representing remote accesses generically by messages allows us to
// easily accommodate a multi-clustered system with shared memory access
// within a cluster and message passing between clusters."  Sweep the
// cluster size for 32 threads on communication-heavy codes: larger
// clusters convert message traffic into cheap shared-memory copies.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Ablation — shared-memory clustering (32 threads)");
  const int n = 32;
  TraceCache cache;
  const std::vector<int> cluster_sizes{1, 2, 4, 8, 16, 32};

  std::map<std::string, std::vector<Time>> times;
  for (const char* bench : {"sparse", "cyclic", "grid"}) {
    util::Table t({"procs/cluster", "predicted", "messages",
                   "intra-cluster accesses"});
    for (int c : cluster_sizes) {
      auto params = model::distributed_preset();
      params.cluster.procs_per_cluster = c;
      const Prediction p = cache.predict(bench, n, params);
      times[bench].push_back(p.predicted_time);
      std::int64_t intra = 0;
      for (const auto& s : p.sim.threads) intra += s.intra_cluster_accesses;
      t.add_row({std::to_string(c), p.predicted_time.str(),
                 std::to_string(p.sim.messages), std::to_string(intra)});
    }
    std::cout << "\n" << bench << ":\n" << t.to_text();
  }

  std::cout << "\nshape checks:\n";
  for (const char* bench : {"sparse", "cyclic"}) {
    const auto& ts = times[bench];
    shape_check(std::string(bench) +
                    ": one whole-machine cluster beats pure message passing",
                ts.back() < ts.front());
    bool monotone = true;
    for (std::size_t i = 1; i < ts.size(); ++i)
      if (ts[i] > ts[i - 1] * 1.02) monotone = false;
    shape_check(std::string(bench) +
                    ": growing clusters never hurt (within 2%)",
                monotone);
  }
  return bench::exit_code();
}
