// Ablation A2 — the multithreading extension (§6 future work).
//
// "The simulation can be extended to handle multithreaded processors ...
// This will extrapolate the performance from a n-thread, 1-processor run
// to a n-thread, m-processor run, where m <= n."  Implemented: threads are
// assigned round-robin to m processors which they share non-preemptively;
// co-resident threads exchange data through local memory.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Ablation — n threads on m <= n processors");
  const int n = 16;
  TraceCache cache;
  const std::vector<int> proc_counts{1, 2, 4, 8, 16};

  for (const char* bench : {"embar", "grid", "sparse"}) {
    util::Table t({"processors m", "predicted time", "speedup vs m=1",
                   "messages"});
    std::vector<Time> times;
    for (int m : proc_counts) {
      auto params = model::shared_memory_preset();
      params.proc.n_procs = m;
      const Prediction p = cache.predict(bench, n, params);
      times.push_back(p.predicted_time);
      t.add_row({std::to_string(m), p.predicted_time.str(),
                 util::Table::fixed(times.front() / p.predicted_time, 2),
                 std::to_string(p.sim.messages)});
    }
    std::cout << "\n" << bench << " (" << n << " threads):\n" << t.to_text();
  }

  std::cout << "\nshape checks:\n";
  std::vector<Time> embar;
  for (int m : proc_counts) {
    auto params = model::shared_memory_preset();
    params.proc.n_procs = m;
    embar.push_back(cache.predict("embar", n, params).predicted_time);
  }
  shape_check("embar time decreases monotonically with m",
              embar[0] > embar[2] && embar[2] > embar[4]);
  shape_check("embar at m=1 is ~16x slower than m=16",
              embar[0] / embar[4] > 10.0);
  return bench::exit_code();
}
