// Table 1 — "Parameters for the Barrier Model": operational check.
//
// Each Table 1 parameter is swept in isolation on a barrier-only synthetic
// workload (n threads, B barriers, small staggered computes) to show its
// individual contribution to the predicted barrier time, confirming the
// parameters do what the table describes.
#include "common.hpp"
#include "core/simulator.hpp"
#include "core/translate.hpp"

using namespace xp;
using namespace xp::bench;

namespace {

// Synthetic translated traces: n threads, `bars` barriers, staggered
// 10*(t+1) us computes between barriers.
std::vector<trace::Trace> barrier_workload(int n, int bars) {
  std::vector<trace::Trace> out;
  for (int t = 0; t < n; ++t) {
    trace::Trace tr(n);
    double clock = 0;
    trace::Event e;
    e.thread = t;
    e.kind = trace::EventKind::ThreadBegin;
    e.time = Time::zero();
    tr.append(e);
    for (int b = 0; b < bars; ++b) {
      clock += 10.0 * (t + 1);
      trace::Event entry;
      entry.thread = t;
      entry.kind = trace::EventKind::BarrierEntry;
      entry.barrier_id = b;
      entry.time = Time::us(clock);
      tr.append(entry);
      clock = 10.0 * n * (b + 1);  // ideal release = slowest thread
      trace::Event exit = entry;
      exit.kind = trace::EventKind::BarrierExit;
      exit.time = Time::us(clock);
      tr.append(exit);
    }
    trace::Event end;
    end.thread = t;
    end.kind = trace::EventKind::ThreadEnd;
    end.time = Time::us(clock);
    tr.append(end);
    out.push_back(std::move(tr));
  }
  return out;
}

Time run_with(model::BarrierParams bp, int n, int bars) {
  auto params = model::distributed_preset();
  params.barrier = bp;
  return core::simulate(barrier_workload(n, bars), params).makespan;
}

}  // namespace

int main() {
  util::print_banner(std::cout,
                     "Table 1 — barrier model parameter sensitivity");
  const int n = 8, bars = 20;

  model::BarrierParams base;  // the Table 1 example values
  const Time t_base = run_with(base, n, bars);
  std::cout << "workload: " << n << " threads, " << bars
            << " barriers, staggered computes\n"
            << "baseline (Table 1 example values): " << t_base.str()
            << "\n\n";

  struct Sweep {
    const char* name;
    const char* description;
    model::BarrierParams params;
  };
  std::vector<Sweep> sweeps;
  auto add = [&](const char* nm, const char* d,
                 auto mut) {
    model::BarrierParams bp = base;
    mut(bp);
    sweeps.push_back({nm, d, bp});
  };
  add("EntryTime x10", "time for each thread to enter a barrier",
      [](auto& b) { b.entry_time = Time::us(50); });
  add("ExitTime x10", "time to come out after it has been lowered",
      [](auto& b) { b.exit_time = Time::us(50); });
  add("CheckTime x10", "master delay per arrival check",
      [](auto& b) { b.check_time = Time::us(20); });
  add("ExitCheckTime x10", "slave delay checking for the release",
      [](auto& b) { b.exit_check_time = Time::us(20); });
  add("ModelTime x10", "master delay before lowering the barrier",
      [](auto& b) { b.model_time = Time::us(100); });
  add("BarrierByMsgs=0", "no messages: analytic shared-memory barrier",
      [](auto& b) { b.by_msgs = false; });
  add("BarrierMsgSize x8", "bigger synchronization messages",
      [](auto& b) { b.msg_size = 1024; });
  add("logarithmic alg", "combining tree instead of linear master-slave",
      [](auto& b) { b.alg = model::BarrierAlg::LogTree; });
  add("hardware alg", "dedicated barrier network (CM-5 control net)",
      [](auto& b) { b.alg = model::BarrierAlg::Hardware; });

  util::Table t({"parameter", "description", "makespan", "vs base"});
  for (const auto& s : sweeps) {
    const Time v = run_with(s.params, n, bars);
    t.add_row({s.name, s.description, v.str(),
               util::Table::fixed(v / t_base, 3)});
  }
  std::cout << t.to_text();

  std::cout << "\nshape checks:\n";
  shape_check("every cost parameter increase slows the barrier",
              run_with(sweeps[0].params, n, bars) > t_base &&
                  run_with(sweeps[4].params, n, bars) > t_base);
  shape_check("message-free barrier is cheaper than message-based",
              run_with(sweeps[5].params, n, bars) < t_base);
  shape_check("hardware barrier is the cheapest variant",
              run_with(sweeps[8].params, n, bars) <=
                  run_with(sweeps[7].params, n, bars));
  return bench::exit_code();
}
