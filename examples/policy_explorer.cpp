// policy_explorer — runtime-system tuning by extrapolation (§4.1, Fig 8).
//
// "If a polling policy must be used, a port of pC++ requires the choice of
// polling interval.  An optimal choice ... is certainly system and likely
// problem specific.  All of these questions can be explored with
// extrapolation."  This tool sweeps the three service policies and a range
// of polling intervals for any suite benchmark and reports the best
// runtime-system configuration per processor count.
#include <iostream>

#include "core/sweep.hpp"
#include "suite/suite.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace xp;

int main(int argc, char** argv) {
  util::ArgParser args("policy_explorer",
                       "find the best remote-service policy by extrapolation");
  args.add_option("bench", "cyclic", "benchmark to tune (Table 2 name)");
  args.add_option("procs", "2,4,8,16,32", "processor counts to test");
  args.add_option("poll-intervals", "50,100,500,1000",
                  "poll intervals in microseconds");
  args.add_option("startup", "100", "CommStartupTime in microseconds");
  try {
    if (!args.parse(argc, argv)) return 0;

    std::vector<int> procs;
    for (const auto& s : util::split(args.get("procs"), ','))
      procs.push_back(std::stoi(s));
    std::vector<double> intervals;
    for (const auto& s : util::split(args.get("poll-intervals"), ','))
      intervals.push_back(std::stod(s));

    struct Config {
      std::string label;
      model::ServicePolicy policy;
      double poll_us = 0;
    };
    std::vector<Config> configs{
        {"no-interrupt", model::ServicePolicy::NoInterrupt, 0},
        {"interrupt", model::ServicePolicy::Interrupt, 0},
    };
    for (double us : intervals)
      configs.push_back({"poll " + util::Table::num(us) + "us",
                         model::ServicePolicy::Poll, us});

    // Measure and translate once per processor count; one sweep simulates
    // every policy against each count's translated trace.
    core::SweepOptions opt;
    opt.emit_traces = false;
    core::SweepRunner runner(opt);
    for (int n : procs) {
      auto prog = suite::make_by_name(args.get("bench"));
      rt::MeasureOptions mo;
      mo.n_threads = n;
      runner.seed_trace(rt::measure(*prog, mo));
    }
    std::vector<core::SweepPoint> grid;
    for (int n : procs)
      for (const auto& c : configs) {
        core::SweepPoint p;
        p.n_threads = n;
        p.params = model::distributed_preset();
        p.params.comm.comm_startup =
            util::Time::us(args.get_double("startup"));
        p.params.proc.policy = c.policy;
        if (c.poll_us > 0)
          p.params.proc.poll_interval = util::Time::us(c.poll_us);
        p.label = c.label;
        grid.push_back(std::move(p));
      }
    const core::SweepResult sweep = runner.run(grid);

    std::vector<std::string> headers{"procs"};
    for (const auto& c : configs) headers.push_back(c.label);
    headers.push_back("best");
    util::Table t(headers);

    for (std::size_t i = 0; i < procs.size(); ++i) {
      std::vector<std::string> row{std::to_string(procs[i])};
      util::Time best_time = util::Time::max();
      std::string best;
      for (std::size_t k = 0; k < configs.size(); ++k) {
        const Config& c = configs[k];
        const util::Time pred =
            sweep.predictions[i * configs.size() + k].predicted_time;
        row.push_back(pred.str());
        if (pred < best_time) {
          best_time = pred;
          best = c.label;
        }
      }
      row.push_back(best);
      t.add_row(std::move(row));
    }

    std::cout << "benchmark: " << args.get("bench")
              << "  (CommStartupTime = " << args.get("startup") << "us)\n\n"
              << t.to_text()
              << "\nEach row reuses one 1-processor measurement for all "
              << configs.size() << " policy simulations.\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
