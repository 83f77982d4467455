// abl_fit_accuracy — held-out extrapolation accuracy of the PMNF fitter.
//
// The claim under test (fit/fit.hpp): a cross-validated PMNF model fitted
// to the SMALL processor counts extrapolates the large-count behavior at
// least as well as the classic Amdahl fit — because Amdahl's single serial
// fraction cannot represent overhead that GROWS with n (communication,
// barriers), which is exactly what the suite's communication-bound codes
// exhibit.
//
// Protocol: sweep n in {1..32} per benchmark, fit both models on the
// {1, 2, 4, 8} prefix only, hold out {16, 32}, and score each model by its
// mean relative error on the held-out predicted times.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "fit/fit.hpp"
#include "metrics/scalability.hpp"

using namespace xp;

namespace {

double rel_err(double predicted, double actual) {
  return std::abs(predicted - actual) / actual;
}

}  // namespace

int main() {
  std::cout << "=== PMNF vs Amdahl: held-out extrapolation error ===\n\n";
  const std::vector<std::string> benches = {"grid",   "matmul", "embar",
                                            "cyclic", "mgrid",  "sort"};
  const std::vector<int> procs = bench::paper_procs();  // {1,2,4,8,16,32}
  const std::size_t train = 4;  // fit on {1,2,4,8}, hold out {16,32}

  util::Table table({"bench", "PMNF model (fit on n<=8)", "PMNF err %",
                     "Amdahl err %", "winner"});
  std::map<std::string, double> pmnf_err, amdahl_err;
  for (const auto& name : benches) {
    core::SweepRunner runner(
        [&name] { return suite::make_by_name(name); });
    const core::SweepResult sweep =
        runner.run_grid(procs, {model::distributed_preset()}, {name});

    std::vector<util::Time> times;
    for (const auto& p : sweep.predictions) times.push_back(p.predicted_time);
    const std::vector<int> train_procs(procs.begin(), procs.begin() + train);
    const std::vector<util::Time> train_times(times.begin(),
                                              times.begin() + train);

    fit::FitOptions fopt;
    fopt.bootstrap = 0;  // point accuracy only
    const fit::FitResult pmnf = fit::model_curve(train_procs, train_times, fopt);
    const metrics::ScalabilityReport amdahl =
        metrics::analyze_scalability(train_procs, train_times);

    double pe = 0.0, ae = 0.0;
    for (std::size_t i = train; i < procs.size(); ++i) {
      const double actual = times[i].to_us();
      const double p_pred = pmnf.eval(static_cast<double>(procs[i]));
      const double a_pred =
          train_times.front().to_us() / amdahl.projected_speedup(procs[i]);
      pe += rel_err(p_pred, actual);
      ae += rel_err(a_pred, actual);
    }
    pe /= static_cast<double>(procs.size() - train);
    ae /= static_cast<double>(procs.size() - train);
    pmnf_err[name] = pe;
    amdahl_err[name] = ae;
    table.add_row({name, pmnf.model.str(), util::Table::fixed(100 * pe, 2),
                   util::Table::fixed(100 * ae, 2),
                   pe <= ae ? "PMNF" : "Amdahl"});
  }
  std::cout << table.to_text() << '\n';

  int wins = 0;
  for (const auto& name : benches)
    if (pmnf_err.at(name) <= amdahl_err.at(name)) ++wins;
  std::cout << "PMNF wins or ties " << wins << "/" << benches.size()
            << " benchmarks\n\n";
  bench::shape_check("PMNF held-out error <= Amdahl's on Grid",
                     pmnf_err.at("grid") <= amdahl_err.at("grid"));
  bench::shape_check("PMNF held-out error <= Amdahl's on Matmul",
                     pmnf_err.at("matmul") <= amdahl_err.at("matmul"));
  bench::shape_check("PMNF held-out error <= Amdahl's on a majority of the "
                     "suite",
                     2 * wins >= static_cast<int>(benches.size()));
  return bench::exit_code();
}
