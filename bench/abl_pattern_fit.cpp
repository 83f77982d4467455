// abl_pattern_fit — held-out accuracy of the COMPOSED per-pattern model.
//
// The claim under test (pattern/compose.hpp): fitting one PMNF per pattern
// region (self time) plus a residual, and summing the parts, predicts
// held-out processor counts better than a flat whole-program Amdahl fit —
// because each pattern node's cost shape (pipeline fill, reduction tree,
// task-pool imbalance) is simple on its own, while their SUM is not
// representable by a single serial fraction.
//
// Protocol: sweep each pattern benchmark over n in {1, 2, 3, 4, 6, 8, 12,
// 16}, fit the composed model and the Amdahl baseline on the {1..8} prefix
// only, hold out {12, 16}, and score both by mean relative error of the
// predicted total time on the held-out counts.  Also reports how often the
// direct simulation lands inside the composed model's confidence band, and
// prints the Extra-P style experiment file for the first benchmark.  The
// shape checks gate >= 2 of 3 wins and band coverage (the binary exits
// nonzero when one fails); the last stdout line is the JSON "pattern"
// section of BENCH_sim.json.
#include <cmath>
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "fit/fit.hpp"
#include "metrics/scalability.hpp"
#include "pattern/compose.hpp"
#include "pattern/extrap_writer.hpp"
#include "trace/trace.hpp"

using namespace xp;

namespace {

double rel_err(double predicted, double actual) {
  return std::abs(predicted - actual) / actual;
}

}  // namespace

int main() {
  std::cout << "=== Composed pattern model vs flat Amdahl: held-out error "
               "===\n\n";
  const std::vector<std::string> benches = suite::pattern_benchmark_names();
  const std::vector<int> procs = {1, 2, 3, 4, 6, 8, 12, 16};
  const std::size_t train = 6;  // fit on {1..8}, hold out {12, 16}
  const suite::SuiteConfig cfg;

  util::Table table({"bench", "regions", "composed err %", "Amdahl err %",
                     "winner", "band hits"});
  std::map<std::string, double> comp_err, amdahl_err;
  int band_hits = 0, band_total = 0;
  bench::JsonObject rows;
  std::string first_export;
  for (const auto& name : benches) {
    core::SweepRunner runner(
        [&name, &cfg] { return suite::make_by_name(name, cfg); });
    const core::SweepResult sweep =
        runner.run_grid(procs, {model::distributed_preset()}, {name});

    // The composed model sees only the training prefix.
    pattern::Experiment e;
    e.name = name;
    e.labels = suite::pattern_labels(name, cfg);
    for (std::size_t i = 0; i < train; ++i) {
      e.procs.push_back(procs[i]);
      e.spans.push_back(
          pattern::extract_regions(sweep.predictions[i].sim.extrapolated));
      e.totals.push_back(sweep.predictions[i].predicted_time);
    }
    const pattern::ComposedModel cm = pattern::compose(e);
    if (first_export.empty()) {
      std::ostringstream os;
      pattern::write_extrap(e, os);
      first_export = os.str();
    }

    // Flat baseline: one Amdahl serial fraction over the same prefix.
    std::vector<util::Time> train_times(e.totals);
    const std::vector<int> train_procs(procs.begin(), procs.begin() + train);
    const metrics::ScalabilityReport amdahl =
        metrics::analyze_scalability(train_procs, train_times);

    double ce = 0.0, ae = 0.0;
    int hits = 0;
    for (std::size_t i = train; i < procs.size(); ++i) {
      const double actual = sweep.predictions[i].predicted_time.to_us();
      const double c_pred = cm.eval(static_cast<double>(procs[i]));
      const double a_pred =
          train_times.front().to_us() / amdahl.projected_speedup(procs[i]);
      ce += rel_err(c_pred, actual);
      ae += rel_err(a_pred, actual);
      const auto band = cm.band(static_cast<double>(procs[i]));
      // Generous slack around the band: bootstrap bands from 6 exact
      // samples are narrow, and "near the band" is the useful signal.
      const double slack = 0.25 * actual;
      if (actual >= band.lo - slack && actual <= band.hi + slack) ++hits;
      ++band_total;
    }
    ce /= static_cast<double>(procs.size() - train);
    ae /= static_cast<double>(procs.size() - train);
    comp_err[name] = ce;
    amdahl_err[name] = ae;
    band_hits += hits;
    table.add_row({name, std::to_string(cm.regions.size()),
                   util::Table::fixed(100 * ce, 2),
                   util::Table::fixed(100 * ae, 2),
                   ce <= ae ? "composed" : "Amdahl",
                   std::to_string(hits) + "/" +
                       std::to_string(procs.size() - train)});

    std::cout << "--- " << name << " ---\n" << cm.str() << '\n';
    rows.obj("pattern_fit_" + name,
             bench::JsonObject()
                 .count("regions", static_cast<long long>(cm.regions.size()))
                 .num("composed_err_pct", 100 * ce, 2)
                 .num("amdahl_err_pct", 100 * ae, 2)
                 .count("band_hits", hits)
                 .count("band_total",
                        static_cast<long long>(procs.size() - train)));
  }
  std::cout << table.to_text() << '\n';

  std::cout << "Extra-P experiment file (" << benches.front() << "):\n"
            << first_export << '\n';

  int wins = 0;
  for (const auto& name : benches)
    if (comp_err.at(name) <= amdahl_err.at(name)) ++wins;
  std::cout << "composed model wins or ties " << wins << "/" << benches.size()
            << " pattern benchmarks\n\n";
  bench::shape_check(
      "composed per-pattern PMNF beats flat Amdahl on >= 2 of 3 pattern "
      "benches",
      wins >= 2);
  bench::shape_check(
      "held-out direct simulation lands in or near the composed band on a "
      "majority of cells",
      2 * band_hits >= band_total);
  std::cout << bench::JsonObject().obj("pattern", rows).text() << '\n';
  return bench::exit_code();
}
