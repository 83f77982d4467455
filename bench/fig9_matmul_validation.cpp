// Figure 9 — "Results from Matmul program" (validation against the CM-5).
//
// The §4.2 validation experiment: the naive Matmul program under all nine
// two-dimensional distribution combinations {Block, Cyclic, Whole}^2,
// extrapolated with the Table 3 CM-5 parameters and compared against the
// "actual machine" — here the direct-execution machine simulator standing
// in for the CM-5 (see DESIGN.md).
//
// Paper shape: predicted curves match the shape and the relative ranking of
// the distributions; the predicted best choice is the measured best (or
// within a few percent of its time) at every processor count.
#include "common.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Figure 9 — Matmul predicted vs machine (CM-5 params)");
  const auto params = model::cm5_preset();
  const auto machine_cfg = machine::cm5_machine();
  std::cout << "extrapolation params (Table 3): " << params.str() << "\n\n";

  const rt::Dist kDists[] = {rt::Dist::Block, rt::Dist::Cyclic,
                             rt::Dist::Whole};
  const auto& procs = paper_procs();

  struct Row {
    std::string label;
    std::vector<Time> pred, act;
  };
  std::vector<Row> rows;
  suite::SuiteConfig cfg;

  for (rt::Dist a : kDists)
    for (rt::Dist b : kDists) {
      Row row;
      row.label = std::string("(") + rt::to_string(a)[0] + "," +
                  rt::to_string(b)[0] + ")";
      for (int n : procs) {
        auto p1 = suite::make_matmul(a, b, cfg);
        row.pred.push_back(
            Extrapolator(params).extrapolate(*p1, n).predicted_time);
        auto p2 = suite::make_matmul(a, b, cfg);
        row.act.push_back(
            machine::run_on_machine(*p2, n, machine_cfg).exec_time);
      }
      rows.push_back(std::move(row));
    }

  // Predicted and "actual" curves.
  std::vector<metrics::Curve> pred_curves, act_curves;
  for (const auto& r : rows) {
    pred_curves.push_back(time_curve_ms(r.label, procs, r.pred));
    act_curves.push_back(time_curve_ms(r.label, procs, r.act));
  }
  std::cout << metrics::render_curves("ExtraP predicted execution time",
                                      pred_curves, "time [ms]", true, true)
            << '\n'
            << metrics::render_curves("machine-simulated (\"actual\") time",
                                      act_curves, "time [ms]", true, true);

  // Per-(distribution, procs) errors + ranking agreement.
  util::Table t({"dist", "procs", "predicted", "actual", "error %"});
  util::RunningStat err;
  for (const auto& r : rows)
    for (std::size_t i = 0; i < procs.size(); ++i) {
      const double e = 100.0 * (r.pred[i] / r.act[i] - 1.0);
      err.add(std::abs(e));
      t.add_row({r.label, std::to_string(procs[i]), r.pred[i].str(),
                 r.act[i].str(), util::Table::fixed(e, 1)});
    }
  std::cout << '\n' << t.to_text();
  std::cout << "\n|error|: mean " << util::Table::fixed(err.mean(), 1)
            << "%  max " << util::Table::fixed(err.max(), 1) << "%\n";

  // Ranking agreement at each processor count.
  int best_match = 0;
  double worst_regret = 0.0;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    std::size_t bp = 0, ba = 0;
    for (std::size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].pred[i] < rows[bp].pred[i]) bp = r;
      if (rows[r].act[i] < rows[ba].act[i]) ba = r;
    }
    const double regret = rows[bp].act[i] / rows[ba].act[i] - 1.0;
    worst_regret = std::max(worst_regret, regret);
    if (bp == ba) ++best_match;
    std::cout << "n=" << procs[i] << ": predicted best " << rows[bp].label
              << ", actual best " << rows[ba].label << " (regret "
              << util::Table::fixed(100 * regret, 1) << "%)\n";
  }

  std::cout << "\nshape checks against the paper:\n";
  shape_check("predicted best matches actual best at most counts",
              best_match >= static_cast<int>(procs.size()) - 2);
  shape_check("when it differs, the predicted choice costs < 5% extra",
              worst_regret < 0.05);
  shape_check("mean |error| modest for a high-level simulation (< 25%)",
              err.mean() < 25.0);
  return bench::exit_code();
}
