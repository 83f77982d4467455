// Ablation A5 — instrumentation perturbation and its removal (§3.2).
//
// "The trace translation algorithm is easily modified to handle the
// overhead for recording the events."  The measurement runtime charges a
// configurable per-event cost to its virtual clock (trace perturbation, as
// in the paper's perturbation-analysis citation [14]); the translator
// subtracts it per inter-event delta.  This ablation measures the same
// program with growing instrumentation overheads and compares predictions
// with and without the correction against the unperturbed baseline.
#include "common.hpp"
#include "core/translate.hpp"

using namespace xp;
using namespace xp::bench;

int main() {
  util::print_banner(std::cout,
                     "Ablation — instrumentation overhead removal");
  const int n = 8;
  const auto params = model::distributed_preset();
  suite::SuiteConfig cfg;
  cfg.cyclic_size = 256;
  cfg.cyclic_width = 16;

  auto measure_with = [&](Time overhead) {
    auto prog = suite::make_cyclic(cfg);
    rt::MeasureOptions mo;
    mo.n_threads = n;
    mo.host.event_overhead = overhead;
    return rt::measure(*prog, mo);
  };

  auto predict = [&](const trace::Trace& t, bool remove) {
    core::TranslateOptions topt;
    topt.remove_event_overhead = remove;
    return core::simulate(core::translate(t, topt), params).makespan;
  };

  const trace::Trace clean = measure_with(Time::zero());
  const Time truth = predict(clean, true);
  std::cout << "baseline (no instrumentation cost): " << truth.str()
            << "\n\n";

  util::Table t({"per-event overhead", "measured 1-proc", "pred corrected",
                 "err %", "pred uncorrected", "err %"});
  double worst_corrected = 0, worst_uncorrected = 0;
  for (double us : {1.0, 5.0, 20.0, 100.0}) {
    const trace::Trace perturbed = measure_with(Time::us(us));
    const Time with = predict(perturbed, true);
    const Time without = predict(perturbed, false);
    const double ec = 100.0 * std::abs(with / truth - 1.0);
    const double eu = 100.0 * std::abs(without / truth - 1.0);
    worst_corrected = std::max(worst_corrected, ec);
    worst_uncorrected = std::max(worst_uncorrected, eu);
    t.add_row({util::Table::num(us) + " us", perturbed.end_time().str(),
               with.str(), util::Table::fixed(ec, 2), without.str(),
               util::Table::fixed(eu, 2)});
  }
  std::cout << t.to_text();

  std::cout << "\nshape checks:\n";
  shape_check("corrected predictions stay within 1% of the unperturbed "
              "baseline",
              worst_corrected < 1.0);
  shape_check("uncorrected predictions drift far more than corrected ones",
              worst_uncorrected > 10.0 * std::max(worst_corrected, 0.01));
  return bench::exit_code();
}
