#include "metrics/sweep_report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "metrics/report.hpp"
#include "util/error.hpp"

namespace xp::metrics {

SweepPaths sweep_paths(const core::SweepResult& r) {
  SweepPaths out;
  for (const core::Prediction& p : r.predictions) {
    const core::HybridStats& h = p.sim.hybrid;
    if (h.segments_collapsed > 0)
      ++out.cells_hybrid;
    else
      ++out.cells_event;
    out.sim_events_fired += static_cast<std::int64_t>(p.sim.engine_events);
    out.sim_segments_collapsed += h.segments_collapsed;
    out.sim_segments_total += h.segments_total;
    out.sim_ops_collapsed += h.ops_collapsed;
    const core::SamplingStats& sp = p.sim.sampling;
    if (sp.active) {
      ++out.cells_sampled;
      out.sim_epochs_total += sp.epochs;
      out.sim_epoch_classes += sp.classes;
      out.sim_epochs_simulated += sp.epochs_simulated;
      out.sim_epochs_replayed += sp.epochs_replayed;
    }
  }
  return out;
}

SweepReport analyze_sweep(const core::SweepResult& r) {
  XP_REQUIRE(r.grid.size() == r.predictions.size(),
             "sweep result is incomplete");
  SweepReport out;
  out.cache_hits = r.cache_hits;
  out.cache_misses = r.cache_misses;
  out.paths = sweep_paths(r);

  std::vector<std::string> order;
  std::map<std::string, std::map<int, const core::Prediction*>> by_label;
  for (std::size_t i = 0; i < r.grid.size(); ++i) {
    const auto& point = r.grid[i];
    const auto& pred = r.predictions[i];
    auto [it, inserted] = by_label.try_emplace(point.label);
    if (inserted) order.push_back(point.label);
    auto [jt, fresh] = it->second.try_emplace(point.n_threads, &pred);
    if (!fresh)
      XP_REQUIRE(jt->second->predicted_time == pred.predicted_time,
                 "sweep series '" + point.label + "' has conflicting points at n=" +
                     std::to_string(point.n_threads));
  }

  for (const auto& label : order) {
    SweepSeries s;
    s.label = label;
    for (const auto& [n, pred] : by_label.at(label)) {
      s.procs.push_back(n);
      s.times.push_back(pred->predicted_time);
      s.ideal_times.push_back(pred->ideal_time);
    }
    if (s.procs.size() >= 2) {
      s.scalability = analyze_scalability(s.procs, s.times);
      s.has_scalability = true;
    }
    out.series.push_back(std::move(s));
  }
  return out;
}

std::string render_sweep(const SweepReport& r, bool chart) {
  std::ostringstream os;
  std::vector<Curve> curves;
  for (const auto& s : r.series) {
    Curve c;
    c.label = s.label;
    c.procs = s.procs;
    for (const Time& t : s.times) c.values.push_back(t.to_ms());
    curves.push_back(std::move(c));
  }
  os << render_curves("predicted execution time", curves, "time [ms]", chart,
                      true);
  for (const auto& s : r.series) {
    if (!s.has_scalability) continue;
    os << '\n' << s.label << ":\n" << render_scalability(s.scalability);
  }
  if (r.cache_misses > 0)
    os << "\n(translate cache: " << r.cache_misses << " measurement(s), "
       << r.cache_hits << " reuse(s))\n";
  const SweepPaths& st = r.paths;
  if (st.cells_event + st.cells_hybrid > 0) {
    os << "(simulate: " << st.cells_event << " event cell(s), "
       << st.cells_hybrid << " hybrid cell(s), " << st.cells_sampled
       << " epoch-sampled cell(s); " << st.sim_events_fired
       << " engine event(s), " << st.sim_segments_collapsed << "/"
       << st.sim_segments_total << " segment(s) collapsed";
    if (st.cells_sampled > 0)
      os << "; " << st.sim_epochs_simulated << " exemplar(s) walked for "
         << st.sim_epochs_total << " epoch(s) in " << st.sim_epoch_classes
         << " class(es), " << st.sim_epochs_replayed
         << " non-recurring replayed exactly";
    os << ")\n";
  }
  return os.str();
}

}  // namespace xp::metrics
