// Shared helpers for the experiment harnesses (bench/).
//
// Each binary regenerates one table or figure from the paper's evaluation
// (§4).  Conventions: processor counts {1, 2, 4, 8, 16, 32} as in the
// paper; the distributed-memory preset for the benchmark studies; the
// Table 3 CM-5 preset for the Matmul validation.  Output is an aligned
// table (plus an ASCII rendition of the figure) and a short "shape check"
// block restating what the paper observed.
#pragma once

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "machine/machine_sim.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "suite/suite.hpp"
#include "util/chart.hpp"
#include "util/table.hpp"

namespace xp::bench {

using core::Extrapolator;
using core::Prediction;
using util::Time;

inline const std::vector<int>& paper_procs() {
  static const std::vector<int> procs{1, 2, 4, 8, 16, 32};
  return procs;
}

/// Measure-once-per-(bench, n), simulate many parameter sets: the traces
/// are cached so parameter sweeps do not repeat the measurement, exactly
/// the workflow ExtraP is built for.
class TraceCache {
 public:
  explicit TraceCache(suite::SuiteConfig cfg = {}) : cfg_(std::move(cfg)) {}

  const trace::Trace& get(const std::string& bench, int n) {
    const auto key = bench + "/" + std::to_string(n);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    auto prog = suite::make_by_name(bench, cfg_);
    rt::MeasureOptions mo;
    mo.n_threads = n;
    return cache_.emplace(key, rt::measure(*prog, mo)).first->second;
  }

  /// Extrapolate via the shared translate cache: measurement AND
  /// translation happen once per (bench, n); only the simulation reruns
  /// per parameter set.
  Prediction predict(const std::string& bench, int n,
                     const model::SimParams& params) {
    core::TranslateKey key;
    key.n_threads = n;
    const auto prepared = translated_[bench].get_or_prepare(
        key, [&](int nn) { return get(bench, nn); });
    return core::predict(*prepared, params);
  }

  const suite::SuiteConfig& config() const { return cfg_; }

 private:
  suite::SuiteConfig cfg_;
  std::map<std::string, trace::Trace> cache_;
  std::map<std::string, core::TranslateCache> translated_;
};

/// Predicted execution times across the paper's processor counts.
inline std::vector<Time> time_curve(TraceCache& cache, const std::string& bench,
                                    const model::SimParams& params,
                                    const std::vector<int>& procs =
                                        paper_procs()) {
  std::vector<Time> out;
  out.reserve(procs.size());
  for (int n : procs)
    out.push_back(cache.predict(bench, n, params).predicted_time);
  return out;
}

inline metrics::Curve speedup_curve(const std::string& label,
                                    const std::vector<int>& procs,
                                    const std::vector<Time>& times) {
  return metrics::to_speedup_curve(label, procs, times);
}

inline metrics::Curve time_curve_ms(const std::string& label,
                                    const std::vector<int>& procs,
                                    const std::vector<Time>& times) {
  metrics::Curve c;
  c.label = label;
  c.procs = procs;
  for (const Time& t : times) c.values.push_back(t.to_ms());
  return c;
}

inline void shape_check(const std::string& claim, bool holds) {
  std::cout << "  [" << (holds ? "OK " : "??? ") << "] " << claim << '\n';
}

/// `prepared` without its epoch-class table, so SimMode::Auto runs the
/// plain engine-free walk of every epoch instead of sampling one exemplar
/// per class — the collapse-only comparison point of the hybrid and
/// sampling ablations.  Predictions are unchanged (both paths are exact).
inline core::TranslatedTrace without_epoch_classes(
    core::TranslatedTrace prepared) {
  auto compiled = std::make_shared<core::CompiledTrace>(*prepared.compiled);
  compiled->epoch_classes = {};
  prepared.compiled = std::move(compiled);
  return prepared;
}

}  // namespace xp::bench
