// Shared helpers for the experiment harnesses (bench/).
//
// Each binary regenerates one table or figure from the paper's evaluation
// (§4).  Conventions: processor counts {1, 2, 4, 8, 16, 32} as in the
// paper; the distributed-memory preset for the benchmark studies; the
// Table 3 CM-5 preset for the Matmul validation.  Output is an aligned
// table (plus an ASCII rendition of the figure) and a short "shape check"
// block restating what the paper observed.
#pragma once

#include <cmath>
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

namespace detail {
inline bool& any_check_failed() {
  static bool failed = false;
  return failed;
}
}  // namespace detail

/// Print one shape claim as `[OK ]` or `[??? ]`; a failed claim makes
/// exit_code() nonzero, so the harness that measures a claim is also the
/// gate that holds it.
inline void shape_check(const std::string& claim, bool holds) {
  std::cout << "  [" << (holds ? "OK " : "??? ") << "] " << claim << '\n';
  if (!holds) detail::any_check_failed() = true;
}

/// A harness's return value from main: 1 when any shape_check failed.
inline int exit_code() { return detail::any_check_failed() ? 1 : 0; }

/// One JSON object built key by key.  The machine-readable harnesses end
/// their stdout with one of these on a single line, keyed by the
/// BENCH_sim.json sections they own; scripts/bench_json.sh merges those
/// lines.  Numbers carry a fixed number of decimals so reruns diff
/// cleanly; a non-finite number is written as null.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v, int decimals) {
    char buf[64] = "null";
    if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return raw(key, buf);
  }
  JsonObject& count(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& obj(const std::string& key, const JsonObject& v) {
    return raw(key, v.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  }
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += quoted(key) + ": " + value;
    return *this;
  }
  std::string body_;
};

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
