#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/sweep.hpp"
#include "machine/machine_sim.hpp"
#include "model/params_io.hpp"
#include "suite/suite.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace pb {

using namespace xp;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Outcome::fail(const std::string& what, std::int64_t n) {
  attempted_ += n;
  // Only the first few reasons are printed; the count carries the rest.
  if (failed_.fetch_add(n) < 10) std::cerr << "perfbench: FAIL " << what << '\n';
}

double Outcome::ok_frac() const {
  const std::int64_t a = attempted();
  return a == 0 ? 0.0 : static_cast<double>(a - failed()) / static_cast<double>(a);
}

Answer answer_of(const core::Prediction& p) {
  Answer a;
  a.predicted_ns = p.predicted_time.count_ns();
  a.ideal_ns = p.ideal_time.count_ns();
  a.measured_ns = p.measured_time.count_ns();
  a.messages = p.sim.messages;
  a.bytes = p.sim.bytes;
  a.compute_ns = p.sim.total_compute().count_ns();
  a.comm_wait_ns = p.sim.total_comm_wait().count_ns();
  a.barrier_wait_ns = p.sim.total_barrier_wait().count_ns();
  return a;
}

Answer answer_of(const serve::QueryResult& r) {
  Answer a;
  a.predicted_ns = r.predicted_ns;
  a.ideal_ns = r.ideal_ns;
  a.measured_ns = r.measured_ns;
  a.messages = r.messages;
  a.bytes = r.bytes;
  a.compute_ns = r.compute_ns;
  a.comm_wait_ns = r.comm_wait_ns;
  a.barrier_wait_ns = r.barrier_wait_ns;
  return a;
}

std::uint64_t digest(const Answer& a) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the fields
  for (const std::int64_t v :
       {a.predicted_ns, a.ideal_ns, a.measured_ns, a.messages, a.bytes,
        a.compute_ns, a.comm_wait_ns, a.barrier_wait_ns}) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i, u >>= 8) {
      h ^= u & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

Reference::Reference(const std::string& path, bool record)
    : path_(path), record_(record) {
  // Recording keeps the digests of other workloads already in the file.
  std::ifstream in(path_);
  XP_REQUIRE(record_ || in.good(), "cannot read reference digests " + path_);
  std::string key, hex;
  while (in >> key >> hex) digests_[key] = std::stoull(hex, nullptr, 16);
  XP_REQUIRE(record_ || !digests_.empty(),
             "reference digest file is empty: " + path_);
}

void Reference::check(const std::string& key, const Answer& a, Outcome& out) {
  const std::uint64_t d = digest(a);
  std::lock_guard<std::mutex> lock(mu_);
  if (record_) {
    digests_[key] = d;
    out.ok();
    return;
  }
  const auto it = digests_.find(key);
  if (it == digests_.end())
    out.fail("no reference digest for " + key);
  else if (it->second != d)
    out.fail("digest mismatch for " + key);
  else
    out.ok();
}

void Reference::save() const {
  if (!record_) return;
  std::ofstream os(path_);
  char buf[17];
  for (const auto& [key, d] : digests_) {
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
    os << key << ' ' << buf << '\n';
  }
  XP_REQUIRE(os.good(), "cannot write reference digests " + path_);
}

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = {"distributed", "shared", "cm5",
                                                 "paragon",     "sp1",    "sgi"};
  return names;
}

std::vector<std::string> cold_codes(bool small) {
  if (small) return {"cyclic", "sort"};
  return suite::benchmark_names();
}

std::vector<int> cold_procs(bool small) {
  if (small) return {2, 4, 8};
  return {2, 4, 8, 16, 32};
}

Accuracy machine_reference(bool small) {
  Accuracy acc;
  acc.codes = cold_codes(small);
  acc.procs = cold_procs(small);
  const machine::MachineConfig mc = machine::cm5_machine();
  for (const std::string& code : acc.codes)
    for (const int n : acc.procs) {
      auto prog = suite::make_by_name(code);
      acc.machine_ns[code + "/" + std::to_string(n)] = static_cast<double>(
          machine::run_on_machine(*prog, n, mc).exec_time.count_ns());
    }
  return acc;
}

double pred_error_pct(const Accuracy& acc, Reference& ref, Outcome& out) {
  double sum = 0;
  int cells = 0;
  for (const std::string& code : acc.codes) {
    core::SweepOptions opt;
    opt.n_workers = workers();
    core::SweepRunner runner([&code] { return suite::make_by_name(code); }, opt);
    core::SweepResult r;
    try {
      r = runner.run_grid(acc.procs, {model::preset_by_name("cm5")}, {"cm5"});
    } catch (const std::exception& e) {
      out.fail("accuracy sweep of " + code + ": " + e.what(),
               static_cast<std::int64_t>(acc.procs.size()));
      continue;
    }
    for (std::size_t i = 0; i < acc.procs.size(); ++i) {
      const std::string cell = code + "/" + std::to_string(acc.procs[i]);
      ref.check("cold/" + cell + "/cm5", answer_of(r.predictions[i]), out);
      const double pred =
          static_cast<double>(r.predictions[i].predicted_time.count_ns());
      sum += std::abs(pred / acc.machine_ns.at(cell) - 1.0);
      ++cells;
    }
  }
  return cells == 0 ? 0.0 : 100.0 * sum / cells;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int workers() { return util::ThreadPool::default_workers(); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string host_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::string escaped;
  for (const char c : model)
    if (c != '"' && c != '\\') escaped += c;
  return "{\"cpu_model\": \"" + escaped + "\", \"nproc\": " +
         std::to_string(workers()) + "}";
}

void SimTally::add(const core::Prediction& p, std::int64_t trace_epochs) {
  engine_events += static_cast<double>(p.sim.engine_events);
  messages += static_cast<double>(p.sim.messages);
  segments_collapsed += static_cast<double>(p.sim.hybrid.segments_collapsed);
  segments_total += static_cast<double>(p.sim.hybrid.segments_total);
  epochs += static_cast<double>(trace_epochs);
  epochs_walked += static_cast<double>(
      p.sim.sampling.active ? p.sim.sampling.epochs_simulated : trace_epochs);
}

void SimTally::store(Sheet& s, double passes) const {
  s.simulate_engine_events = engine_events / passes;
  s.simulate_messages = messages / passes;
  s.simulate_collapsed_frac =
      segments_total > 0 ? segments_collapsed / segments_total : 0.0;
  s.simulate_sampled_epoch_frac = epochs > 0 ? epochs_walked / epochs : 0.0;
}

void SweepTally::add(const core::SweepResult& r) {
  stages.prewarm_wall_s += r.stages.prewarm_wall_s;
  stages.simulate_wall_s += r.stages.simulate_wall_s;
  stages.measure_cpu_s += r.stages.measure_cpu_s;
  stages.translate_cpu_s += r.stages.translate_cpu_s;
  stages.simulate_cpu_s += r.stages.simulate_cpu_s;
  hits += static_cast<double>(r.cache_hits);
  misses += static_cast<double>(r.cache_misses);
}

void SweepTally::store(Sheet& s, double passes) const {
  s.sweep_prewarm_wall_s = stages.prewarm_wall_s / passes;
  s.sweep_simulate_wall_s = stages.simulate_wall_s / passes;
  s.sweep_cpu_s =
      (stages.measure_cpu_s + stages.translate_cpu_s + stages.simulate_cpu_s) / passes;
  const double wall = s.sweep_prewarm_wall_s + s.sweep_simulate_wall_s;
  s.sweep_parallel_eff = wall > 0 ? s.sweep_cpu_s / (wall * workers()) : 0.0;
  s.sweep_cache_hits = hits / passes;
  s.sweep_cache_misses = misses / passes;
}

std::vector<double> repeat_for(double seconds, int min_reps,
                               const std::function<void()>& pass) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (static_cast<int>(walls.size()) < min_reps || seconds_since(t0) < seconds) {
    const auto t = Clock::now();
    pass();
    walls.push_back(seconds_since(t));
  }
  return walls;
}

void print_series(const char* label, const std::vector<double>& values) {
  std::printf("%s:", label);
  for (const double v : values) std::printf(" %.4f", v);
  std::printf("\n");
}

namespace {

struct Row {
  const char* name;
  double value;
  const char* unit;
};

std::vector<Row> end_to_end_rows(const Sheet& s) {
  return {
      {"predictions_per_s", s.predictions_per_s, "1/s"},
      {"serve_max_rate_qps", s.serve_max_rate_qps, "1/s"},
      {"ok_frac", s.ok_frac, "frac"},
      {"setup_s", s.setup_s, "s"},
      {"peak_rss_mb", s.peak_rss_mb, "MB"},
      {"pred_error_pct", s.pred_error_pct, "%"},
  };
}

std::vector<Row> per_layer_rows(const Sheet& s) {
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  return {
      {"rt.measure_s", s.rt_measure_s, "s"},
      {"rt.events_recorded", s.rt_events_recorded, "count"},
      {"rt.ns_per_event", per(s.rt_measure_s * 1e9, s.rt_events_recorded), "ns"},
      {"translate.busy_s", s.translate_busy_s, "s"},
      {"compile.busy_s", s.compile_busy_s, "s"},
      {"compile.classes_per_epoch", s.compile_classes_per_epoch, "frac"},
      {"simulate.busy_s", s.simulate_busy_s, "s"},
      {"simulate.engine_events", s.simulate_engine_events, "count"},
      {"simulate.ns_per_event",
       per(s.simulate_busy_s * 1e9, s.simulate_engine_events), "ns"},
      {"simulate.messages", s.simulate_messages, "count"},
      {"simulate.collapsed_frac", s.simulate_collapsed_frac, "frac"},
      {"simulate.sampled_epoch_frac", s.simulate_sampled_epoch_frac, "frac"},
      {"simulate.cell_p50_ms", s.simulate_cell_p50_ms, "ms"},
      {"simulate.cell_p99_ms", s.simulate_cell_p99_ms, "ms"},
      {"sweep.prewarm_wall_s", s.sweep_prewarm_wall_s, "s"},
      {"sweep.simulate_wall_s", s.sweep_simulate_wall_s, "s"},
      {"sweep.cpu_s", s.sweep_cpu_s, "s"},
      {"sweep.parallel_eff", s.sweep_parallel_eff, "frac"},
      {"sweep.cache_hits", s.sweep_cache_hits, "count"},
      {"sweep.cache_misses", s.sweep_cache_misses, "count"},
      {"fit.busy_s", s.fit_busy_s, "s"},
      {"serve.latency_p50_ms", s.serve_latency_p50_ms, "ms"},
      {"serve.latency_p99_ms", s.serve_latency_p99_ms, "ms"},
      {"serve.service_us", s.serve_service_us, "us"},
      {"serve.rtt_p50_us", s.serve_rtt_p50_us, "us"},
      {"serve.rtt_p99_us", s.serve_rtt_p99_us, "us"},
      {"serve.overhead_us", s.serve_overhead_us, "us"},
      {"serve.upload_ms", s.serve_upload_ms, "ms"},
      {"serve.decode_us", s.serve_decode_us, "us"},
      {"serve.queue_depth_max", s.serve_queue_depth_max, "count"},
      {"serve.cache_hits", s.serve_cache_hits, "count"},
      {"serve.cache_misses", s.serve_cache_misses, "count"},
      {"serve.evictions", s.serve_evictions, "count"},
      {"loadgen.lag_p99_ms", s.loadgen_lag_p99_ms, "ms"},
      {"trace.coverage", s.trace_coverage, "frac"},
      {"trace.overhead_frac", s.trace_overhead_frac, "frac"},
  };
}

}  // namespace

void print_result(const Sheet& s, bool traced, const Outcome& out) {
  std::ostringstream os;
  os.precision(17);
  const bool correct = out.failed() == 0 && out.attempted() > 0;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(out.attempted(), 1)
     << ", \"failed\": " << out.failed() << ", \"metrics\": {";
  const std::vector<Row> rows = traced ? per_layer_rows(s) : end_to_end_rows(s);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double v = std::isfinite(rows[i].value) ? rows[i].value : 0.0;
    os << (i ? ", " : "") << '"' << rows[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << rows[i].unit << "\"}";
  }
  os << "}}";
  std::cout << "host: " << host_json() << '\n' << os.str() << std::endl;
}

}  // namespace pb
