// Shared pieces of the benchmark program: options, operation accounting,
// prediction digests checked against the committed reference, the layer
// metric sheet, and small statistics helpers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"
#include "core/sweep.hpp"
#include "serve/protocol.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// One benchmark run, as given on the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test size: fewer codes and cells, same per-cell inputs, so the
  /// committed digests still apply.
  bool small = false;
  std::string reference;  ///< committed digest file
  std::string out_dir;    ///< where the traced run writes its spans
  /// Record every digest instead of checking (regenerates the reference).
  bool write_reference = false;
};

/// Operations attempted and failed, summed over threads.  A failure is an
/// exception, a refused request, or an output that does not match.
class Outcome {
 public:
  void ok(std::int64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what, std::int64_t n = 1);
  std::int64_t attempted() const { return attempted_.load(); }
  std::int64_t failed() const { return failed_.load(); }
  /// Share of attempted operations that succeeded with correct output.
  double ok_frac() const;

 private:
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
};

/// The numbers a user reads off one prediction.  A served QueryResult and
/// an in-process core::Prediction reduce to the same record.
struct Answer {
  std::int64_t predicted_ns = 0;
  std::int64_t ideal_ns = 0;
  std::int64_t measured_ns = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t compute_ns = 0;
  std::int64_t comm_wait_ns = 0;
  std::int64_t barrier_wait_ns = 0;
};
Answer answer_of(const xp::core::Prediction& p);
Answer answer_of(const xp::serve::QueryResult& r);
std::uint64_t digest(const Answer& a);

/// Committed digests, keyed "<workload>/<code>/<n>/<preset>[/<mips>]".
/// Predictions are deterministic, so every run and every seed must
/// reproduce them bit for bit.
class Reference {
 public:
  Reference(const std::string& path, bool record);
  /// Compare (or, when recording, store) one prediction's digest.
  void check(const std::string& key, const Answer& a, Outcome& out);
  /// Write the recorded digests back (recording mode only).
  void save() const;

 private:
  std::string path_;
  bool record_ = false;
  std::mutex mu_;
  std::map<std::string, std::uint64_t> digests_;
};

/// The six built-in machine presets, by their model::preset_by_name names.
const std::vector<std::string>& preset_names();

/// Prediction-error check shared by every workload: the cm5 cells of the
/// suite-cold grid against direct execution on the machine simulator.
struct Accuracy {
  std::vector<std::string> codes;
  std::vector<int> procs;
  std::map<std::string, double> machine_ns;  ///< "<code>/<n>" -> exec time
};
/// Set-up half: run every cell on machine::run_on_machine.
Accuracy machine_reference(bool small);
/// Verification half: extrapolate the same cells with the cm5 preset and
/// return mean |predicted/machine - 1| in percent.
double pred_error_pct(const Accuracy& acc, Reference& ref, Outcome& out);

/// The suite-cold grid: codes and processor counts.
std::vector<std::string> cold_codes(bool small);
std::vector<int> cold_procs(bool small);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

int workers();  ///< nproc: the load never uses more threads than this
double peak_rss_mb();
std::string host_json();  ///< CPU model and nproc, as a JSON object

/// Every metric the benchmark prints.  End-to-end ones come from untraced
/// runs; per-layer ones from the traced run and stay 0 on a workload that
/// does not exercise the layer.
struct Sheet {
  // end to end
  double predictions_per_s = 0;
  double serve_max_rate_qps = 0;
  double ok_frac = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double pred_error_pct = 0;
  // rt + fiber
  double rt_measure_s = 0;
  double rt_events_recorded = 0;
  // core/translate, core/compiled_trace
  double translate_busy_s = 0;
  double compile_busy_s = 0;
  double compile_classes_per_epoch = 0;
  // core/simulator (+ sim, model, net)
  double simulate_busy_s = 0;
  double simulate_engine_events = 0;
  double simulate_messages = 0;
  double simulate_collapsed_frac = 0;
  double simulate_sampled_epoch_frac = 0;
  double simulate_cell_p50_ms = 0;
  double simulate_cell_p99_ms = 0;
  // core/sweep + util/thread_pool
  double sweep_prewarm_wall_s = 0;
  double sweep_simulate_wall_s = 0;
  double sweep_cpu_s = 0;
  double sweep_parallel_eff = 0;
  double sweep_cache_hits = 0;
  double sweep_cache_misses = 0;
  // fit + metrics
  double fit_busy_s = 0;
  // serve
  double serve_latency_p50_ms = 0;
  double serve_latency_p99_ms = 0;
  double serve_service_us = 0;
  double serve_rtt_p50_us = 0;
  double serve_rtt_p99_us = 0;
  double serve_overhead_us = 0;
  double serve_upload_ms = 0;
  double serve_decode_us = 0;
  double serve_queue_depth_max = 0;
  double serve_cache_hits = 0;
  double serve_cache_misses = 0;
  double serve_evictions = 0;
  double loadgen_lag_p99_ms = 0;
  // the trace itself
  double trace_coverage = 0;
  double trace_overhead_frac = 0;
};

/// Simulation-side counters of a set of predictions (simulate.* metrics).
struct SimTally {
  double engine_events = 0;
  double messages = 0;
  double segments_collapsed = 0;
  double segments_total = 0;
  double epochs = 0;
  double epochs_walked = 0;

  /// `trace_epochs`: barrier-delimited epochs of the replayed trace.  A cell
  /// that did not take the sampled path walked all of them.
  void add(const xp::core::Prediction& p, std::int64_t trace_epochs);
  /// Store the counters per pass over the workload's grid.
  void store(Sheet& s, double passes) const;
};

/// SweepRunner's own counters summed over requests (sweep.* metrics).
struct SweepTally {
  xp::core::SweepStages stages;
  double hits = 0;
  double misses = 0;

  void add(const xp::core::SweepResult& r);
  /// Store the counters per pass over the workload's grid.
  void store(Sheet& s, double passes) const;
};

/// Call `pass` until `seconds` have elapsed and at least `min_reps` calls
/// were made; returns the wall time of each call.
std::vector<double> repeat_for(double seconds, int min_reps,
                               const std::function<void()>& pass);

/// Print a run's raw samples on one line of stdout ("<label>: v1 v2 ...").
void print_series(const char* label, const std::vector<double>& values);

/// Print the host line and the final result line (the last line of
/// stdout): every end-to-end metric, or with `traced` every per-layer one.
void print_result(const Sheet& s, bool traced, const Outcome& out);

}  // namespace pb
