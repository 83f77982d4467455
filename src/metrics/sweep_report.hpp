// Scalability analysis of a whole sweep batch.
//
// A SweepResult is a (label, n_threads) -> Prediction table; this module
// folds it back into per-label time curves and runs the scalability
// diagnostics (metrics/scalability.hpp) on every series with >= 2 points,
// using the series' smallest processor count as the relative-speedup
// baseline.  It is the batch-shaped counterpart of
// analyze_scalability: one call analyzes a machine_shootout-style grid in
// one pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "metrics/metrics.hpp"
#include "metrics/scalability.hpp"

namespace xp::metrics {

struct SweepSeries {
  std::string label;
  std::vector<int> procs;          ///< ascending, deduplicated
  std::vector<Time> times;         ///< predicted time per processor count
  std::vector<Time> ideal_times;   ///< zero-cost bound per processor count
  bool has_scalability = false;    ///< true when the series has >= 2 points
  ScalabilityReport scalability;   ///< valid iff has_scalability
};

/// Simulate-path attribution of a sweep, summed over its predictions: how
/// the grid's replay work split between the event engine, the engine-free
/// analytic path and epoch dedup — the engine-free walk's sampling or the
/// event path's memo (events fired vs segments skipped vs epochs skipped).
struct SweepPaths {
  std::int64_t cells_event = 0;     ///< cells replayed through the engine
  std::int64_t cells_hybrid = 0;    ///< cells on the engine-free path
  std::int64_t sim_events_fired = 0;       ///< engine events, whole grid
  std::int64_t sim_segments_collapsed = 0; ///< analytic segments, whole grid
  std::int64_t sim_segments_total = 0;     ///< all segments, whole grid
  std::int64_t sim_ops_collapsed = 0;      ///< replay steps skipped

  // Cells whose epochs were deduped (core::SamplingStats::active).
  std::int64_t cells_sampled = 0;        ///< sampled or memoized cells
  std::int64_t sim_epochs_total = 0;     ///< epochs across those cells
  std::int64_t sim_epoch_classes = 0;    ///< distinct classes in them
  std::int64_t sim_epochs_simulated = 0; ///< exemplar walks or engine-
                                         ///  replayed epochs
  std::int64_t sim_epochs_replayed = 0;  ///< non-recurring epochs replayed
};

SweepPaths sweep_paths(const core::SweepResult& r);

struct SweepReport {
  std::vector<SweepSeries> series;  ///< label first-appearance order
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Rendered as the report footer so path attribution lands in the
  /// standard table.
  SweepPaths paths;
};

/// Group a sweep's predictions into per-label series.  Points sharing a
/// (label, n_threads) pair must agree (identical params give identical
/// predictions); throws util::Error on conflicting duplicates.
SweepReport analyze_sweep(const core::SweepResult& r);

/// Aligned time table + ASCII chart over all series, then the scalability
/// block for each series that has one.
std::string render_sweep(const SweepReport& r, bool chart = true);

}  // namespace xp::metrics
