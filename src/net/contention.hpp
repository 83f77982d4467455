// Network contention model.
//
// Per §3.3.2, contention is not simulated at the link level (too slow for
// rapid extrapolation).  Instead an analytical expression stretches each
// message's transfer using "the intensity of concurrent use of shared
// system resources ... calculated from the simulation state": the tracker
// counts messages currently in flight, and a new injection sees a
// multiplier
//
//   mult = 1 + factor * max(0, inflight_others) / capacity(topology)
//
// where capacity is the topology's concurrency proxy (bus 1, fat tree P/2,
// crossbar P, ...).  A bus therefore degrades quickly under load while a
// fat tree barely notices modest traffic — the qualitative behaviour the
// paper's contention factors capture.
#pragma once

#include <cstdint>

#include "net/topology.hpp"

namespace xp::net {

struct ContentionParams {
  bool enabled = true;
  /// Strength of the analytic delay expression.
  double factor = 1.0;

  /// Optional hard cap on the multiplier (0 = uncapped).
  double max_multiplier = 0.0;
};

class ContentionTracker {
 public:
  ContentionTracker(const ContentionParams& p, const Topology& topo);

  /// Multiplier a message injected right now would experience.
  double multiplier() const;

  /// Bookkeeping: a message entered / left the network.
  void inject();
  void deliver();

  int inflight() const { return inflight_; }

  /// Load sampled at each injection: the in-flight count each one saw,
  /// summed, and the number of injections.  Integer totals, so the sums
  /// over disjoint stretches of a run add up exactly.
  std::int64_t inflight_sum() const { return inflight_sum_; }
  std::int64_t injections() const { return injections_; }
  /// Mean in-flight count an injection saw (0 before the first one).
  double mean_inflight() const;
  /// Account injections whose load was sampled elsewhere (a replay window
  /// core::Simulator skipped) without changing the current in-flight count.
  void credit(std::int64_t inflight_sum, std::int64_t injections);

 private:
  ContentionParams p_;
  double capacity_;
  int inflight_ = 0;
  std::int64_t inflight_sum_ = 0;
  std::int64_t injections_ = 0;
};

}  // namespace xp::net
