// The three workloads.  Each fills the metric sheet for one run: the
// end-to-end metrics when untraced, the per-layer metrics when traced.
#pragma once

#include "common.hpp"

namespace pb {

Sheet run_suite_cold(const Options& opt, Reference& ref, Outcome& out);
Sheet run_whatif_warm(const Options& opt, Reference& ref, Outcome& out);
Sheet run_serve_mixed(const Options& opt, Reference& ref, Outcome& out);

/// Number of set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 3;

}  // namespace pb
