// Trace-driven extrapolation simulator (§3.3) — second half of the paper's
// contribution.
//
// Replays n translated per-thread traces against a model of the target
// execution environment: computation intervals scaled by MipsRatio and
// split per the service policy, remote element accesses expanded into
// request/service/reply message exchanges over the interconnect model, and
// barriers resolved by the (linear master-slave, logarithmic, or hardware)
// barrier model.  Produces the extrapolated trace and a full per-thread
// cost breakdown.
//
// Processor CPUs are explicit resources: every CPU-consuming activity
// (compute chunk, message build/start-up, request service, barrier
// bookkeeping) is serialized through its processor's queue, and only
// compute chunks are preemptible (by the Interrupt service policy).  The
// multithreading extension (§6) assigns several threads to one processor
// and they share that CPU non-preemptively.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compiled_trace.hpp"
#include "model/params.hpp"
#include "trace/trace.hpp"
#include "util/time.hpp"

namespace xp::core {

using model::SimParams;
using util::Time;

/// Per-thread cost breakdown of one extrapolated execution.
struct ThreadStats {
  Time compute;        ///< scaled computation replayed from the trace
  Time comm_wait;      ///< blocked waiting for remote-access replies
  Time barrier_wait;   ///< from barrier arrival to barrier exit
  Time send_overhead;  ///< CPU spent building/starting own messages
  Time service_time;   ///< CPU spent servicing other threads' requests
  Time poll_time;      ///< CPU spent on poll checks
  Time finish;         ///< time of the thread's last trace event
  std::int64_t remote_accesses = 0;
  std::int64_t intra_cluster_accesses = 0;  ///< served by shared memory
  std::int64_t requests_served = 0;
  std::int64_t interrupts_taken = 0;
  std::int64_t polls = 0;
};

/// Which simulation path a run may take.
///
///  * Auto — the library default: the fastest exact path.  When every
///    barrier-delimited segment has a closed-form cost (every thread owns
///    its processor, barriers resolve analytically and identically on every
///    thread, and no remote access crosses a cluster boundary) the run
///    skips the event engine entirely (HybridStats::Path::PureAnalytic):
///    each epoch is an analytic walk of every thread's segment joined by
///    the analytic barrier formula, which is what makes n = 10^4..10^6
///    simulated processors feasible.  Otherwise the whole run replays
///    through the event engine.  On the engine-free path, when no
///    extrapolated trace is requested, Auto also simulates ONE exemplar
///    per epoch class (bit-identical epochs grouped at compile time,
///    core::EpochClassTable) and composes the prediction as
///    Σ class_count × exemplar advance — exact, because analytic barriers
///    release every thread at one uniform instant and segment walks are
///    start-translation-invariant, so integer per-class deltas multiply
///    without error (DESIGN.md §15).  On the event path, when the trace has
///    an epoch-class table, Auto memoizes: the window between two quiescent
///    cuts (every thread arrived at a barrier, nothing else live) is a pure
///    function of the next epoch's class, so each recurring class goes
///    through the engine once per run and later members replay the
///    recorded window — stats, traffic and emitted events shifted in time
///    (DESIGN.md §15).  Every Auto prediction is therefore bitwise-equal to
///    EventDriven.
///  * EventDriven — replay every op through the radix-calendar engine, with
///    no memo.  The differential oracle the tests hold Auto against.
enum class SimMode : std::uint8_t { Auto, EventDriven };

struct SimOptions {
  SimMode mode = SimMode::Auto;
  /// Build the re-timestamped extrapolated trace.  Costs O(events) memory
  /// (plus a sort on the engine-free path); numeric outputs (makespan,
  /// stats, messages) are unaffected, so huge-n scaling runs turn it off.
  /// Also disables the engine-free walk's epoch sampling (every epoch must
  /// be walked to emit its events); the event path's memo emits either way.
  bool emit_trace = true;
};

/// Which path one run took.  segments are per-(epoch, thread)
/// barrier-delimited slices: on the engine-free path every segment is
/// collapsed into its closed form; when Auto falls back to event replay
/// every segment is demoted (EventDriven runs demote nothing — they never
/// asked), and how much of that replay the epoch memo skipped shows in
/// SamplingStats.
struct HybridStats {
  enum class Path : std::uint8_t {
    Event,         ///< whole run replayed through the engine
    PureAnalytic,  ///< every segment collapsed; engine never ran
  };
  Path path = Path::Event;
  std::int64_t segments_total = 0;
  std::int64_t segments_collapsed = 0;
  std::int64_t segments_demoted = 0;
  std::int64_t ops_collapsed = 0;  ///< replay steps that skipped the engine
};

/// How epoch dedup fared on one run: the engine-free walk's sampling
/// (SimMode::Auto over a fully-analytic trace without trace emission) or
/// the event path's memo (SimMode::Auto replaying through the engine over
/// a trace with an epoch-class table); all zeros otherwise.  Every epoch's
/// costs come from a bit-identical exemplar, so the prediction is
/// bitwise-equal to full simulation.
struct SamplingStats {
  bool active = false;             ///< sampling or the memo ran
  std::int64_t epochs = 0;         ///< barrier-delimited epochs in the trace
  std::int64_t classes = 0;        ///< bit-identical epoch classes
  std::int64_t epochs_simulated = 0;    ///< exemplar walks performed, or
                                        ///  epochs replayed through the
                                        ///  engine (memo misses)
  std::int64_t epochs_replayed = 0;     ///< non-recurring (count-1) epochs
                                        ///  replayed exactly, warmup/teardown
  /// |sampled − exact| makespan error: always zero, since dedup is exact.
  /// Kept as an output for callers that report it.
  Time error_bound;
};

struct SimResult {
  Time makespan;                   ///< predicted n-processor execution time
  std::vector<ThreadStats> threads;
  trace::Trace extrapolated;       ///< re-timestamped event stream
  std::int64_t messages = 0;       ///< network messages (incl. barrier msgs)
  std::int64_t bytes = 0;          ///< network bytes
  double avg_inflight = 0.0;       ///< mean in-flight messages at injection
  std::uint64_t engine_events = 0;
  HybridStats hybrid;
  SamplingStats sampling;

  Time total_compute() const;
  Time total_comm_wait() const;
  Time total_barrier_wait() const;
};

/// Run the extrapolation.  `translated` must hold one trace per thread (as
/// produced by translate()); `params` describes the target environment.
/// Compiles the traces (core/compiled_trace.hpp) and replays the compiled
/// form; callers replaying the same traces repeatedly should compile once
/// and use the overload below.
SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params);
SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params, const SimOptions& opts);

/// Replay an already-compiled trace set.  This is the sweep hot path: one
/// CompiledTrace is shared read-only by every simulation of a grid.
SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params);
SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params, const SimOptions& opts);

}  // namespace xp::core
