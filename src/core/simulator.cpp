#include "core/simulator.hpp"

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "model/barrier_model.hpp"
#include "model/processor_model.hpp"
#include "model/remote_model.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace xp::core {

namespace {

using trace::Event;
using trace::EventKind;

// Inline continuation for CPU activities and network deliveries; shares the
// engine's inline-callback capacity so nothing on the hot path allocates.
using Continuation = sim::Engine::Callback;

// One CPU-consuming activity queued on a processor.
struct CpuItem {
  Time duration;
  bool preemptible = false;  // only compute chunks, only under Interrupt
  Continuation done;
};

// A processor's CPU: strictly serial, FIFO, with preemption of compute
// chunks by interrupt-policy request service.
struct Cpu {
  bool busy = false;
  bool cur_preemptible = false;
  Time cur_end;
  sim::EventId cur_completion{};
  Continuation cur_done;
  std::deque<CpuItem> queue;
};

enum class TState { Start, Computing, WaitReply, WaitBarrier, Done };

struct Msg {
  enum class Kind { Request, Reply, BarArrive, BarRelease } kind;
  int from = -1;             // sending thread
  int to = -1;               // destination thread
  std::int32_t declared = 0;
  std::int32_t actual = 0;
  std::int32_t barrier_id = -1;
  bool is_write = false;
};

// Arrivals for barriers this thread has not entered yet.  The release
// protocol bounds how far ahead a child can run (it cannot reach barrier
// k+1 until k is globally released), so the number of distinct future
// barrier ids pending at one parent stays tiny; a fixed flat ring with a
// linear scan replaces the old std::map<int32_t,int> — allocation-free and
// branch-predictable.  A slot is free iff its count is zero.  If a trace's
// barrier-id scheme ever exceeds the ring (the old map was unbounded),
// excess ids spill to a vector instead of aborting; the ring stays the
// fast path and the spill is never touched under the release protocol.
struct EarlyArrivals {
  static constexpr int kSlots = 8;
  std::array<std::int32_t, kSlots> ids{};
  std::array<std::int32_t, kSlots> counts{};
  std::vector<std::pair<std::int32_t, int>> spill;

  void add(std::int32_t barrier_id) {
    for (int i = 0; i < kSlots; ++i)
      if (counts[i] > 0 && ids[i] == barrier_id) {
        ++counts[i];
        return;
      }
    // An id already in the spill must stay there (one counter per id),
    // even if a ring slot has freed up since it overflowed.
    for (auto& [id, count] : spill)
      if (id == barrier_id) {
        ++count;
        return;
      }
    for (int i = 0; i < kSlots; ++i)
      if (counts[i] == 0) {
        ids[i] = barrier_id;
        counts[i] = 1;
        return;
      }
    spill.emplace_back(barrier_id, 1);
  }

  bool empty() const {
    for (int i = 0; i < kSlots; ++i)
      if (counts[i] > 0) return false;
    return spill.empty();
  }

  /// Claim (and clear) the arrivals recorded for `barrier_id`; 0 if none.
  int take(std::int32_t barrier_id) {
    for (int i = 0; i < kSlots; ++i)
      if (counts[i] > 0 && ids[i] == barrier_id) {
        const int c = counts[i];
        counts[i] = 0;
        return c;
      }
    for (auto it = spill.begin(); it != spill.end(); ++it)
      if (it->first == barrier_id) {
        const int c = it->second;
        spill.erase(it);
        return c;
      }
    return 0;
  }
};

struct ThreadCtx {
  int id = 0;
  int proc = 0;
  const CompiledThread* code = nullptr;

  // Replay cursors into the compiled arrays.
  std::uint32_t op = 0;
  std::uint32_t remote = 0;
  std::uint32_t barrier = 0;

  TState state = TState::Start;

  // Current barrier bookkeeping (message protocol).
  std::int32_t cur_barrier = -1;
  bool self_arrived = false;
  int children_arrived = 0;
  EarlyArrivals early_arrivals;  // arrivals for future barriers

  Time wait_start;

  // Requests queued while computing (NoInterrupt / Poll policies).
  std::deque<Msg> inbox;

  // Poll chunking of the current computation interval (buffer reused
  // across events).
  std::vector<Time> chunks;
  std::size_t chunk_idx = 0;

  ThreadStats stats;
};

struct AnalyticBarrier {
  std::vector<Time> arrival;
  int count = 0;
};

// --- epoch memo (SimMode::Auto on the event path; DESIGN.md §15) ---------
//
// A cut is the moment every thread has arrived at barrier k: the release
// instant of an analytic barrier, the root's last arrival of a message
// barrier.  At a quiescent cut (nothing pending in the engine, every CPU
// idle, nothing in flight, no queued requests or early arrivals) the state
// that matters is the same at every cut up to per-thread wait starts and
// absolute time, so the window from cut k to cut k+1 — the release of
// barrier k, epoch k+1, the arrivals at barrier k+1 — is a pure function of
// epoch k+1's content: its epoch class.

/// One event the window emitted, relative to the cut.
struct MemoEvent {
  std::int32_t thread = 0;
  std::int32_t op = 0;  ///< op offset inside the thread's segment of the
                        ///  epoch; -1 = the exit from the cut's barrier
  Time at;              ///< offset from the cut
};

/// Everything one window changes, as offsets from its starting cut.
struct MemoWindow {
  Time advance;                    ///< cut -> next cut
  std::vector<ThreadStats> delta;  ///< per thread; barrier_wait, finish unused
  std::vector<Time> exit_at;       ///< cut -> exit from the cut's barrier
  std::vector<Time> wait_from;     ///< next barrier's wait start -> next cut
  net::Tally traffic;
  std::vector<MemoEvent> events;   ///< in emission order
};

/// A window being replayed through the engine for the memo: the state at
/// its starting cut, plus the events emitted since.
struct Recording {
  std::int32_t cls = 0;
  std::int64_t epoch = 0;  ///< the epoch the window replays
  Time cut;
  std::vector<ThreadStats> stats;
  std::vector<Time> wait_start;
  net::Tally traffic;
  std::vector<MemoEvent> events;
};

class Simulator {
 public:
  Simulator(const CompiledTrace& compiled, const SimParams& params,
            const SimOptions& opts)
      : params_(params),
        opts_(opts),
        compiled_(&compiled),
        n_(compiled.n_threads),
        n_procs_(model::effective_procs(params.proc, n_)),
        plan_(model::make_plan(params.barrier.alg, n_)),
        network_(engine_, params.comm, params.network, n_procs_) {
    params_.validate(n_);
    threads_.reserve(static_cast<std::size_t>(n_));
    for (int t = 0; t < n_; ++t) {
      auto ctx = std::make_unique<ThreadCtx>();
      ctx->id = t;
      ctx->proc = model::proc_of_thread(params.proc, t, n_);
      ctx->code = &compiled.threads[static_cast<std::size_t>(t)];
      threads_.push_back(std::move(ctx));
    }
    cpus_.resize(static_cast<std::size_t>(n_procs_));
    choose_path(compiled);
    if (opts_.emit_trace) {
      // Every op is emitted once, plus one exit per barrier per thread.
      std::size_t events = 0;
      for (const CompiledThread& th : compiled.threads)
        events += th.ops.size() + th.barrier_ids.size();
      out_events_.reserve(events);
    }
  }

  SimResult run() {
    if (hyb_.path == HybridStats::Path::PureAnalytic) {
      run_analytic();
    } else {
      for (auto& t : threads_) proceed(*t);
      engine_.run();
      while (parked_) {  // the engine drained at a quiescent cut
        parked_ = false;
        resume_from_cut();
        engine_.run();
      }
    }
    for (auto& t : threads_)
      XP_CHECK(t->state == TState::Done,
               "simulation ended with thread " + std::to_string(t->id) +
                   " not done (replay deadlock)");

    SimResult r;
    r.threads.reserve(threads_.size());
    for (auto& t : threads_) {
      r.makespan = util::max(r.makespan, t->stats.finish);
      r.threads.push_back(t->stats);
    }
    r.extrapolated = trace::Trace(n_);
    r.extrapolated.set_meta("extrapolated", "1");
    r.extrapolated.mutable_events() = std::move(out_events_);
    r.extrapolated.sort_by_time();  // only the engine-free path reorders
    r.messages = network_.messages_sent();
    r.bytes = network_.bytes_sent();
    r.avg_inflight = network_.contention().mean_inflight();
    r.engine_events = engine_.fired();
    r.hybrid = hyb_;
    r.sampling = samp_;
    return r;
  }

 private:
  // --- path choice (SimMode::Auto) ------------------------------------------
  //
  // A run has a closed-form cost — and skips the event engine entirely —
  // iff nothing can interleave with any thread's own replay:
  //
  //   * every thread owns its processor (n_procs >= n_threads), so there is
  //     no CPU sharing between threads,
  //   * barriers resolve analytically (no barrier message traffic), with
  //     identical barrier sequences so epochs advance in lockstep,
  //   * no remote access crosses a cluster boundary (the accessor would
  //     block on request/reply messages whose latency depends on network
  //     state, and servicing the request would consume the owner's CPU at
  //     a message-determined time).
  //
  // Same-processor accesses are free and intra-cluster accesses cost a
  // fixed latency + per-byte copy on the accessing CPU only, so both stay
  // inside the closed form.  Anything else replays through the engine,
  // memoizing recurring epochs when the trace has an epoch-class table;
  // every path is exact, so the choice changes speed, never a result.
  void choose_path(const CompiledTrace& compiled) {
    for (const CompiledThread& th : compiled.threads)
      hyb_.segments_total += static_cast<std::int64_t>(th.segments.size());
    if (opts_.mode == SimMode::EventDriven) return;
    if (n_procs_ < n_ || !compiled.uniform_barriers || use_messages() ||
        has_cross_cluster_access(compiled)) {
      hyb_.segments_demoted = hyb_.segments_total;
      start_memo(compiled.epoch_classes);
      return;
    }
    epochs_ = static_cast<std::int64_t>(compiled.threads[0].segments.size());
    hyb_.segments_collapsed = hyb_.segments_total;
    hyb_.path = HybridStats::Path::PureAnalytic;
  }

  /// Thread t runs on processor t here (n_procs >= n_threads), so thread
  /// ids index clusters directly.
  bool has_cross_cluster_access(const CompiledTrace& compiled) const {
    if (params_.cluster.procs_per_cluster >= n_procs_) return false;
    for (int t = 0; t < n_; ++t)
      for (const RemoteRec& rec :
           compiled.threads[static_cast<std::size_t>(t)].remotes)
        if (rec.peer != t && cluster_of(rec.peer) != cluster_of(t))
          return true;
    return false;
  }

  // --- CPU management -----------------------------------------------------

  Cpu& cpu(int proc) { return cpus_[static_cast<std::size_t>(proc)]; }

  void cpu_enqueue(int proc, Time dur, bool preemptible, Continuation done,
                   bool front = false) {
    CpuItem item{dur, preemptible, std::move(done)};
    if (front)
      cpu(proc).queue.push_front(std::move(item));
    else
      cpu(proc).queue.push_back(std::move(item));
    cpu_pump(proc);
  }

  void cpu_pump(int proc) {
    Cpu& c = cpu(proc);
    if (c.busy || c.queue.empty()) return;
    CpuItem item = std::move(c.queue.front());
    c.queue.pop_front();
    c.busy = true;
    c.cur_preemptible = item.preemptible;
    c.cur_end = engine_.now() + item.duration;
    c.cur_done = std::move(item.done);
    c.cur_completion = engine_.schedule_after(item.duration, [this, proc] {
      Cpu& cc = cpu(proc);
      cc.busy = false;
      Continuation done = std::move(cc.cur_done);
      cc.cur_done = nullptr;
      if (done) done();
      cpu_pump(proc);
    });
  }

  /// Insert `dur`+`done` to run as soon as possible: preempts a running
  /// compute chunk (Interrupt policy), otherwise runs right after the
  /// current non-preemptible activity.
  void cpu_preempt_insert(int proc, Time dur, Continuation done) {
    Cpu& c = cpu(proc);
    if (c.busy && c.cur_preemptible) {
      const Time remaining = c.cur_end - engine_.now();
      XP_CHECK(!remaining.is_negative(), "CPU completion in the past");
      engine_.cancel(c.cur_completion);
      // Resume the interrupted chunk (with its original completion) after
      // the service finishes.
      c.queue.push_front(CpuItem{remaining, true, std::move(c.cur_done)});
      c.queue.push_front(CpuItem{dur, false, std::move(done)});
      c.busy = false;
      c.cur_done = nullptr;
      cpu_pump(proc);
    } else {
      cpu_enqueue(proc, dur, false, std::move(done), /*front=*/true);
    }
  }

  // --- compiled-trace replay ----------------------------------------------

  ThreadCtx& thr(int id) { return *threads_[static_cast<std::size_t>(id)]; }

  void proceed(ThreadCtx& T) {
    XP_CHECK(T.op < T.code->ops.size(), "replay ran past end of trace");
    const Time scaled =
        model::scale_compute(params_.proc, T.code->pre_delta[T.op]);
    start_compute(T, scaled);
  }

  // --- engine-free path -----------------------------------------------------

  /// Replay one collapsed segment analytically from `start`: advance the
  /// replay cursors, accumulate the same per-op stats the event path would,
  /// emit the intermediate protos at their computed times, and return the
  /// time at which the terminating Barrier/End op executes.  T.op is left AT
  /// the terminator; the caller handles it.  Mirrors start_compute/
  /// run_chunk/chunk_done/exec_op/begin_remote_access exactly — per-interval
  /// MipsRatio scaling (llround is not distributive over addition), poll
  /// boundaries at (scaled-1)/interval, intra-cluster costs on the accessing
  /// CPU.
  Time walk_segment(ThreadCtx& T, const Segment& seg, Time start) {
    const CompiledThread& code = *T.code;
    const bool polling = params_.proc.policy == model::ServicePolicy::Poll;
    const std::int64_t interval_ns = params_.proc.poll_interval.count_ns();
    const std::int64_t poll_ns = params_.proc.poll_overhead.count_ns();
    const bool presummable =
        params_.proc.mips_ratio == 1.0 && !polling && !opts_.emit_trace;
    if (presummable) {
      // The compile-time pre-summed records are exact here: scaling by 1.0
      // is the identity per interval, no poll boundaries split intervals,
      // and without trace emission nothing needs per-op times.  Costs
      // commute (integer addition) and the per-access intra-cluster cost is
      // an exact integer product (Time is integer ns), so the whole slice —
      // compute AND communication — reduces to O(1) arithmetic on the
      // segment's presums.  This is where the order-of-magnitude win at
      // n=10^5 comes from: no per-op dispatch, no per-record walk.
      T.stats.compute += seg.presum;
      Time now = start + seg.presum;
      T.stats.remote_accesses +=
          static_cast<std::int64_t>(seg.remote_end) - seg.remote_begin;
      if (seg.nonself_remotes > 0) {
        // Every non-self access is intra-cluster: choose_path() sends any
        // run with a cross-cluster access to the event engine.
        const std::int64_t bytes_sum =
            params_.size_mode == model::TransferSizeMode::Declared
                ? seg.nonself_declared_bytes
                : seg.nonself_actual_bytes;
        const std::int64_t byte_ns =
            params_.cluster.intra_byte_time.count_ns();
        if (byte_ns == 0 ||
            bytes_sum <= (std::int64_t{1} << 53) / byte_ns) {
          T.stats.intra_cluster_accesses += seg.nonself_remotes;
          const Time cost =
              Time::ns(params_.cluster.intra_latency.count_ns() *
                           seg.nonself_remotes +
                       byte_ns * bytes_sum);
          T.stats.comm_wait += cost;
          now += cost;
        } else {
          // byte_ns * bytes could leave double's exact-integer range, where
          // llround stops distributing over the sum — charge per record,
          // exactly as the event path does.
          for (std::uint32_t r = seg.remote_begin; r < seg.remote_end; ++r) {
            const RemoteRec& rec = code.remotes[r];
            if (rec.peer == T.id) continue;
            ++T.stats.intra_cluster_accesses;
            const std::int64_t bytes = model::reply_payload_bytes(
                params_.size_mode, rec.declared_bytes, rec.actual_bytes);
            const Time cost = params_.cluster.intra_latency +
                              params_.cluster.intra_byte_time *
                                  static_cast<double>(bytes);
            T.stats.comm_wait += cost;
            now += cost;
          }
        }
      }
      T.remote = seg.remote_end;
      hyb_.ops_collapsed += seg.op_end - seg.op_begin;
      T.op = seg.op_end;
      return now;
    }
    Time now = start;
    for (std::uint32_t i = seg.op_begin;; ++i) {
      const Time scaled = model::scale_compute(params_.proc, code.pre_delta[i]);
      T.stats.compute += scaled;
      now += scaled;
      if (polling && interval_ns > 0 && scaled.count_ns() > 0) {
        const std::int64_t boundaries = (scaled.count_ns() - 1) / interval_ns;
        T.stats.polls += boundaries;
        T.stats.poll_time += Time::ns(poll_ns * boundaries);
        now += Time::ns(poll_ns * boundaries);
      }
      const OpKind k = code.ops[i];
      if (k == OpKind::Barrier || k == OpKind::End) {
        T.op = i;
        return now;
      }
      ++hyb_.ops_collapsed;
      switch (k) {
        case OpKind::Begin:
        case OpKind::Phase:
          emit_at(T, code.proto[i], now);
          break;
        case OpKind::Remote: {
          emit_at(T, code.proto[i], now);
          const RemoteRec& rec = code.remotes[T.remote++];
          ++T.stats.remote_accesses;
          if (rec.peer != T.id) {
            ++T.stats.intra_cluster_accesses;
            const std::int64_t bytes = model::reply_payload_bytes(
                params_.size_mode, rec.declared_bytes, rec.actual_bytes);
            const Time cost = params_.cluster.intra_latency +
                              params_.cluster.intra_byte_time *
                                  static_cast<double>(bytes);
            T.stats.comm_wait += cost;
            now += cost;
          }
          break;
        }
        default:
          break;
      }
    }
  }

  /// Scale a span by an integer count — exact (no llround), unlike
  /// Time::operator*(double).
  static Time times(Time t, std::int64_t k) {
    return Time::ns(t.count_ns() * k);
  }

  /// a += k × (b − c), field by field, over every cost a segment walk or a
  /// memo window accumulates: all ThreadStats fields except barrier_wait
  /// and finish, which callers charge themselves.  `a` may alias `b`.
  static void accumulate(ThreadStats& a, const ThreadStats& b,
                         const ThreadStats& c, std::int64_t k) {
    a.compute += times(b.compute - c.compute, k);
    a.comm_wait += times(b.comm_wait - c.comm_wait, k);
    a.send_overhead += times(b.send_overhead - c.send_overhead, k);
    a.service_time += times(b.service_time - c.service_time, k);
    a.poll_time += times(b.poll_time - c.poll_time, k);
    a.remote_accesses += (b.remote_accesses - c.remote_accesses) * k;
    a.intra_cluster_accesses +=
        (b.intra_cluster_accesses - c.intra_cluster_accesses) * k;
    a.requests_served += (b.requests_served - c.requests_served) * k;
    a.interrupts_taken += (b.interrupts_taken - c.interrupts_taken) * k;
    a.polls += (b.polls - c.polls) * k;
  }

  /// The engine-free path: every segment of every thread collapsed, so the
  /// whole run is a walk over (epoch, multiplicity) units — analytic
  /// segment walks joined by the analytic barrier formula, the same
  /// arrival/release/exit values the event path computes without scheduling
  /// a single event.  This is what makes n = 10^4..10^6 simulated
  /// processors feasible.
  ///
  /// Every unit starts from `base`, the uniform instant the previous
  /// analytic barrier released every thread (model::analytic_release has
  /// one exit for all).  walk_segment is start-translation-invariant (each
  /// step adds a content-dependent integer increment), so a unit's advance
  /// and per-thread stat deltas depend on its epoch's CONTENT only, and m
  /// bit-identical epochs cost exactly m times one of them.  Hence the
  /// units (DESIGN.md §15):
  ///
  ///   * every epoch with multiplicity 1 when the trace is emitted (each
  ///     epoch's events need their own times) or the compiled trace has no
  ///     epoch-class table (hand-built CompiledTrace instances);
  ///   * otherwise one exemplar per class with multiplicity count[c] — the
  ///     sum reorders into per-class integer multiplies without changing a
  ///     bit.  Classes are in first-occurrence order, so the End-terminated
  ///     final epoch (always a singleton) is the last unit.
  void run_analytic() {
    const EpochClassTable& tab = compiled_->epoch_classes;
    std::vector<std::pair<std::int64_t, std::int64_t>> units;
    if (opts_.emit_trace || !tab.built()) {
      units.reserve(static_cast<std::size_t>(epochs_));
      for (std::int64_t e = 0; e < epochs_; ++e) units.emplace_back(e, 1);
    } else {
      samp_.active = true;
      samp_.epochs = tab.epochs();
      samp_.classes = tab.n_classes();
      samp_.epochs_simulated = tab.n_classes();
      for (std::int64_t c = 0; c < tab.n_classes(); ++c) {
        const std::int64_t m = tab.count[static_cast<std::size_t>(c)];
        if (m == 1) ++samp_.epochs_replayed;
        units.emplace_back(tab.exemplar[static_cast<std::size_t>(c)], m);
      }
    }

    std::vector<Time> at(static_cast<std::size_t>(n_));
    std::vector<Time> arrival(static_cast<std::size_t>(n_));
    Time base;
    ThreadStats before;
    for (const auto& [e, m] : units) {
      const auto ei = static_cast<std::size_t>(e);
      const bool final_epoch = e == epochs_ - 1;
      Time max_arrival;
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = thr(t);
        const Segment& seg = T.code->segments[ei];
        if (m > 1) before = T.stats;
        T.remote = seg.remote_begin;  // exemplars skip the epochs between
        const Time w = walk_segment(T, seg, base);
        ++hyb_.ops_collapsed;  // the terminating Barrier/End op
        T.op = seg.op_end + 1;
        emit_at(T, T.code->proto[seg.op_end], w);
        if (m > 1) accumulate(T.stats, T.stats, before, m - 1);
        if (final_epoch) {
          T.state = TState::Done;
          T.stats.finish = w;
          continue;
        }
        // Arrival is the entry-time CPU activity's completion, exactly as
        // begin_barrier queues it before analytic_arrive records it.
        at[static_cast<std::size_t>(t)] = w;
        arrival[static_cast<std::size_t>(t)] = w + params_.barrier.entry_time;
        max_arrival =
            util::max(max_arrival, arrival[static_cast<std::size_t>(t)]);
      }
      if (final_epoch) break;
      // analytic_arrive fires the releases when the last arrival lands
      // (engine clock == max arrival), clamping the exit to that instant.
      const Time exit = util::max(
          model::analytic_release(params_.barrier, arrival), max_arrival);
      const std::int32_t id = threads_[0]->code->barrier_ids[ei];
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = thr(t);
        emit_at(T, barrier_exit(id), exit);
        T.stats.barrier_wait +=
            times(exit - at[static_cast<std::size_t>(t)], m);
      }
      base += times(exit - base, m);
    }
  }

  void start_compute(ThreadCtx& T, Time scaled) {
    T.stats.compute += scaled;
    model::poll_chunks_into(params_.proc, scaled, T.chunks);
    T.chunk_idx = 0;
    if (T.chunks.empty()) {
      exec_op(T);
      return;
    }
    run_chunk(T);
  }

  void run_chunk(ThreadCtx& T) {
    T.state = TState::Computing;
    const Time len = T.chunks[T.chunk_idx];
    const bool preemptible =
        params_.proc.policy == model::ServicePolicy::Interrupt;
    cpu_enqueue(T.proc, len, preemptible, [this, &T] { chunk_done(T); });
  }

  void chunk_done(ThreadCtx& T) {
    ++T.chunk_idx;
    const bool last = T.chunk_idx >= T.chunks.size();
    if (last) {
      exec_op(T);
      return;
    }
    // Poll boundary: pay the poll check, service anything queued, continue.
    ++T.stats.polls;
    T.stats.poll_time += params_.proc.poll_overhead;
    cpu_enqueue(T.proc, params_.proc.poll_overhead, false, [this, &T] {
      drain_inbox(T);
      run_chunk(T);  // FIFO: the next chunk queues behind the services
    });
  }

  /// The enum-dispatched continuation after a compute interval: execute the
  /// op the interval led up to, advancing the replay cursors.
  void exec_op(ThreadCtx& T) {
    const CompiledThread& code = *T.code;
    const std::uint32_t i = T.op++;
    switch (code.ops[i]) {
      case OpKind::Begin:
      case OpKind::Phase:
        emit_op(T, i);
        proceed(T);
        break;
      case OpKind::End:
        emit_op(T, i);
        T.state = TState::Done;
        T.stats.finish = engine_.now();
        // A finished thread's processor keeps servicing remote requests
        // (§3.3.3); anything queued while it was computing drains now.
        drain_inbox(T);
        break;
      case OpKind::Remote:
        emit_op(T, i);
        begin_remote_access(T, code.remotes[T.remote++]);
        break;
      case OpKind::Barrier:
        emit_op(T, i);
        begin_barrier(T, code.barrier_ids[T.barrier++]);
        break;
    }
  }

  // --- remote data access (§3.3.2) ----------------------------------------

  int cluster_of(int proc) const {
    return proc / params_.cluster.procs_per_cluster;
  }

  void begin_remote_access(ThreadCtx& T, const RemoteRec& rec) {
    ++T.stats.remote_accesses;
    const ThreadCtx& owner = thr(rec.peer);
    if (owner.proc == T.proc) {
      // Same processor (multithreading extension): the element is in local
      // memory — free.
      proceed(T);
      return;
    }
    if (cluster_of(owner.proc) == cluster_of(T.proc)) {
      // Same cluster (§3.3.1 shared-memory clustering): a shared-memory
      // transfer on the accessing CPU — fixed latency plus the per-byte
      // copy; no messages, no owner involvement.
      ++T.stats.intra_cluster_accesses;
      const std::int64_t bytes = model::reply_payload_bytes(
          params_.size_mode, rec.declared_bytes, rec.actual_bytes);
      const Time cost = params_.cluster.intra_latency +
                        params_.cluster.intra_byte_time *
                            static_cast<double>(bytes);
      T.stats.comm_wait += cost;
      cpu_enqueue(T.proc, cost, false, [this, &T] { proceed(T); });
      return;
    }
    const Time send_cpu = net::send_cpu_time(params_.comm);
    T.stats.send_overhead += send_cpu;
    Msg req;
    req.kind = Msg::Kind::Request;
    req.from = T.id;
    req.to = rec.peer;
    req.declared = rec.declared_bytes;
    req.actual = rec.actual_bytes;
    req.is_write = rec.is_write;
    std::int64_t req_bytes = params_.comm.request_bytes;
    if (rec.is_write)
      // A write request carries the payload to the owner.
      req_bytes += model::reply_payload_bytes(params_.size_mode,
                                              rec.declared_bytes,
                                              rec.actual_bytes);
    cpu_enqueue(T.proc, send_cpu, false, [this, &T, req, req_bytes] {
      T.state = TState::WaitReply;
      T.wait_start = engine_.now();
      network_.send(T.proc, thr(req.to).proc, req_bytes,
                    [this, req] { deliver_request(req); });
      drain_inbox(T);
    });
  }

  void deliver_request(const Msg& req) {
    ThreadCtx& O = thr(req.to);
    switch (O.state) {
      case TState::Computing:
        switch (params_.proc.policy) {
          case model::ServicePolicy::Interrupt: {
            ++O.stats.interrupts_taken;
            ++O.stats.requests_served;
            const Time cost = params_.proc.interrupt_overhead +
                              model::service_cpu_time(params_.comm, params_.proc);
            O.stats.service_time += cost;
            cpu_preempt_insert(O.proc, cost,
                               [this, req] { send_reply(req); });
            break;
          }
          case model::ServicePolicy::NoInterrupt:
          case model::ServicePolicy::Poll:
            O.inbox.push_back(req);
            break;
        }
        break;
      default:
        // Waiting (reply or barrier), starting, or done: serve now.  The
        // pC++ runtime keeps servicing remote requests even when its thread
        // sits in a barrier or has finished (§3.3.3).
        service_now(O, req);
        break;
    }
  }

  void service_now(ThreadCtx& O, const Msg& req) {
    const Time cost = model::service_cpu_time(params_.comm, params_.proc);
    O.stats.service_time += cost;
    ++O.stats.requests_served;
    cpu_enqueue(O.proc, cost, false, [this, req] { send_reply(req); });
  }

  void drain_inbox(ThreadCtx& T) {
    while (!T.inbox.empty()) {
      Msg req = T.inbox.front();
      T.inbox.pop_front();
      service_now(T, req);
    }
  }

  void send_reply(const Msg& req) {
    ThreadCtx& O = thr(req.to);  // owner (replier)
    Msg rep;
    rep.kind = Msg::Kind::Reply;
    rep.from = req.to;
    rep.to = req.from;
    std::int64_t bytes;
    if (req.is_write)
      // Acknowledgment only; the data travelled with the request.
      bytes = params_.comm.reply_header_bytes;
    else
      bytes = model::reply_message_bytes(params_.comm, params_.size_mode,
                                         req.declared, req.actual);
    network_.send(O.proc, thr(rep.to).proc, bytes,
                  [this, rep] { deliver_reply(rep); });
  }

  void deliver_reply(const Msg& rep) {
    ThreadCtx& T = thr(rep.to);
    XP_CHECK(T.state == TState::WaitReply,
             "reply delivered to a thread that is not waiting");
    cpu_enqueue(T.proc, params_.comm.recv_overhead, false, [this, &T] {
      T.stats.comm_wait += engine_.now() - T.wait_start;
      proceed(T);
    });
  }

  // --- barriers (§3.3.3) ---------------------------------------------------

  void begin_barrier(ThreadCtx& T, std::int32_t barrier_id) {
    T.cur_barrier = barrier_id;
    T.wait_start = engine_.now();
    cpu_enqueue(T.proc, params_.barrier.entry_time, false, [this, &T] {
      T.state = TState::WaitBarrier;
      if (use_messages()) {
        T.self_arrived = true;
        // Claim arrivals for this barrier that beat us here.
        T.children_arrived += T.early_arrivals.take(T.cur_barrier);
        check_barrier_forward(T);
      } else {
        analytic_arrive(T);
      }
      drain_inbox(T);
    });
  }

  bool use_messages() const {
    return params_.barrier.by_msgs &&
           params_.barrier.alg != model::BarrierAlg::Hardware;
  }

  void check_barrier_forward(ThreadCtx& T) {
    const auto& kids = plan_.children[static_cast<std::size_t>(T.id)];
    if (!T.self_arrived ||
        T.children_arrived < static_cast<int>(kids.size()))
      return;
    if (T.id == plan_.root) {
      if (!park_at_cut(engine_.now())) lower_barrier(T);
    } else {
      const Time send_cpu = net::send_cpu_time(params_.comm);
      T.stats.send_overhead += send_cpu;
      Msg up;
      up.kind = Msg::Kind::BarArrive;
      up.from = T.id;
      up.to = plan_.notify[static_cast<std::size_t>(T.id)];
      up.barrier_id = T.cur_barrier;
      cpu_enqueue(T.proc, send_cpu, false, [this, up] {
        network_.send(thr(up.from).proc, thr(up.to).proc,
                      params_.barrier.msg_size,
                      [this, up] { deliver_bar_arrive(up); });
      });
    }
  }

  void deliver_bar_arrive(const Msg& m) {
    ThreadCtx& P = thr(m.to);
    // Receiving + checking the arrival costs the parent CPU even if it is
    // still computing toward its own entry (message handling).
    const Time cost = params_.comm.recv_overhead + params_.barrier.check_time;
    P.stats.service_time += cost;
    cpu_preempt_insert(P.proc, cost, [this, &P, m] {
      if (P.state == TState::WaitBarrier && P.cur_barrier == m.barrier_id) {
        ++P.children_arrived;
        check_barrier_forward(P);
      } else {
        P.early_arrivals.add(m.barrier_id);
      }
    });
  }

  void lower_barrier(ThreadCtx& root) {
    // ModelTime: master's delay before it starts lowering the barrier.
    cpu_enqueue(root.proc, params_.barrier.model_time, false,
                [this, &root] { send_releases(root); });
  }

  void send_releases(ThreadCtx& T) {
    // Send release messages to children, serialized on this CPU, then exit.
    const auto& kids = plan_.children[static_cast<std::size_t>(T.id)];
    std::size_t i = 0;
    send_next_release(T, kids, i);
  }

  void send_next_release(ThreadCtx& T, const std::vector<int>& kids,
                         std::size_t i) {
    if (i >= kids.size()) {
      cpu_enqueue(T.proc, params_.barrier.exit_time, false,
                  [this, &T] { barrier_exit_done(T); });
      return;
    }
    const int child = kids[i];
    const Time send_cpu = net::send_cpu_time(params_.comm);
    T.stats.send_overhead += send_cpu;
    Msg rel;
    rel.kind = Msg::Kind::BarRelease;
    rel.from = T.id;
    rel.to = child;
    rel.barrier_id = T.cur_barrier;
    cpu_enqueue(T.proc, send_cpu, false, [this, &T, &kids, i, rel] {
      network_.send(T.proc, thr(rel.to).proc, params_.barrier.msg_size,
                    [this, rel] { deliver_bar_release(rel); });
      send_next_release(T, kids, i + 1);
    });
  }

  void deliver_bar_release(const Msg& m) {
    ThreadCtx& T = thr(m.to);
    XP_CHECK(T.state == TState::WaitBarrier && T.cur_barrier == m.barrier_id,
             "barrier release delivered to a thread not waiting on it");
    const Time cost = params_.comm.recv_overhead +
                      params_.barrier.exit_check_time;
    cpu_enqueue(T.proc, cost, false, [this, &T] {
      // Propagate the release down the tree (linear plan has no
      // grandchildren; LogTree does), then leave.
      send_releases(T);
    });
  }

  void barrier_exit_done(ThreadCtx& T) {
    emit_exit(T);
    T.stats.barrier_wait += engine_.now() - T.wait_start;
    T.self_arrived = false;
    T.children_arrived = 0;
    T.cur_barrier = -1;
    proceed(T);
  }

  void analytic_arrive(ThreadCtx& T) {
    AnalyticBarrier& b = analytic_[T.cur_barrier];
    if (b.arrival.empty())
      b.arrival.assign(static_cast<std::size_t>(n_), Time::zero());
    b.arrival[static_cast<std::size_t>(T.id)] = engine_.now();
    if (++b.count < n_) return;
    const Time at = util::max(
        model::analytic_release(params_.barrier, b.arrival), engine_.now());
    analytic_.erase(T.cur_barrier);
    if (!park_at_cut(at)) schedule_releases(at, T.cur_barrier);
  }

  void schedule_releases(Time at, std::int32_t id) {
    for (int t = 0; t < n_; ++t) {
      engine_.schedule_at(at, [this, t, id] {
        ThreadCtx& W = thr(t);
        XP_CHECK(W.state == TState::WaitBarrier && W.cur_barrier == id,
                 "analytic release for a thread not in the barrier");
        barrier_exit_done(W);
      });
    }
  }

  // --- epoch memo -------------------------------------------------------------
  //
  // A run parks at every quiescent cut: the callback that completed the
  // barrier schedules nothing, the engine drains, and run() calls
  // resume_from_cut(), which replays memoized windows without the engine
  // and hands the first window that is not in the memo back to it.  Only
  // that miss restores live engine state, exactly what the cut's callback
  // would have scheduled.

  void start_memo(const EpochClassTable& tab) {
    if (!tab.built()) return;
    memo_.resize(static_cast<std::size_t>(tab.n_classes()));
    samp_.active = true;
    samp_.epochs = tab.epochs();
    samp_.classes = tab.n_classes();
    samp_.epochs_simulated = tab.epochs();  // each hit takes one off
    for (const std::int64_t m : tab.count)
      if (m == 1) ++samp_.epochs_replayed;
  }

  /// Called the moment every thread has arrived at its current barrier,
  /// which starts releasing them at `release`.  Parks the run there and
  /// returns true iff the memo is on and the cut is quiescent; otherwise
  /// drops the window being recorded, which no longer ends on a clean cut.
  bool park_at_cut(Time release) {
    if (memo_.empty()) return false;
    if (!quiescent()) {
      rec_.reset();
      return false;
    }
    parked_ = true;
    cut_ = release;
    return true;
  }

  bool quiescent() const {
    if (engine_.pending() != 0 || network_.contention().inflight() != 0)
      return false;
    for (const Cpu& c : cpus_)
      if (c.busy || !c.queue.empty()) return false;
    for (const auto& t : threads_)
      if (t->state != TState::WaitBarrier || !t->inbox.empty() ||
          !t->early_arrivals.empty())
        return false;
    return true;
  }

  /// Whether the window that releases barrier k (and replays epoch k + 1)
  /// may be memoized: it must end at another barrier, and that barrier's
  /// id must differ from k's — arrival messages match barriers by id, so
  /// equal consecutive ids would change how early arrivals are counted.
  bool memoizable(std::int64_t k) const {
    const std::vector<std::int32_t>& ids = threads_[0]->code->barrier_ids;
    const auto next = static_cast<std::size_t>(k + 1);
    return next < ids.size() && ids[next] != ids[next - 1];
  }

  void resume_from_cut() {
    const EpochClassTable& tab = compiled_->epoch_classes;
    auto k = static_cast<std::int64_t>(thr(0).barrier) - 1;
    if (rec_) close_recording(k);
    while (memoizable(k)) {
      const MemoWindow* w =
          memo_[static_cast<std::size_t>(tab.class_of[k + 1])].get();
      if (w == nullptr) break;
      replay_window(*w, k++);
      --samp_.epochs_simulated;
    }
    if (memoizable(k)) {
      const std::int32_t c = tab.class_of[static_cast<std::size_t>(k + 1)];
      if (tab.count[static_cast<std::size_t>(c)] > 1) open_recording(c, k);
    }
    // The miss: schedule what the cut's own callback would have.
    if (use_messages())
      engine_.schedule_at(cut_, [this] { lower_barrier(thr(plan_.root)); });
    else
      schedule_releases(cut_, thr(0).cur_barrier);
  }

  void open_recording(std::int32_t cls, std::int64_t k) {
    Recording& r = rec_.emplace();
    r.cls = cls;
    r.epoch = k + 1;
    r.cut = cut_;
    r.traffic = network_.tally();
    for (const auto& t : threads_) {
      r.stats.push_back(t->stats);
      r.wait_start.push_back(t->wait_start);
    }
  }

  /// The recorded window ended at the cut of barrier k: store it.
  void close_recording(std::int64_t k) {
    Recording& r = *rec_;
    XP_CHECK(r.epoch == k, "memo window did not end at the next cut");
    auto w = std::make_unique<MemoWindow>();
    w->advance = cut_ - r.cut;
    w->traffic = network_.tally() - r.traffic;
    w->events = std::move(r.events);
    for (int t = 0; t < n_; ++t) {
      const ThreadCtx& T = thr(t);
      const ThreadStats& s0 = r.stats[static_cast<std::size_t>(t)];
      ThreadStats d;
      accumulate(d, T.stats, s0, 1);
      w->delta.push_back(d);
      // The window charged exactly one barrier wait: the cut's, ending at
      // this thread's exit.
      w->exit_at.push_back(r.wait_start[static_cast<std::size_t>(t)] +
                           (T.stats.barrier_wait - s0.barrier_wait) - r.cut);
      w->wait_from.push_back(cut_ - T.wait_start);
    }
    memo_[static_cast<std::size_t>(r.cls)] = std::move(w);
    rec_.reset();
  }

  /// Apply a memoized window to the run parked at the cut of barrier k and
  /// move the cut to barrier k + 1.  Object and barrier ids in the emitted
  /// events come from this epoch: the class table ignores them.
  void replay_window(const MemoWindow& w, std::int64_t k) {
    const auto e = static_cast<std::size_t>(k + 1);
    const std::int32_t exit_id = thr(0).cur_barrier;
    if (opts_.emit_trace)
      for (const MemoEvent& m : w.events) {
        ThreadCtx& T = thr(m.thread);
        if (m.op < 0)
          emit_at(T, barrier_exit(exit_id), cut_ + m.at);
        else
          emit_at(T, T.code->proto[T.code->segments[e].op_begin +
                                   static_cast<std::uint32_t>(m.op)],
                  cut_ + m.at);
      }
    for (int t = 0; t < n_; ++t) {
      ThreadCtx& T = thr(t);
      const auto ti = static_cast<std::size_t>(t);
      const Segment& seg = T.code->segments[e];
      accumulate(T.stats, w.delta[ti], ThreadStats{}, 1);
      T.stats.barrier_wait += cut_ + w.exit_at[ti] - T.wait_start;
      T.wait_start = cut_ + w.advance - w.wait_from[ti];
      T.op = seg.op_end + 1;
      T.remote = seg.remote_end;
      T.barrier = static_cast<std::uint32_t>(e + 1);
      T.cur_barrier = T.code->barrier_ids[e];
    }
    network_.credit(w.traffic);
    cut_ += w.advance;
  }

  // --- output ---------------------------------------------------------------

  static Event barrier_exit(std::int32_t id) {
    Event exit;
    exit.kind = EventKind::BarrierExit;
    exit.barrier_id = id;
    return exit;
  }

  void emit_op(ThreadCtx& T, std::uint32_t op) {
    if (!opts_.emit_trace) return;
    if (rec_)
      rec_->events.push_back(MemoEvent{
          T.id,
          static_cast<std::int32_t>(
              op - T.code->segments[static_cast<std::size_t>(rec_->epoch)]
                       .op_begin),
          engine_.now() - rec_->cut});
    emit_at(T, T.code->proto[op], engine_.now());
  }

  void emit_exit(ThreadCtx& T) {
    if (!opts_.emit_trace) return;
    if (rec_)
      rec_->events.push_back(MemoEvent{T.id, -1, engine_.now() - rec_->cut});
    emit_at(T, barrier_exit(T.cur_barrier), engine_.now());
  }

  // By reference so the no-trace configurations (sweeps, serve, huge-n
  // analytic runs) skip the Event copy entirely — it is measurable per-op.
  void emit_at(ThreadCtx& T, const Event& e, Time at) {
    if (!opts_.emit_trace) return;
    Event out = e;
    out.time = at;
    out.thread = T.id;
    out_events_.push_back(out);
  }

  SimParams params_;
  SimOptions opts_;
  const CompiledTrace* compiled_;
  int n_;
  int n_procs_;
  model::BarrierPlan plan_;
  sim::Engine engine_;
  net::Network network_;
  std::vector<std::unique_ptr<ThreadCtx>> threads_;
  std::vector<Cpu> cpus_;
  std::map<std::int32_t, AnalyticBarrier> analytic_;
  std::vector<Event> out_events_;

  // Path state (choose_path()).
  std::int64_t epochs_ = 0;
  HybridStats hyb_;
  SamplingStats samp_;

  // Epoch memo: one window per recurring class (null until recorded); the
  // memo is on iff memo_ is non-empty.
  std::vector<std::unique_ptr<MemoWindow>> memo_;
  std::optional<Recording> rec_;
  bool parked_ = false;
  Time cut_;  ///< when the parked cut's barrier starts releasing
};

}  // namespace

Time SimResult::total_compute() const {
  Time t;
  for (const auto& s : threads) t += s.compute;
  return t;
}

Time SimResult::total_comm_wait() const {
  Time t;
  for (const auto& s : threads) t += s.comm_wait;
  return t;
}

Time SimResult::total_barrier_wait() const {
  Time t;
  for (const auto& s : threads) t += s.barrier_wait;
  return t;
}

SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params) {
  return simulate(translated, params, SimOptions{});
}

SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params, const SimOptions& opts) {
  XP_REQUIRE(!translated.empty(), "no translated traces");
  return simulate_compiled(CompiledTrace::compile(translated), params, opts);
}

SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params) {
  return simulate_compiled(compiled, params, SimOptions{});
}

SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params, const SimOptions& opts) {
  XP_REQUIRE(compiled.n_threads >= 1, "no translated traces");
  Simulator sim(compiled, params, opts);
  return sim.run();
}

}  // namespace xp::core
