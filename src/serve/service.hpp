// xp::serve request execution — the daemon's socket-free core.
//
// Service owns everything behind the protocol verbs: the session table,
// the per-source sharded core::TranslateCache instances (kept hot for the
// process lifetime and SHARED across connections — two sessions over the
// same uploaded trace or benchmark name resolve to one cache), the
// util::ThreadPool the query batches fan out over, and the stats counters.
// The socket layer (serve/server.hpp) only moves frames; tests and the QPS
// benchmark can drive a Service entirely in-process.
//
// Threading (DESIGN.md §11, building on the §10 ownership rules):
//   * handle_async() may be called from any ONE dispatcher thread (the
//     server's poll loop); it never blocks on query work — batches fan out
//     over the pool, and the completion callback fires on the worker that
//     finishes the batch's last query;
//   * session/source tables are a single mutex (touched per request, not
//     per query); the caches behind them are the sharded TranslateCache,
//     so concurrent queries contend only on their key's shard;
//   * query results are written by batch index, never completion order, so
//     a served batch is deterministic and bitwise-reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sweep.hpp"
#include "serve/protocol.hpp"
#include "suite/suite.hpp"
#include "util/thread_pool.hpp"

namespace xp::serve {

struct ServiceOptions {
  /// Query workers; 0 = util::ThreadPool::default_workers().
  int n_workers = 0;
  /// Byte budget per distinct source's TranslateCache (0 = unbounded) —
  /// the knob that keeps a long-lived daemon's memory flat.
  std::size_t cache_budget_bytes = 0;
  /// Problem sizes for benchmark-name sessions.
  suite::SuiteConfig bench_config;
  core::TranslateOptions translate;
  /// Measurement host for bench-session cache misses.
  rt::HostMachine host = rt::sun4_host();
};

class Service {
 public:
  explicit Service(ServiceOptions opt = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Reply delivery.  May run on a pool worker (query batches), or inline
  /// on the calling thread (session/stats verbs) — the callback must be
  /// thread-safe and cheap (the server's pushes the reply to a completion
  /// queue and wakes its poll loop).
  using Completion = std::function<void(std::string reply_payload)>;

  /// Decode one request payload (type | request_id | body) and complete it
  /// with a full reply payload.  Never throws: malformed or failing
  /// requests complete with an error reply carrying the message.
  void handle_async(std::string payload, Completion done);

  /// Synchronous convenience for tests and in-process callers.
  std::string handle(std::string payload);

  /// Invoked (at most once, after the Shutdown reply is delivered) when a
  /// client issues the Shutdown verb.
  void set_shutdown_handler(std::function<void()> handler);

  // Direct session API (the protocol handlers use these too) -----------

  std::uint64_t open_trace_session(const trace::Trace& measured);
  std::uint64_t open_bench_session(const std::string& name);
  void close_session(std::uint64_t id);
  /// Execute one query synchronously on the calling thread (errors are
  /// reported in the result, not thrown).
  QueryResult run_query(std::uint64_t session, const Query& q);
  /// Fit a composed per-pattern model for a bench session synchronously on
  /// the calling thread (errors are reported in the result, not thrown).
  /// Served PATTERN_MODEL replies are bitwise-equal to this.
  PatternModelResult run_pattern_model(std::uint64_t session,
                                       const PatternQuery& q);

  ServerStats stats() const;
  /// Connection counters live in the socket layer; it reports them here so
  /// the stats verb can serve one coherent snapshot.
  void record_connection(std::int64_t open_delta, bool is_new);

 private:
  struct Source {
    bool is_bench = false;
    std::string bench;  ///< suite name for bench sources
    std::shared_ptr<const trace::Trace> measured;  ///< for trace sources
    std::shared_ptr<core::TranslateCache> cache;
  };

  std::shared_ptr<Source> source_for(const std::string& fingerprint,
                                     const std::function<Source()>& make);
  std::uint64_t register_session(std::shared_ptr<Source> src);
  std::shared_ptr<Source> session_source(std::uint64_t id) const;
  /// The source's translated trace for `n` threads, measured (bench) or
  /// taken from the upload (trace) on a cache miss, whose measure and
  /// translate+compile CPU it adds to the stats.
  std::shared_ptr<const core::TranslatedTrace> prepared_for(Source& src,
                                                            int n);
  QueryResult run_query_on(Source& src, const Query& q);
  PatternModelResult run_pattern_model_on(Source& src, const PatternQuery& q);

  std::string dispatch(const Frame& frame);  ///< non-batch verbs, inline
  void dispatch_batch(Frame frame, Completion done);
  void dispatch_pattern(Frame frame, Completion done);

  ServiceOptions opt_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Source>> sessions_;
  /// Sources are retained for the daemon's lifetime even after their last
  /// session closes — that is the point of the service: caches stay hot
  /// for the next client, and each cache's byte budget bounds the cost.
  std::unordered_map<std::string, std::shared_ptr<Source>> sources_;
  std::uint64_t next_session_ = 1;
  std::function<void()> shutdown_;

  // Stats.  CPU sums follow core::SweepStages' attribution: measure vs
  // translate+compile split inside a cache miss, simulate per query.
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::int64_t> connections_open_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> queries_ok_{0};
  std::atomic<std::uint64_t> queries_err_{0};
  /// Representative-epoch sampling: queries whose simulation took the
  /// sampled path, and the epoch replay it covered vs actually performed.
  std::atomic<std::uint64_t> queries_sampled_{0};
  std::atomic<std::uint64_t> sampling_epochs_total_{0};
  std::atomic<std::uint64_t> sampling_epochs_simulated_{0};
  std::atomic<std::int64_t> queue_depth_{0};
  std::atomic<double> measure_cpu_s_{0};
  std::atomic<double> translate_cpu_s_{0};
  std::atomic<double> simulate_cpu_s_{0};

  /// Declared last: destroyed first, so in-flight query tasks drain while
  /// every member they touch is still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace xp::serve
