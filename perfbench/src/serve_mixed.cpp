// serve-mixed: independent users of the what-if daemon on an open-loop
// schedule.  An in-process serve::Server on loopback TCP is reached through
// serve::Client.  Nine requests in ten are single queries on warm bench
// sessions, drawn over code x n x preset x MIPS ratio; one in ten uploads a
// trace pre-measured at set-up (load_trace + one query + close_session),
// which exercises trace decode and fingerprinting in the daemon.  An
// untimed warm-up uploads every trace once, so the daemon's first-sight
// translation is paid there.
//
// A schedule is whole decks of the mix (every combination once) in an order
// and with Poisson arrival times drawn from the seed.  At most nproc
// connections carry it, each owned by one generator thread; a due request
// goes to the next free connection.  Latency runs from the request's
// scheduled send time, so a late generator or a stalled daemon counts
// against it.  One nominal rate gives the latency figures; a ladder of
// fixed rates above it, then bisection, finds the highest rate that meets
// the p99 limit.
#include <algorithm>
#include <cmath>
#include <deque>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/extrapolator.hpp"
#include "model/params_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "suite/suite.hpp"
#include "trace/summary.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {

using namespace xp;

namespace {

// Fixed rates (requests/s) and the latency limit.  The nominal rate loads a
// 4-core host to about a third of saturation; the ladder climbs past it.
constexpr double kNominalQps = 400;
const std::vector<double> kLadderQps = {800, 1200, 1600, 2400, 3200};
constexpr double kP99LimitMs = 100;
constexpr int kBisections = 3;  ///< refinements of the ladder's bracket
constexpr std::size_t kUploadEvery = 10;  ///< one request in ten uploads
constexpr double kWindowS = 2.5;  ///< 1000 requests at the nominal rate

struct Mix {
  std::vector<std::string> codes;
  std::vector<int> procs;
  std::vector<double> mips;  ///< multipliers of each preset's own MIPS ratio
};

Mix make_mix(bool small) {
  if (small) return {{"cyclic", "sort"}, {8}, {1.0, 2.0}};
  return {suite::benchmark_names(),
          {8, 16, 32},
          {0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 2.0}};
}

/// One scheduled request.  The query's inputs are indices into the mix.
struct Req {
  double t = 0;  ///< scheduled send time, seconds from the step start
  bool upload = false;
  int code = 0;
  int n = 0;  ///< index into Mix::procs
  int preset = 0;
  int mips = 0;
};

std::string combo_key(const Mix& mix, const Req& r) {
  char m[32];
  std::snprintf(m, sizeof m, "%g", mix.mips[static_cast<std::size_t>(r.mips)]);
  return "serve/" + mix.codes[static_cast<std::size_t>(r.code)] + "/" +
         std::to_string(mix.procs[static_cast<std::size_t>(r.n)]) + "/" +
         preset_names()[static_cast<std::size_t>(r.preset)] + "/x" + m;
}

serve::Query query_of(const Mix& mix, const Req& r) {
  serve::Query q;
  q.n_procs = mix.procs[static_cast<std::size_t>(r.n)];
  const std::string& name = preset_names()[static_cast<std::size_t>(r.preset)];
  q.mips_ratio = model::preset_by_name(name).proc.mips_ratio * mix.mips[static_cast<std::size_t>(r.mips)];
  q.params_text = "preset = " + name;
  return q;
}

/// Every code x n x preset x MIPS combination once, as queries.
std::vector<Req> all_combos(const Mix& mix) {
  std::vector<Req> all;
  for (int c = 0; c < static_cast<int>(mix.codes.size()); ++c)
    for (int n = 0; n < static_cast<int>(mix.procs.size()); ++n)
      for (int p = 0; p < static_cast<int>(preset_names().size()); ++p)
        for (int m = 0; m < static_cast<int>(mix.mips.size()); ++m)
          all.push_back(Req{0, false, c, n, p, m});
  return all;
}

/// Poisson arrivals at `qps` for about `seconds` (at least one deck).  A
/// deck is every combination once, in an order drawn from `seed`, with
/// every tenth request an upload.  Whole decks keep the composition of
/// every schedule the same, so the seed changes only the order, the
/// arrival times and which combinations are uploaded.
std::vector<Req> schedule(const Mix& mix, double qps, double seconds,
                          std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::vector<Req> deck = all_combos(mix);
  const auto decks = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(seconds * qps / static_cast<double>(deck.size()))));
  std::vector<Req> out;
  double t = 0;
  for (std::size_t d = 0; d < decks; ++d) {
    for (std::size_t i = deck.size(); i > 1; --i)
      std::swap(deck[i - 1], deck[rng.next_below(i)]);
    for (std::size_t i = 0; i < deck.size(); ++i) {
      Req r = deck[i];
      t += -std::log(1.0 - rng.next_double()) / qps;
      r.t = t;
      r.upload = i % kUploadEvery == 0;
      out.push_back(r);
    }
  }
  return out;
}

/// Set-up state: a started daemon with one warm bench session per code, and
/// the upload traces measured in process (also the inputs of the in-process
/// reference predictions).
struct Env {
  Accuracy acc;
  std::unique_ptr<serve::Server> server;
  std::vector<std::uint64_t> sessions;          ///< per code
  std::vector<std::vector<trace::Trace>> traces;  ///< [code][n]
  std::vector<std::vector<std::string>> xptb;     ///< [code][n], encoded
};

Env set_up(const Options& opt, const Mix& mix, SpanLog* log) {
  Env env;
  env.acc = machine_reference(opt.small);
  serve::ServerOptions so;
  so.tcp_port = 0;
  so.service.n_workers = workers();
  env.server = std::make_unique<serve::Server>(so);
  env.server->start();

  // Warm every bench session at every n with one pipelined batch per code.
  serve::Client c = serve::Client::connect_tcp(env.server->tcp_port());
  std::vector<serve::Client::Ticket> tickets;
  for (const std::string& code : mix.codes) {
    env.sessions.push_back(c.open_bench(code));
    std::vector<serve::Query> batch;
    for (const int n : mix.procs) {
      serve::Query q;
      q.n_procs = n;
      q.params_text = "preset = cm5";
      batch.push_back(q);
    }
    tickets.push_back(c.submit_batch(env.sessions.back(), batch));
  }

  // Meanwhile measure the upload traces here.
  env.traces.assign(mix.codes.size(), std::vector<trace::Trace>(mix.procs.size()));
  env.xptb.assign(mix.codes.size(), std::vector<std::string>(mix.procs.size()));
  util::ThreadPool pool(workers());
  std::atomic<bool> failed{false};
  for (std::size_t i = 0; i < mix.codes.size(); ++i)
    for (std::size_t j = 0; j < mix.procs.size(); ++j)
      pool.submit(
          [&, i, j] {
            try {
              Scope s(log, "rt.measure");
              auto prog = suite::make_by_name(mix.codes[i]);
              rt::MeasureOptions mo;
              mo.n_threads = mix.procs[j];
              env.traces[i][j] = rt::measure(*prog, mo);
              s.set_count(static_cast<std::int64_t>(env.traces[i][j].size()));
              std::ostringstream os;
              trace::write_binary(env.traces[i][j], os);
              env.xptb[i][j] = os.str();
            } catch (const std::exception& e) {
              std::cerr << "perfbench: set-up measurement failed: " << e.what() << '\n';
              failed = true;
            }
          },
          static_cast<double>(mix.procs[j]));
  pool.wait();
  XP_REQUIRE(!failed, "serve-mixed set-up failed");
  for (const serve::Client::Ticket t : tickets)
    for (const serve::QueryResult& r : c.wait_batch(t))
      XP_REQUIRE(r.ok, "warming a bench session failed: " + r.error);
  return env;
}

/// What one request produced.
struct Sample {
  double latency_s = 0;  ///< completion minus scheduled send time
  double lag_s = 0;      ///< actual minus scheduled send time
  double rtt_s = 0;      ///< round trip of the query call alone
  bool ok = false;
  serve::QueryResult result;
};

/// One schedule played against the daemon.
struct Step {
  std::vector<Req> sched;
  std::vector<Sample> samples;  ///< by schedule index
  double wall_s = 0;  ///< step start to the last completion
};

/// Play `sched` against the daemon.  With a span log, each request gets a
/// "serve.request" span with one child per client call.
Step play(Env& env, const Mix& mix, std::vector<Req> sched_in, SpanLog* log,
          Outcome& out) {
  Step step;
  step.sched = std::move(sched_in);
  const std::vector<Req>& sched = step.sched;
  step.samples.resize(sched.size());
  std::vector<serve::Client> clients;
  for (int i = 0; i < workers(); ++i)
    clients.push_back(serve::Client::connect_tcp(env.server->tcp_port()));
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(sched[i].t));
  };
  std::vector<std::thread> threads;
  for (serve::Client& c : clients)
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < sched.size();) {
        const Req& r = sched[i];
        Sample& smp = step.samples[i];
        const auto due = due_of(i);
        std::this_thread::sleep_until(due);
        smp.lag_s = std::chrono::duration<double>(Clock::now() - due).count();
        const Scope req(log, "serve.request");
        const auto call = [&](const char* name, auto&& fn) {
          const Scope s(log, name, req.id());
          return fn();
        };
        try {
          const serve::Query q = query_of(mix, r);
          if (r.upload) {
            const std::string& bytes = env.xptb[static_cast<std::size_t>(r.code)]
                                               [static_cast<std::size_t>(r.n)];
            const std::uint64_t sid =
                call("serve.upload", [&] { return c.load_trace_bytes(bytes); });
            smp.result = call("serve.query", [&] { return c.query(sid, q); });
            call("serve.close", [&] {
              c.close_session(sid);
              return 0;
            });
          } else {
            const std::uint64_t sid = env.sessions[static_cast<std::size_t>(r.code)];
            const auto q0 = Clock::now();
            smp.result = call("serve.query", [&] { return c.query(sid, q); });
            smp.rtt_s = seconds_since(q0);
          }
          smp.ok = smp.result.ok;
          if (!smp.ok) out.fail("served " + combo_key(mix, r) + ": " + smp.result.error);
        } catch (const std::exception& e) {
          out.fail("request " + combo_key(mix, r) + ": " + e.what());
        }
        smp.latency_s = std::chrono::duration<double>(Clock::now() - due).count();
      }
    });
  for (std::thread& t : threads) t.join();
  step.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return step;
}

/// Every served reply must be bitwise-equal to in-process core::predict on
/// the same inputs, and that prediction must match the committed digest.
void verify(Env& env, const Mix& mix, const std::deque<Step>& steps, Reference& ref,
            Outcome& out, SpanLog* log, SimTally* sim) {
  std::map<std::string, Req> combos;
  for (const Step& st : steps)
    for (const Req& r : st.sched) combos.emplace(combo_key(mix, r), r);

  std::vector<std::vector<core::TranslatedTrace>> prepared(mix.codes.size());
  for (std::size_t i = 0; i < mix.codes.size(); ++i)
    for (const trace::Trace& t : env.traces[i])
      prepared[i].push_back(core::prepare_trace(t));

  std::vector<std::pair<std::string, Req>> todo(combos.begin(), combos.end());
  std::vector<serve::QueryResult> expect(todo.size());
  std::vector<core::Prediction> preds(todo.size());
  util::ThreadPool pool(workers());
  for (std::size_t k = 0; k < todo.size(); ++k)
    pool.submit([&, k] {
      const Req& r = todo[k].second;
      const serve::Query q = query_of(mix, r);
      core::Prediction& p = preds[k];
      try {
        model::SimParams params = model::parse_params_string(q.params_text);
        params.proc.mips_ratio = q.mips_ratio;
        params.validate(q.n_procs);
        // The daemon's query options: library pick of the exact path, no
        // extrapolated trace.
        core::SimOptions so;
        so.mode = core::SimMode::Auto;
        so.emit_trace = false;
        const Scope s(log, "simulate");
        p = core::predict(prepared[static_cast<std::size_t>(r.code)]
                                  [static_cast<std::size_t>(r.n)],
                          params, so);
      } catch (const std::exception& e) {
        out.fail("in-process prediction " + todo[k].first + ": " + e.what());
        return;  // expect[k] stays !ok, so served replies cannot match it
      }
      serve::QueryResult& e = expect[k];
      e.ok = true;
      e.predicted_ns = p.predicted_time.count_ns();
      e.ideal_ns = p.ideal_time.count_ns();
      e.measured_ns = p.measured_time.count_ns();
      e.messages = p.sim.messages;
      e.bytes = p.sim.bytes;
      e.compute_ns = p.sim.total_compute().count_ns();
      e.comm_wait_ns = p.sim.total_comm_wait().count_ns();
      e.barrier_wait_ns = p.sim.total_barrier_wait().count_ns();
      if (p.sim.sampling.active) {
        e.sampling_epochs = p.sim.sampling.epochs;
        e.sampling_classes = p.sim.sampling.classes;
        e.sampling_simulated = p.sim.sampling.epochs_simulated;
        e.sampling_error_bound_ns = p.sim.sampling.error_bound.count_ns();
      }
    });
  pool.wait();

  std::map<std::string, serve::QueryResult> by_key;
  for (std::size_t k = 0; k < todo.size(); ++k) {
    ref.check(todo[k].first, answer_of(expect[k]), out);
    by_key.emplace(todo[k].first, expect[k]);
    if (sim) {
      const Req& r = todo[k].second;
      sim->add(preds[k], prepared[static_cast<std::size_t>(r.code)]
                                 [static_cast<std::size_t>(r.n)]
                                     .compiled->epoch_classes.epochs());
    }
  }
  for (const Step& st : steps)
    for (std::size_t i = 0; i < st.samples.size(); ++i) {
      const Sample& smp = st.samples[i];
      if (!smp.ok) continue;  // already counted as failed
      const std::string key = combo_key(mix, st.sched[i]);
      if (smp.result == by_key.at(key))
        out.ok();
      else
        out.fail("served reply differs from in-process predict for " + key);
    }
}

std::vector<double> latencies_ms(const Step& s) {
  std::vector<double> v;
  for (const Sample& smp : s.samples) v.push_back(1e3 * smp.latency_s);
  return v;
}

/// A rate is met when p99 latency stays within the limit and the step drains
/// within the limit of its scheduled end (no growing backlog).
bool meets_limit(const Step& s) {
  for (const Sample& smp : s.samples)
    if (!smp.ok) return false;
  return quantile(latencies_ms(s), 0.99) <= kP99LimitMs &&
         s.wall_s <= s.sched.back().t + kP99LimitMs / 1e3;
}

/// Latency quantile q (ms) per window of kWindowS seconds of scheduled send
/// time.  The reported latencies are medians over these windows: a host
/// stall that hits a few windows moves them little, where it would own the
/// tail of the pooled sample.
std::vector<double> window_quantiles(const Step& s, double q) {
  // Whole windows only: a short tail window would weigh like a full one.
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(s.sched.back().t / kWindowS));
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < s.samples.size(); ++i) {
    const auto w = static_cast<std::size_t>(s.sched[i].t / kWindowS);
    if (w < windows) by_window[w].push_back(1e3 * s.samples[i].latency_s);
  }
  std::vector<double> out;
  for (const std::vector<double>& v : by_window) out.push_back(quantile(v, q));
  return out;
}

double predictions_per_s(const Step& s) {
  double n = 0;
  for (const Sample& smp : s.samples) n += smp.ok ? 1 : 0;
  return n / s.wall_s;
}

/// A fingerprint of the schedule, so runs with different seeds can be told
/// apart (the self-test checks that they differ).
void print_schedule(const Mix& mix, const std::vector<Req>& sched) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Req& r : sched)
    for (const char c : combo_key(mix, r) + (r.upload ? "u" : "q") +
                            std::to_string(static_cast<std::int64_t>(r.t * 1e6))) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  std::printf("schedule: %zu requests, fnv %016llx\n", sched.size(),
              static_cast<unsigned long long>(h));
}

}  // namespace

Sheet run_serve_mixed(const Options& opt, Reference& ref, Outcome& out) {
  const Mix mix = make_mix(opt.small);
  Sheet s;
  std::unique_ptr<SpanLog> log;
  if (opt.trace) log = std::make_unique<SpanLog>();

  Env env;
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : kSetupReps); ++i) {
    const auto t0 = Clock::now();
    env = Env{};  // stop the previous daemon before starting the next
    env = set_up(opt, mix, log.get());
    setups.push_back(seconds_since(t0));
  }
  s.setup_s = median(setups);

  std::deque<Step> steps;  // everything played, verified at the end
  if (opt.write_reference) {  // record every combination of the mix
    steps.push_back(Step{all_combos(mix), {}, 0});
    verify(env, mix, steps, ref, out, nullptr, nullptr);
    return s;
  }

  // Untimed warm-up: upload every trace once, so first-sight translation is
  // paid here, once per daemon lifetime, as a long-lived daemon pays it.
  serve::Service& svc = env.server->service();
  const serve::ServerStats before = svc.stats();
  {
    std::vector<Req> uploads;
    for (int c = 0; c < static_cast<int>(mix.codes.size()); ++c)
      for (int n = 0; n < static_cast<int>(mix.procs.size()); ++n)
        uploads.push_back(Req{0, true, c, n, 0, 0});
    steps.push_back(play(env, mix, std::move(uploads), nullptr, out));
  }

  if (!opt.trace) {
    const std::vector<Req> nominal = schedule(mix, kNominalQps, 0.6 * opt.seconds, opt.seed);
    print_schedule(mix, nominal);
    const Step& nom = steps.emplace_back(play(env, mix, nominal, nullptr, out));
    print_series("p50 by window (ms)", window_quantiles(nom, 0.5));
    print_series("p99 by window (ms)", window_quantiles(nom, 0.99));
    s.predictions_per_s = predictions_per_s(nom);

    // The highest rate that meets the limit.  The fixed ladder climbs from
    // the nominal rate to the first rate that misses; bisection then narrows
    // that bracket.  Near saturation p99 rises steeply, so the result is
    // where the limit crosses the line between the final bracket's ends
    // (interpolated in log p99), not one end of it.
    struct Probe {
      double rate;
      double p99;
    };
    const double rung_s = 0.4 * opt.seconds / static_cast<double>(kLadderQps.size() + kBisections);
    std::uint64_t rung_seed = opt.seed;
    const auto probe = [&](double rate) {
      const Step& st = steps.emplace_back(
          play(env, mix, schedule(mix, rate, rung_s, ++rung_seed), nullptr, out));
      const double p99 = quantile(latencies_ms(st), 0.99);
      const bool met = meets_limit(st);
      std::printf("rate: %.0f req/s offered, %.1f req/s done, p50 %.3f ms, p99 %.3f ms, %s\n",
                  rate, static_cast<double>(st.samples.size()) / st.wall_s,
                  median(latencies_ms(st)), p99, met ? "met" : "missed");
      return std::pair<Probe, bool>{Probe{rate, p99}, met};
    };
    if (meets_limit(nom)) {
      Probe lo{kNominalQps, quantile(latencies_ms(nom), 0.99)};
      std::optional<Probe> hi;
      for (const double rate : kLadderQps) {
        const auto [p, met] = probe(rate);
        if (!met) {
          hi = p;
          break;
        }
        lo = p;
      }
      for (int k = 0; hi && k < kBisections; ++k) {
        const auto [p, met] = probe(std::sqrt(lo.rate * hi->rate));
        (met ? lo : *hi) = p;
      }
      if (hi) {
        const double t = hi->p99 > lo.p99 ? std::log(kP99LimitMs / lo.p99) /
                                                std::log(hi->p99 / lo.p99)
                                          : 1.0;
        s.serve_max_rate_qps = lo.rate + std::clamp(t, 0.0, 1.0) * (hi->rate - lo.rate);
      } else {
        s.serve_max_rate_qps = lo.rate;  // the ladder's top: a lower bound
      }
    }

    verify(env, mix, steps, ref, out, nullptr, nullptr);
    env.server.reset();
    s.pred_error_pct = pred_error_pct(env.acc, ref, out);
    s.ok_frac = out.ok_frac();
    s.peak_rss_mb = peak_rss_mb();
    return s;
  }

  // Traced run: the nominal schedule untraced, then again traced.
  const std::vector<Req> nominal = schedule(mix, kNominalQps, 0.35 * opt.seconds, opt.seed);
  const Step& plain = steps.emplace_back(play(env, mix, nominal, nullptr, out));
  std::atomic<bool> sampling{true};
  std::uint64_t depth_max = 0;
  std::thread depth_sampler([&] {
    while (sampling) {
      depth_max = std::max(depth_max, svc.stats().queue_depth);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const Step& traced = steps.emplace_back(play(env, mix, nominal, log.get(), out));
  sampling = false;
  depth_sampler.join();
  const serve::ServerStats after = svc.stats();

  // Round trips of the traced step's bench-session queries, and the
  // in-process service time of the same queries (Service::run_query on the
  // calling thread), paired request by request.
  std::vector<double> rtt_us, service_us, overhead_us;
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    const Req& r = nominal[i];
    if (r.upload || !traced.samples[i].ok) continue;
    rtt_us.push_back(1e6 * traced.samples[i].rtt_s);
    if (service_us.size() >= 400) continue;
    const auto t0 = Clock::now();
    const serve::QueryResult res =
        svc.run_query(env.sessions[static_cast<std::size_t>(r.code)], query_of(mix, r));
    service_us.push_back(1e6 * seconds_since(t0));
    overhead_us.push_back(rtt_us.back() - service_us.back());
    if (!res.ok) out.fail("in-process run_query " + combo_key(mix, r) + ": " + res.error);
  }

  std::vector<double> decode_us;
  for (const auto& per_code : env.xptb)
    for (const std::string& bytes : per_code) {
      std::istringstream is(bytes);
      const auto t0 = Clock::now();
      const trace::Trace t = trace::read_binary(is);
      decode_us.push_back(1e6 * seconds_since(t0));
    }

  // What the daemon does to a new upload: translate and compile.
  double classes = 0, epochs = 0;
  for (const auto& per_code : env.traces)
    for (const trace::Trace& t : per_code) {
      std::vector<trace::Trace> translated;
      {
        Scope sc(log.get(), "translate");
        (void)trace::summarize(t);
        translated = core::translate(t);
        (void)core::ideal_parallel_time(translated);
      }
      Scope sc(log.get(), "compile");
      const core::CompiledTrace ct = core::CompiledTrace::compile(translated);
      classes += static_cast<double>(ct.epoch_classes.n_classes());
      epochs += static_cast<double>(ct.epoch_classes.epochs());
    }

  SimTally sim;
  verify(env, mix, steps, ref, out, log.get(), &sim);

  double covered = 0, waited = 0;
  for (const double d : log->durations("serve.request")) covered += d;
  for (const Sample& smp : traced.samples) waited += smp.latency_s;
  std::vector<double> lags;
  for (const Sample& smp : plain.samples) lags.push_back(1e3 * smp.lag_s);
  double plain_mean = 0, traced_mean = 0;
  for (const double v : latencies_ms(plain)) plain_mean += v;
  for (const double v : latencies_ms(traced)) traced_mean += v;

  s.rt_measure_s = log->busy_s("rt.measure");
  s.rt_events_recorded = static_cast<double>(log->count("rt.measure"));
  s.translate_busy_s = log->busy_s("translate");
  s.compile_busy_s = log->busy_s("compile");
  s.compile_classes_per_epoch = epochs > 0 ? classes / epochs : 0.0;
  s.simulate_busy_s = log->busy_s("simulate");
  sim.store(s, 1.0);
  s.simulate_cell_p50_ms = 1e3 * median(log->durations("simulate"));
  s.simulate_cell_p99_ms = 1e3 * quantile(log->durations("simulate"), 0.99);
  s.serve_latency_p50_ms = median(window_quantiles(plain, 0.5));
  s.serve_latency_p99_ms = median(window_quantiles(plain, 0.99));
  s.serve_service_us = median(service_us);
  s.serve_rtt_p50_us = median(rtt_us);
  s.serve_rtt_p99_us = quantile(rtt_us, 0.99);
  s.serve_overhead_us = median(overhead_us);
  s.serve_upload_ms = 1e3 * median(log->durations("serve.upload"));
  s.serve_decode_us = median(decode_us);
  s.serve_queue_depth_max = static_cast<double>(depth_max);
  s.serve_cache_hits = static_cast<double>(after.cache_hits - before.cache_hits);
  s.serve_cache_misses = static_cast<double>(after.cache_misses - before.cache_misses);
  s.serve_evictions = static_cast<double>(after.cache_evictions - before.cache_evictions);
  s.loadgen_lag_p99_ms = quantile(lags, 0.99);
  s.trace_coverage = waited > 0 ? covered / waited : 0.0;
  s.trace_overhead_frac = plain_mean > 0 ? traced_mean / plain_mean - 1.0 : 0.0;
  env.server.reset();
  if (!opt.out_dir.empty()) log->write_json(opt.out_dir + "/serve-mixed.trace.json");
  return s;
}

}  // namespace pb
