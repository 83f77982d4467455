// abl_serve_qps — load generator for the xp::serve what-if daemon.
//
// The serving claim (ISSUE: extrapolation-as-a-service): once a source's
// translate cache is warm, a served prediction is a protocol round-trip
// plus one deterministic simulation, so a single daemon sustains >= 1k
// queries/sec with single-digit-millisecond tails on commodity hardware.
//
// Methodology: an in-process Server on a Unix socket under mkdtemp(3),
// one session over the committed golden trace (tests/golden/grid_n4.xpt,
// the same fixture the byte-identity test uses).  Per client count:
//   * latency phase — unpipelined single queries, per-query wall samples
//     aggregated across clients into p50/p99;
//   * throughput phase — each client keeps a window of pipelined batches
//     in flight, QPS = total queries / wall.
// Every query asks for the same 4-processor extrapolation under a cycling
// MIPS ratio, so the phase also doubles as a determinism check: the same
// (ratio) query must return bitwise-identical results everywhere.
//
// The shape checks gate determinism, zero failed queries and peak QPS
// >= 1000 (the binary exits nonzero when one fails); the last stdout line
// is the JSON "serve" section of BENCH_sim.json.
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/trace_io.hpp"
#include "util/thread_pool.hpp"

using namespace xp;

namespace {

constexpr double kMipsRatios[] = {1.0, 2.0, 4.0, 8.0};

serve::Query query_for(std::size_t i) {
  serve::Query q;
  q.n_procs = 4;  // grid_n4.xpt is a 4-thread measurement
  q.mips_ratio = kMipsRatios[i % (sizeof(kMipsRatios) / sizeof(*kMipsRatios))];
  q.params_text = "preset = distributed";
  return q;
}

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

}  // namespace

int main() {
  std::cout << "=== serve QPS: warm-cache what-if queries over a socket ===\n";
  const int hw = util::ThreadPool::default_workers();
  std::cout << "host hardware_concurrency: " << hw << "\n";

  char tmpdir[] = "/tmp/xp_serve_qps_XXXXXX";
  if (!mkdtemp(tmpdir)) {
    std::cerr << "error: mkdtemp failed\n";
    return 1;
  }
  const std::string sock = std::string(tmpdir) + "/qps.sock";

  int rc = 0;
  try {
    std::ifstream golden(XP_GOLDEN_DIR "/grid_n4.xpt");
    const trace::Trace measured = trace::read_text(golden);

    serve::ServerOptions opt;
    opt.unix_path = sock;
    serve::Server server(std::move(opt));
    server.start();

    // Warm the source's translate cache once so every timed phase measures
    // the steady serving state, and pin the expected result per ratio for
    // the determinism check.
    serve::Client warm = serve::Client::connect_unix(sock);
    const std::uint64_t session = warm.load_trace(measured);
    std::map<double, serve::QueryResult> expected;
    for (std::size_t i = 0; i < 4; ++i) {
      const serve::Query q = query_for(i);
      expected[q.mips_ratio] = warm.query(session, q);
    }

    std::cout << "\n  clients   batch        qps     p50_us     p99_us\n";
    bool deterministic = true;
    double max_qps = 0.0;
    bench::JsonObject rows;
    const int batch = 16;
    for (const int clients : {1, 2, 4}) {
      if (clients > std::max(1, hw)) break;

      // Latency phase: unpipelined single queries.
      const int lat_queries = 200;
      std::vector<double> samples_us;
      std::mutex mu;
      {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            serve::Client cl = serve::Client::connect_unix(sock);
            std::vector<double> local;
            local.reserve(lat_queries);
            for (int i = 0; i < lat_queries; ++i) {
              const serve::Query q = query_for(static_cast<std::size_t>(i + c));
              const auto t0 = std::chrono::steady_clock::now();
              const serve::QueryResult r = cl.query(session, q);
              local.push_back(
                  std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
              if (!r.ok || r != expected.at(q.mips_ratio)) {
                std::lock_guard<std::mutex> lk(mu);
                deterministic = false;
              }
            }
            std::lock_guard<std::mutex> lk(mu);
            samples_us.insert(samples_us.end(), local.begin(), local.end());
          });
        }
        for (auto& t : threads) t.join();
      }
      std::sort(samples_us.begin(), samples_us.end());
      const double p50 = percentile(samples_us, 0.50);
      const double p99 = percentile(samples_us, 0.99);

      // Throughput phase: a window of pipelined batches per client.
      const int batches_per_client = 128;
      const int window = 8;
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            serve::Client cl = serve::Client::connect_unix(sock);
            std::vector<serve::Query> qs;
            for (int i = 0; i < batch; ++i)
              qs.push_back(query_for(static_cast<std::size_t>(i + c)));
            std::deque<serve::Client::Ticket> inflight;
            for (int b = 0; b < batches_per_client; ++b) {
              inflight.push_back(cl.submit_batch(session, qs));
              if (inflight.size() < static_cast<std::size_t>(window)) continue;
              const auto results = cl.wait_batch(inflight.front());
              inflight.pop_front();
              for (std::size_t i = 0; i < results.size(); ++i) {
                if (results[i] != expected.at(qs[i].mips_ratio)) {
                  std::lock_guard<std::mutex> lk(mu);
                  deterministic = false;
                }
              }
            }
            while (!inflight.empty()) {
              cl.wait_batch(inflight.front());
              inflight.pop_front();
            }
          });
        }
        for (auto& t : threads) t.join();
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double qps =
          static_cast<double>(clients) * batches_per_client * batch / wall;
      max_qps = std::max(max_qps, qps);
      std::printf("  %7d   %5d   %8.1f   %8.1f   %8.1f\n", clients, batch,
                  qps, p50, p99);
      rows.obj("serve_qps_clients_" + std::to_string(clients),
               bench::JsonObject()
                   .count("batch", batch)
                   .num("qps", qps, 1)
                   .num("p50_us", p50, 1)
                   .num("p99_us", p99, 1));
    }

    const serve::ServerStats stats = warm.stats();
    std::cout << "\nserver counters: " << stats.queries_ok << " queries ok, "
              << stats.queries_err << " failed, " << stats.cache_hits
              << " cache hits / " << stats.cache_misses << " misses\n\n";

    bench::shape_check(
        "every served prediction matched the warm-up result bitwise "
        "(deterministic serving)",
        deterministic);
    bench::shape_check("no served query returned an error",
                       stats.queries_err == 0);
    char claim[96];
    std::snprintf(claim, sizeof claim,
                  "warm-cache serving clears 1000 queries/sec (peak %.0f)",
                  max_qps);
    bench::shape_check(claim, max_qps >= 1000.0);

    warm.shutdown_server();
    server.join();
    std::cout << bench::JsonObject().obj("serve", rows).text() << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    rc = 1;
  }
  unlink(sock.c_str());
  rmdir(tmpdir);
  return rc != 0 ? rc : bench::exit_code();
}
