// The interconnection network component.
//
// Ties the topology, analytic message costs, and contention tracker to the
// discrete-event engine: send() injects a message now and schedules its
// delivery callback at arrival time.  CPU-side costs (message build,
// start-up, receive handling) are charged by the processor models, not
// here — the network owns only wire time, matching the component split of
// Figure 3.
#pragma once

#include <cstdint>

#include "net/contention.hpp"
#include "net/message_cost.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "util/inplace_function.hpp"

namespace xp::net {

struct NetworkParams {
  TopologyKind topology = TopologyKind::FatTree;
  ContentionParams contention;
};

/// A network's running traffic totals.  Every field is an integer sum, so
/// the difference taken over one stretch of a run can be credited back
/// bit for bit (core::Simulator's epoch memo replays windows that way).
struct Tally {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t inflight_sum = 0;  ///< ContentionTracker::inflight_sum()
  std::int64_t injections = 0;    ///< ContentionTracker::injections()

  Tally operator-(const Tally& o) const {
    return {messages - o.messages, bytes - o.bytes,
            inflight_sum - o.inflight_sum, injections - o.injections};
  }
};

class Network {
 public:
  /// Delivery continuation, stored inline (no allocation per message).
  /// Sized so the engine-side wrapper — a Network* plus this object —
  /// still fits the engine's inline callback buffer exactly.
  static constexpr std::size_t kDeliveryCaptureBytes =
      sim::Engine::kInlineCallbackBytes - sizeof(void*) - 2 * sizeof(void*);
  using DeliveryFn = util::InplaceFunction<void(), kDeliveryCaptureBytes>;

  Network(sim::Engine& engine, const CommParams& comm,
          const NetworkParams& params, int n_procs);

  /// Inject a message of `bytes` at the current simulation time; the
  /// callback runs at the delivery instant.
  void send(int src, int dst, std::int64_t bytes, DeliveryFn on_delivery);

  /// Wire time a message would see if injected right now (no injection).
  Time preview_wire(int src, int dst, std::int64_t bytes) const;

  const Topology& topology() const { return topo_; }

  // Aggregate statistics for reports.
  std::int64_t messages_sent() const { return messages_; }
  std::int64_t bytes_sent() const { return bytes_; }
  const ContentionTracker& contention() const { return contention_; }
  Tally tally() const;
  /// Add traffic that was accounted outside send() (a skipped replay
  /// window); nothing is injected or delivered.
  void credit(const Tally& d);

 private:
  sim::Engine& engine_;
  CommParams comm_;
  Topology topo_;
  ContentionTracker contention_;
  std::int64_t messages_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace xp::net
