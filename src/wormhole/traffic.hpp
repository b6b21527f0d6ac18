// Dynamic workload generation (Section 7.2): every node runs a multicast
// generator that repeatedly waits a random interarrival time, draws a
// uniform random destination set, and injects the multicast routed by the
// algorithm under test.
#pragma once

#include <cstdint>
#include <vector>

#include "core/multicast.hpp"
#include "core/route_batch.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "wormhole/network.hpp"

namespace mcnet::mcast {
class Router;
}

namespace mcnet::worm {

struct TrafficConfig {
  /// Mean time between multicasts per node (the paper's reference point is
  /// 300 us).
  double mean_interarrival_s = 300e-6;
  /// Average number of destinations; the count is drawn uniformly from
  /// [1, 2*avg - 1] (mean = avg) unless `fixed_destinations`.
  std::uint32_t avg_destinations = 10;
  bool fixed_destinations = false;
  /// Interarrival distribution: uniform on [0, 2*mean) by default (the
  /// paper's "uniformly random" interval), exponential when set.
  bool exponential_interarrival = false;
  std::uint64_t seed = 1;
  /// Requests routed per Router::route_many call.  1 (the default) is the
  /// exact legacy behaviour: one Router::plan per arrival, destination sets
  /// drawn from the same per-node stream as the interarrival gaps.  Values
  /// > 1 prefetch that many destination draws per node from a dedicated
  /// destination stream and route them in one batch (amortised cache
  /// lookups and routing scratch); arrivals and injections are unchanged,
  /// but the destination randomness moves to its own stream, so results
  /// are deterministic yet not draw-for-draw identical to route_batch=1.
  std::uint32_t route_batch = 1;
};

/// Drives one generator per node on the shared scheduler.  Each arrival
/// draws into a reused request, plans it into a reused worm plan and
/// injects that, so a steady-state arrival allocates nothing.
class TrafficDriver {
 public:
  /// Route every generated multicast through `router` (which must outlive
  /// the driver).
  TrafficDriver(evsim::Scheduler& sched, Network& network, TrafficConfig config,
                const mcast::Router& router);

  /// Schedule the first arrival of every node's generator.
  void start();
  /// Stop generating (in-flight worms continue draining).
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  void arrival(topo::NodeId node);
  [[nodiscard]] double next_gap(evsim::Rng& rng);
  /// Destination count of the next multicast.
  [[nodiscard]] std::uint32_t draw_count(evsim::Rng& rng) const;
  [[nodiscard]] bool batching() const { return config_.route_batch > 1; }
  /// Draw route_batch destination sets for `node` and route them in one
  /// route_many call into the node's prefetch queue.
  void refill(topo::NodeId node);

  /// Per-node prefetch queue of routed requests (batch mode only).
  struct RouteQueue {
    mcast::RouteBatch routes;
    std::size_t next = 0;
  };

  evsim::Scheduler* sched_;
  Network* network_;
  TrafficConfig config_;
  const mcast::Router* router_;
  std::vector<evsim::Rng> rngs_;       // one stream per node
  std::vector<evsim::Rng> dest_rngs_;  // batch-mode destination streams
  std::vector<RouteQueue> queues_;
  mcast::MulticastRequest request_;  // reused per arrival
  WormPlan plan_;                    // reused per arrival
  bool stopped_ = false;
};

}  // namespace mcnet::worm
