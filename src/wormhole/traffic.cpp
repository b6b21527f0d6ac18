#include "wormhole/traffic.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/router.hpp"

namespace mcnet::worm {

TrafficDriver::TrafficDriver(evsim::Scheduler& sched, Network& network, TrafficConfig config,
                             const mcast::Router& router)
    : sched_(&sched), network_(&network), config_(config), router_(&router) {
  if (config.route_batch == 0) {
    throw std::invalid_argument("TrafficConfig: route_batch must be >= 1 (got 0)");
  }
  const std::uint32_t n = network.topology().num_nodes();
  rngs_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    rngs_.emplace_back(evsim::derive_seed(config.seed, i));
  }
  if (batching()) {
    queues_.resize(n);
    dest_rngs_.reserve(n);
    // A distinct stream family for the prefetched destination draws keeps
    // batch-mode runs deterministic without perturbing the gap stream.
    for (std::uint32_t i = 0; i < n; ++i) {
      dest_rngs_.emplace_back(evsim::derive_seed(config.seed ^ 0x6d636173745f6271ULL, i));
    }
  }
}

double TrafficDriver::next_gap(evsim::Rng& rng) {
  return config_.exponential_interarrival
             ? rng.exponential(config_.mean_interarrival_s)
             : rng.uniform(0.0, 2.0 * config_.mean_interarrival_s);
}

std::uint32_t TrafficDriver::draw_count(evsim::Rng& rng) const {
  const std::uint32_t k = config_.fixed_destinations
                              ? config_.avg_destinations
                              : rng.uniform_int(1, 2 * config_.avg_destinations - 1);
  return std::min(k, network_->topology().num_nodes() - 1);
}

void TrafficDriver::start() {
  for (topo::NodeId node = 0; node < network_->topology().num_nodes(); ++node) {
    sched_->schedule_in(next_gap(rngs_[node]), [this, node] { arrival(node); });
  }
}

void TrafficDriver::refill(topo::NodeId node) {
  RouteQueue& queue = queues_[node];
  queue.next = 0;
  evsim::Rng& rng = dest_rngs_[node];
  const std::uint32_t num_nodes = network_->topology().num_nodes();
  std::vector<mcast::MulticastRequest> requests(config_.route_batch);
  for (mcast::MulticastRequest& request : requests) {
    const std::uint32_t k = draw_count(rng);
    request.source = node;
    rng.sample_destinations_into(num_nodes, node, k, request.destinations);
  }
  queue.routes = router_->route_many(requests);
}

void TrafficDriver::arrival(topo::NodeId node) {
  if (stopped_) return;
  evsim::Rng& rng = rngs_[node];
  if (batching()) {
    RouteQueue& queue = queues_[node];
    if (queue.next == queue.routes.size()) refill(node);
    router_->plan_route(queue.routes.route_at(queue.next++), plan_);
  } else {
    const std::uint32_t k = draw_count(rng);
    request_.source = node;
    rng.sample_destinations_into(network_->topology().num_nodes(), node, k,
                                 request_.destinations);
    router_->plan(request_, plan_);
  }
  network_->inject(plan_);
  sched_->schedule_in(next_gap(rng), [this, node] { arrival(node); });
}

}  // namespace mcnet::worm
