// Failure-aware routing decorator over mcast::Router.
//
// A FaultAwareRouter consults a shared FaultState on every request:
//
//  * routes from the wrapped algorithm are validated against the failure
//    set; a route that would traverse a failed channel or node falls back
//    to per-destination unicast splitting over BFS shortest paths in the
//    degraded topology (the tree/path structure the Chapter 5/6 algorithms
//    rely on does not survive arbitrary link cuts);
//  * destinations cut off by a partition are detected by reachability and
//    reported as unreachable instead of routed into a dead end;
//  * when the wrapped router is a CachingRouter, its entries are
//    invalidated on every fault-epoch change, so no cached route ever
//    crosses a channel that failed after it was computed.
//
// The fallback unicast paths are shortest paths in whatever subgraph
// survives, not label-ordered paths, so the deadlock-freedom guarantees of
// Chapter 6 do not extend to degraded operation; the service layer's
// timeout + abort (multicast_reliable) is the backstop that keeps the
// simulation live regardless.
#pragma once

#include <atomic>
#include <memory>

#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "fault/fault_state.hpp"

namespace mcnet::obs {
class MetricsRegistry;
class Counter;
}  // namespace mcnet::obs

namespace mcnet::fault {

/// Outcome of routing one request against the current failure state.
struct FaultRouteResult {
  /// Route covering exactly the reachable destinations (empty when none).
  mcast::MulticastRoute route;
  /// Destinations with no usable path from the source, in request order.
  std::vector<NodeId> unreachable;
  /// True when the wrapped algorithm's route was unusable and the fallback
  /// unicast splitting produced `route` instead.
  bool degraded = false;
  /// Fault epoch the result was computed against.
  std::uint64_t epoch = 0;
};

class FaultAwareRouter final : public mcast::Router {
 public:
  /// `faults` is shared with the Network simulating the same topology (see
  /// worm::Network::fault_state()).  The inner router is typically a
  /// CachingRouter: it is detected and cleared on epoch changes.
  FaultAwareRouter(std::unique_ptr<mcast::Router> inner,
                   std::shared_ptr<FaultState> faults);

  /// Route around the current failure set; never throws on unreachable
  /// destinations (they are reported in the result instead).
  [[nodiscard]] FaultRouteResult route_with_faults(
      const mcast::MulticastRequest& request) const;

  /// Router interface: equivalent to route_with_faults(), but throws
  /// std::runtime_error when any destination is unreachable (the plain
  /// interface has no channel for partial delivery).
  [[nodiscard]] mcast::MulticastRoute route(
      const mcast::MulticastRequest& request) const override;

  /// Batch form: the fault epoch is synced once for the whole batch, then a
  /// healthy network delegates straight to the inner router's batch path
  /// (cache included); a degraded network routes each request through the
  /// fault-aware fallback.  Throws std::runtime_error exactly as route()
  /// does when a request has unreachable destinations.
  [[nodiscard]] mcast::RouteBatch route_many(
      std::span<const mcast::MulticastRequest> requests) const override;

  /// route_with_faults() in network shape: `out` receives the plan of the
  /// reachable destinations, and the unreachable ones are returned in
  /// request order.  A healthy network takes the inner router's plan() (a
  /// cache hit copies its compact plan); a degraded one routes with
  /// route_with_faults() and converts with plan_route().
  [[nodiscard]] std::vector<NodeId> plan_with_faults(const mcast::MulticastRequest& request,
                                                     worm::WormPlan& out) const;

  /// Router interface: plan_with_faults(), throwing std::runtime_error like
  /// route() when any destination is unreachable.
  void plan(const mcast::MulticastRequest& request, worm::WormPlan& out) const override;

  [[nodiscard]] std::vector<worm::WormSpec> specs(
      const mcast::MulticastRoute& route) const override {
    return inner_->specs(route);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] mcast::Algorithm algorithm() const override { return inner_->algorithm(); }
  [[nodiscard]] bool deadlock_free() const override { return inner_->deadlock_free(); }
  [[nodiscard]] const topo::Topology& topology() const override {
    return inner_->topology();
  }
  [[nodiscard]] std::uint8_t channel_copies() const override {
    return inner_->channel_copies();
  }

  [[nodiscard]] const mcast::Router& inner() const { return *inner_; }
  [[nodiscard]] const FaultState& faults() const { return *faults_; }
  [[nodiscard]] const std::shared_ptr<FaultState>& fault_state() const { return faults_; }
  /// The wrapped route cache, when present (nullptr otherwise).
  [[nodiscard]] const mcast::CachingRouter* cache() const { return cache_; }

  /// True iff `route` avoids every failed channel and node.  Exposed for
  /// tests and audits.
  [[nodiscard]] bool route_usable(const mcast::MulticastRoute& route) const;

  /// Register live counters fault.fallbacks (degraded unicast-split
  /// routes), fault.partitions (requests with >= 1 unreachable
  /// destination) and fault.epoch_invalidations (cache clears on fault
  /// epoch changes) on `registry`; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// Clear the wrapped cache if the fault epoch moved since the last call.
  void sync_epoch() const;

  /// route_with_faults body after the epoch sync (route_many syncs once per
  /// batch instead of once per request).
  [[nodiscard]] FaultRouteResult route_with_faults_synced(
      const mcast::MulticastRequest& request) const;

  /// BFS shortest-path unicast per destination over usable channels only.
  /// Every destination must be reachable (callers filter first).
  [[nodiscard]] mcast::MulticastRoute unicast_split(
      NodeId source, const std::vector<NodeId>& destinations) const;

  std::unique_ptr<mcast::Router> inner_;
  mcast::CachingRouter* cache_;  // inner_, when it is a CachingRouter
  std::shared_ptr<FaultState> faults_;
  mutable std::atomic<std::uint64_t> seen_epoch_;
  obs::Counter* metric_fallbacks_ = nullptr;
  obs::Counter* metric_partitions_ = nullptr;
  obs::Counter* metric_invalidations_ = nullptr;
};

/// make_router(...) behind a CachingRouter behind a FaultAwareRouter — the
/// standard stack for degraded-network simulation.
[[nodiscard]] std::unique_ptr<FaultAwareRouter> make_fault_aware_router(
    const topo::Topology& topology, mcast::Algorithm algorithm,
    std::shared_ptr<FaultState> faults, std::uint8_t copies = 1,
    mcast::RouteCacheConfig cache_config = {});

}  // namespace mcnet::fault
