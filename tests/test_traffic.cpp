// TrafficDriver: per-node multicast generators (Section 7.2 workload).
#include <gtest/gtest.h>

#include <set>

#include "core/route_cache.hpp"
#include "evsim/scheduler.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/traffic.hpp"
#include "wormhole/worm.hpp"

namespace {

using namespace mcnet;
using topo::Mesh2D;
using topo::NodeId;

/// Dual-path router that logs (source, destination count) of every request
/// the driver routes.
class LoggingRouter final : public mcast::Router {
 public:
  LoggingRouter(const Mesh2D& mesh, std::vector<std::pair<NodeId, std::size_t>>* log)
      : inner_(mcast::make_router(mesh, mcast::Algorithm::kDualPath, 1)), log_(log) {}

  [[nodiscard]] mcast::MulticastRoute route(
      const mcast::MulticastRequest& request) const override {
    note(request);
    return inner_->route(request);
  }
  void plan(const mcast::MulticastRequest& request, worm::WormPlan& out) const override {
    note(request);
    inner_->plan(request, out);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] mcast::Algorithm algorithm() const override { return inner_->algorithm(); }
  [[nodiscard]] bool deadlock_free() const override { return inner_->deadlock_free(); }
  [[nodiscard]] const topo::Topology& topology() const override { return inner_->topology(); }
  [[nodiscard]] std::uint8_t channel_copies() const override {
    return inner_->channel_copies();
  }

 private:
  void note(const mcast::MulticastRequest& request) const {
    if (log_ != nullptr) log_->emplace_back(request.source, request.destinations.size());
  }

  std::unique_ptr<mcast::Router> inner_;
  std::vector<std::pair<NodeId, std::size_t>>* log_;
};

struct Fixture {
  Mesh2D mesh{4, 4};
  evsim::Scheduler sched;
  worm::Network net{mesh, {.flit_time = 1e-7, .message_flits = 8, .channel_copies = 1},
                    sched};
};

TEST(TrafficDriver, EveryNodeGenerates) {
  Fixture f;
  std::vector<std::pair<NodeId, std::size_t>> log;
  const LoggingRouter router(f.mesh, &log);
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 3,
                              .fixed_destinations = false,
                              .exponential_interarrival = false,
                              .seed = 5},
                             router);
  driver.start();
  f.sched.run_until(20e-3);
  driver.stop();
  f.sched.run();
  std::set<NodeId> sources;
  for (const auto& [src, k] : log) sources.insert(src);
  EXPECT_EQ(sources.size(), f.mesh.num_nodes()) << "every node must generate";
  EXPECT_TRUE(f.net.idle());
}

TEST(TrafficDriver, FixedDestinationCountIsExact) {
  Fixture f;
  std::vector<std::pair<NodeId, std::size_t>> log;
  const LoggingRouter router(f.mesh, &log);
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 7,
                              .fixed_destinations = true,
                              .exponential_interarrival = false,
                              .seed = 6},
                             router);
  driver.start();
  f.sched.run_until(10e-3);
  driver.stop();
  f.sched.run();
  ASSERT_FALSE(log.empty());
  for (const auto& [src, k] : log) EXPECT_EQ(k, 7u);
}

TEST(TrafficDriver, VariableDestinationCountHasRequestedMean) {
  Fixture f;
  std::vector<std::pair<NodeId, std::size_t>> log;
  const LoggingRouter router(f.mesh, &log);
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 0.2e-3,
                              .avg_destinations = 5,
                              .fixed_destinations = false,
                              .exponential_interarrival = false,
                              .seed = 7},
                             router);
  driver.start();
  f.sched.run_until(200e-3);
  driver.stop();
  f.sched.run();
  ASSERT_GT(log.size(), 2000u);
  double total = 0.0;
  std::size_t lo = 99, hi = 0;
  for (const auto& [src, k] : log) {
    total += static_cast<double>(k);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  EXPECT_NEAR(total / static_cast<double>(log.size()), 5.0, 0.25);
  EXPECT_EQ(lo, 1u);   // uniform over [1, 2*avg - 1]
  EXPECT_EQ(hi, 9u);
}

TEST(TrafficDriver, StopHaltsGeneration) {
  Fixture f;
  std::vector<std::pair<NodeId, std::size_t>> log;
  const LoggingRouter router(f.mesh, &log);
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 2,
                              .fixed_destinations = true,
                              .exponential_interarrival = false,
                              .seed = 8},
                             router);
  driver.start();
  f.sched.run_until(5e-3);
  driver.stop();
  const std::size_t at_stop = log.size();
  f.sched.run();
  EXPECT_EQ(log.size(), at_stop) << "no new messages after stop";
  EXPECT_TRUE(f.net.idle()) << "in-flight worms drain after stop";
}

TEST(TrafficDriver, RouteBatchPrefetchGeneratesEverywhereDeterministically) {
  const topo::Mesh2D mesh(4, 4);
  const auto router = mcast::make_caching_router(mesh, mcast::Algorithm::kDualPath);
  const worm::TrafficConfig cfg{.mean_interarrival_s = 1e-3,
                                .avg_destinations = 3,
                                .fixed_destinations = false,
                                .exponential_interarrival = false,
                                .seed = 5,
                                .route_batch = 4};

  const auto run_once = [&] {
    evsim::Scheduler sched;
    worm::Network net(mesh, {.flit_time = 1e-7, .message_flits = 8, .channel_copies = 1},
                      sched);
    worm::TrafficDriver driver(sched, net, cfg, *router);
    driver.start();
    sched.run_until(20e-3);
    driver.stop();
    sched.run();
    EXPECT_TRUE(net.idle());
    return net.messages_completed();
  };
  const std::uint64_t first = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(run_once(), first) << "prefetched batches must be seed-deterministic";

  // Every node keeps generating under prefetch (the queue is per node).
  {
    evsim::Scheduler sched;
    worm::Network net(mesh, {.flit_time = 1e-7, .message_flits = 8, .channel_copies = 1},
                      sched);
    worm::TrafficDriver driver(sched, net, cfg, *router);
    driver.start();
    sched.run_until(40e-3);
    driver.stop();
    sched.run();
    EXPECT_GE(net.messages_injected(), mesh.num_nodes() * 4u);
  }

  // route_batch = 0 is a config error, not a silent fallback.
  evsim::Scheduler sched;
  worm::Network net(mesh, {.flit_time = 1e-7, .message_flits = 8, .channel_copies = 1},
                    sched);
  worm::TrafficConfig bad = cfg;
  bad.route_batch = 0;
  EXPECT_THROW(worm::TrafficDriver(sched, net, bad, *router), std::invalid_argument);
}

TEST(TrafficDriver, ExponentialModeRunsAndDiffersFromUniform) {
  Fixture f;
  std::vector<std::pair<NodeId, std::size_t>> log;
  const LoggingRouter router(f.mesh, &log);
  worm::TrafficDriver driver(f.sched, f.net,
                             {.mean_interarrival_s = 1e-3,
                              .avg_destinations = 3,
                              .fixed_destinations = true,
                              .exponential_interarrival = true,
                              .seed = 9},
                             router);
  driver.start();
  f.sched.run_until(50e-3);
  driver.stop();
  f.sched.run();
  // ~16 nodes * 50 arrivals each expected; allow wide slack.
  EXPECT_GT(log.size(), 400u);
  EXPECT_LT(log.size(), 1300u);
}

}  // namespace
