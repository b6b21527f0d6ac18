// Fault-tolerant delivery: the wormhole network under injected failures
// (worm kills, drops, aborts) and the service layer's reliable multicast
// (timeout, retry/backoff, delivery reports).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_router.hpp"
#include "service/multicast_service.hpp"
#include "topology/mesh2d.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using Status = svc::DeliveryReport::Status;

// First-hop channel of the route the fixture's router picks for `req` --
// failing it mid-flight is guaranteed to hit a held link.
topo::ChannelId first_hop_channel(const fault::FaultAwareRouter& router,
                                  const mcast::MulticastRequest& req) {
  const mcast::MulticastRoute route = router.route(req);
  if (!route.paths.empty()) {
    return router.topology().channel(route.paths[0].nodes[0], route.paths[0].nodes[1]);
  }
  const auto& link = route.trees.at(0).links.at(0);
  return router.topology().channel(link.from, link.to);
}

struct Fixture {
  topo::Mesh2D mesh;
  std::shared_ptr<fault::FaultState> faults;
  std::unique_ptr<fault::FaultAwareRouter> router;
  evsim::Scheduler sched;
  svc::MulticastService service;

  explicit Fixture(std::uint32_t w, std::uint32_t h, worm::WormholeParams params = {})
      : mesh(w, h),
        faults(std::make_shared<fault::FaultState>(mesh)),
        router(fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults)),
        service(*router, params, sched) {}
};

TEST(FaultNetwork, MidFlightChannelFailureKillsAndDrops) {
  Fixture fx(4, 4);
  worm::Network& net = fx.service.network();

  bool done = false;
  const topo::ChannelId hop = first_hop_channel(*fx.router, {0, {15}});
  fx.service.multicast({0, {15}}, {}, [&](double) { done = true; });

  // Kill the first hop while the worm still holds it (it releases only
  // after the 128-flit tail drains, far past 60 ns).
  fx.sched.schedule_in(60e-9, [&, hop] { net.fail_channel(hop); });
  fx.sched.run();

  EXPECT_TRUE(done);  // the message completes (degraded), it never hangs
  EXPECT_EQ(net.worms_killed(), 1u);
  EXPECT_EQ(net.deliveries_dropped(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.messages_completed(), 1u);
}

TEST(FaultNetwork, AbortMessageDropsUndelivered) {
  Fixture fx(4, 4);
  worm::Network& net = fx.service.network();
  bool done = false;
  const auto h = fx.service.multicast({0, {5, 10, 15}}, {}, [&](double) { done = true; });
  fx.sched.schedule_in(10e-9, [&, h] { net.abort_message(h); });
  fx.sched.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(net.idle());
  EXPECT_GE(net.deliveries_dropped(), 1u);
}

TEST(FaultService, ReliableDeliversEverythingWhenHealthy) {
  Fixture fx(4, 4);
  svc::DeliveryReport report;
  bool reported = false;
  fx.service.multicast_reliable({0, {5, 10, 15}}, [&](const svc::DeliveryReport& r) {
    report = r;
    reported = true;
  });
  fx.sched.run();
  ASSERT_TRUE(reported);
  ASSERT_EQ(report.destinations.size(), 3u);
  EXPECT_TRUE(report.all_delivered());
  EXPECT_EQ(report.attempts_used, 1u);
  for (const auto& d : report.destinations) {
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_GT(d.latency_s, 0.0);
  }
  EXPECT_TRUE(fx.service.network().idle());
}

TEST(FaultService, RetryRedeliversAfterMidFlightFailure) {
  Fixture fx(4, 4);
  worm::Network& net = fx.service.network();

  svc::DeliveryReport report;
  bool reported = false;
  fx.service.multicast_reliable({0, {15}}, [&](const svc::DeliveryReport& r) {
    report = r;
    reported = true;
  });
  // Fail a link on the route while the worm holds it: attempt 1 drops, the
  // retry must route around the failure and deliver.
  const topo::ChannelId hop = first_hop_channel(*fx.router, {0, {15}});
  fx.sched.schedule_in(60e-9, [&, hop] { net.fail_channel(hop); });
  fx.sched.run();

  ASSERT_TRUE(reported);
  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].node, 15u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[0].attempts, 2u);
  EXPECT_EQ(report.attempts_used, 2u);
  EXPECT_GE(net.worms_killed(), 1u);
  EXPECT_TRUE(net.idle());
}

TEST(FaultService, PartitionedDestinationReportedUnreachable) {
  Fixture fx(3, 3);
  worm::Network& net = fx.service.network();
  // Isolate corner 8 before sending.
  for (const topo::NodeId v : fx.mesh.neighbors(8)) {
    net.fail_channel(fx.mesh.channel(8, v));
    net.fail_channel(fx.mesh.channel(v, 8));
  }

  svc::DeliveryReport report;
  fx.service.multicast_reliable({0, {4, 8}},
                                [&](const svc::DeliveryReport& r) { report = r; });
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 2u);
  EXPECT_EQ(report.destinations[0].node, 4u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[1].node, 8u);
  EXPECT_EQ(report.destinations[1].status, Status::kUnreachable);
  // No retry budget is burnt on a partitioned destination.
  EXPECT_EQ(report.destinations[1].attempts, 1u);
  EXPECT_TRUE(net.idle());
}

TEST(FaultService, RetryDetectsNewPartitionAsUnreachable) {
  Fixture fx(2, 2);
  worm::Network& net = fx.service.network();

  svc::DeliveryReport report;
  fx.service.multicast_reliable({0, {3}},
                                [&](const svc::DeliveryReport& r) { report = r; });
  // Cut node 3 off entirely while the worm is in flight: attempt 1 drops,
  // and the retry finds the destination unreachable.
  fx.sched.schedule_in(60e-9, [&] { net.fail_node(3); });
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].status, Status::kUnreachable);
  EXPECT_EQ(report.destinations[0].attempts, 2u);
  EXPECT_TRUE(net.idle());
}

TEST(FaultService, TimeoutAbortsBlockedAttemptAndReportsDropped) {
  // Two nodes, one link.  A long bulk message occupies the only channel for
  // ~100us; the reliable message behind it times out at 20us with no retry
  // budget left, so it must finish as kDropped -- and the run must end.
  worm::WormholeParams params;
  params.message_flits = 2000;
  Fixture fx(2, 1, params);

  bool bulk_done = false;
  fx.service.multicast({0, {1}}, {}, [&](double) { bulk_done = true; });

  svc::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.timeout_s = 20e-6;
  svc::DeliveryReport report;
  bool reported = false;
  fx.service.multicast_reliable(
      {0, {1}},
      [&](const svc::DeliveryReport& r) {
        report = r;
        reported = true;
      },
      policy);
  fx.sched.run();

  EXPECT_TRUE(bulk_done);
  ASSERT_TRUE(reported);
  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].status, Status::kDropped);
  EXPECT_NEAR(report.finished_at_s, 20e-6, 1e-9);  // settled by the timeout
  EXPECT_TRUE(fx.service.network().idle());
  EXPECT_EQ(fx.service.network().worms_killed(), 1u);
}

TEST(FaultService, RetryPolicyValidationNamesTheField) {
  const auto message_of = [](svc::RetryPolicy p) {
    try {
      p.validate();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  svc::RetryPolicy p;
  EXPECT_EQ(message_of(p), "");  // defaults are valid

  p = svc::RetryPolicy{};
  p.max_attempts = 0;
  EXPECT_NE(message_of(p).find("max_attempts"), std::string::npos);

  p = svc::RetryPolicy{};
  p.timeout_s = 0.0;
  EXPECT_NE(message_of(p).find("timeout_s"), std::string::npos);
  p.timeout_s = -1.0;
  EXPECT_NE(message_of(p).find("timeout_s"), std::string::npos);

  p = svc::RetryPolicy{};
  p.backoff_initial_s = 0.0;
  EXPECT_NE(message_of(p).find("backoff_initial_s"), std::string::npos);

  p = svc::RetryPolicy{};
  p.backoff_factor = 0.5;
  EXPECT_NE(message_of(p).find("backoff_factor"), std::string::npos);

  p = svc::RetryPolicy{};
  p.jitter = 1.0;
  EXPECT_NE(message_of(p).find("jitter"), std::string::npos);
  p.jitter = -0.1;
  EXPECT_NE(message_of(p).find("jitter"), std::string::npos);
}

// Attempt accounting: a destination delivered on attempt n after earlier
// timeouts must report attempts == n, not 1.
TEST(FaultService, AttemptCountSurvivesEarlierTimeouts) {
  // Two nodes, one link.  Three bulk messages occupy the only channel for
  // ~300us; the reliable message times out twice and lands on attempt 3.
  worm::WormholeParams params;
  params.message_flits = 2000;
  Fixture fx(2, 1, params);

  fx.service.multicast({0, {1}});
  fx.service.multicast({0, {1}});
  fx.service.multicast({0, {1}});

  svc::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.timeout_s = 150e-6;
  policy.backoff_initial_s = 50e-6;
  svc::DeliveryReport report;
  std::vector<std::pair<topo::NodeId, double>> deliveries;
  fx.service.multicast_reliable(
      {0, {1}}, [&](const svc::DeliveryReport& r) { report = r; }, policy,
      [&](topo::NodeId dest, double latency) { deliveries.emplace_back(dest, latency); });
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[0].attempts, 3u);
  EXPECT_EQ(report.attempts_used, 3u);
  // The per-delivery callback fired exactly once, before the report.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].first, 1u);
  EXPECT_GT(deliveries[0].second, 0.0);
}

TEST(FaultService, PerDestinationAttemptsAreIndependent) {
  // Path 0-1-2, source 1.  Bulk traffic blocks 1->2, so destination 2
  // needs a retry while destination 0 delivers on attempt 1; the report
  // must keep the two attempt counts apart.
  worm::WormholeParams params;
  params.message_flits = 2000;
  Fixture fx(3, 1, params);

  fx.service.multicast({1, {2}});
  fx.service.multicast({1, {2}});

  svc::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.timeout_s = 150e-6;
  policy.backoff_initial_s = 50e-6;
  svc::DeliveryReport report;
  fx.service.multicast_reliable({1, {0, 2}},
                                [&](const svc::DeliveryReport& r) { report = r; }, policy);
  fx.sched.run();

  ASSERT_EQ(report.destinations.size(), 2u);
  EXPECT_EQ(report.destinations[0].node, 0u);
  EXPECT_EQ(report.destinations[0].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[0].attempts, 1u);
  EXPECT_EQ(report.destinations[1].node, 2u);
  EXPECT_EQ(report.destinations[1].status, Status::kDelivered);
  EXPECT_EQ(report.destinations[1].attempts, 2u);
  EXPECT_EQ(report.attempts_used, 2u);
}

// Regression: Network::inject() completes a message synchronously when
// every worm dies at injection (route through already-failed hardware via
// a non-fault-aware router).  The service must pre-register its callbacks
// or the completion is silently lost and the done callback never fires.
TEST(FaultService, SynchronousInjectDeathStillFiresCallbacks) {
  const topo::Mesh2D mesh(3, 1);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);
  evsim::Scheduler sched;
  svc::MulticastService service(*plain, worm::WormholeParams{}, sched);

  // The plain router does not see faults, so the route 0->1->2 crosses the
  // failed middle node and every worm is killed inside inject().
  service.network().fail_node(1);

  bool done = false;
  int delivered = 0;
  service.multicast({0, {2}}, [&](topo::NodeId, double) { ++delivered; },
                    [&](double) { done = true; });
  sched.run();

  EXPECT_TRUE(done);  // previously lost: the completion fired mid-inject
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(service.network().idle());
}

// Backoff jitter: deterministic per (jitter_seed, operation), and it must
// actually move the retry instants.
TEST(FaultService, RetryJitterIsDeterministicAndSpreadsBackoff) {
  const auto finish_time = [](double jitter, std::uint64_t seed) {
    worm::WormholeParams params;
    params.message_flits = 4000;  // blocks the only link past every retry
    Fixture fx(2, 1, params);
    fx.service.multicast({0, {1}});

    svc::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.timeout_s = 20e-6;
    policy.backoff_initial_s = 40e-6;
    policy.backoff_factor = 2.0;
    policy.jitter = jitter;
    policy.jitter_seed = seed;
    double finished = -1.0;
    fx.service.multicast_reliable(
        {0, {1}}, [&](const svc::DeliveryReport& r) { finished = r.finished_at_s; },
        policy);
    fx.sched.run_until(1e-3);
    return finished;
  };

  // No jitter: timeouts at 20us + backoffs of 40us and 80us => 180us.
  EXPECT_NEAR(finish_time(0.0, 1), 180e-6, 1e-9);

  const double a = finish_time(0.4, 1);
  const double b = finish_time(0.4, 1);
  const double c = finish_time(0.4, 2);
  EXPECT_EQ(a, b);        // same seed: exact replay
  EXPECT_NE(a, c);        // different seed: different backoff draws
  EXPECT_NE(a, 180e-6);   // jitter actually moved the schedule
  // Total delay stays within the +-40% envelope of the 120us of backoff.
  EXPECT_GT(a, 60e-6 + 0.6 * 120e-6 - 1e-9);
  EXPECT_LT(a, 60e-6 + 1.4 * 120e-6 + 1e-9);
}

// Everything a worm does on the fabric, in order: each channel grant and
// release (channel, copy, worm slot, time) and each delivery.
struct FabricTrace {
  std::vector<std::tuple<int, topo::ChannelId, std::uint8_t, std::uint32_t, double>> channels;
  std::vector<std::tuple<std::uint64_t, topo::NodeId, double>> deliveries;

  void attach(worm::Network& net) {
    worm::NetworkHooks hooks = net.hooks();
    hooks.on_channel_grant = [this](topo::ChannelId c, std::uint8_t k, std::uint32_t w,
                                    double t) { channels.emplace_back(0, c, k, w, t); };
    hooks.on_channel_release = [this](topo::ChannelId c, std::uint8_t k, std::uint32_t w,
                                      double t) { channels.emplace_back(1, c, k, w, t); };
    auto delivered = hooks.on_delivery;
    hooks.on_delivery = [this, delivered](std::uint64_t m, topo::NodeId d, double l) {
      deliveries.emplace_back(m, d, l);
      if (delivered) delivered(m, d, l);
    };
    net.set_hooks(std::move(hooks));
  }
};

TEST(FaultService, SendsInjectTheWormsOfRouteAndSpecs) {
  // The FaultAwareRouter service sends plan() (the cache's plan payload
  // when healthy, route_with_faults + the one converter when degraded); a
  // custom-policy service over an identical stack sends route() + specs().
  // Identical fabric traces mean identical worms: same channels, depths,
  // copies and deliveries.
  const topo::Mesh2D mesh(6, 6);
  const worm::WormholeParams params{.flit_time = 50e-9, .message_flits = 16,
                                    .channel_copies = 2};
  for (const bool degraded : {false, true}) {
    SCOPED_TRACE(degraded ? "degraded" : "healthy");
    auto faults = std::make_shared<fault::FaultState>(mesh);
    const auto planned_router =
        fault::make_fault_aware_router(mesh, Algorithm::kMultiPath, faults, 2);
    evsim::Scheduler sched_a;
    svc::MulticastService planned(*planned_router, params, sched_a);

    evsim::Scheduler sched_b;
    const fault::FaultAwareRouter* routed_router = nullptr;
    svc::MulticastService routed(
        mesh, params, sched_b,
        [&routed_router](const mcast::MulticastRequest& r) { return routed_router->route(r); },
        [&routed_router](const mcast::MulticastRoute& r) { return routed_router->specs(r); });
    const auto second_router = fault::make_fault_aware_router(
        mesh, Algorithm::kMultiPath, routed.network().fault_state(), 2);
    routed_router = second_router.get();

    if (degraded) {
      for (const topo::ChannelId c : {3u, 40u, 77u}) {
        planned.network().fail_channel(c);
        routed.network().fail_channel(c);
      }
    }
    FabricTrace trace_a;
    FabricTrace trace_b;
    trace_a.attach(planned.network());
    trace_b.attach(routed.network());

    evsim::Rng rng(61);
    for (int i = 0; i < 60; ++i) {
      const topo::NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
      mcast::MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src,
                                                              rng.uniform_int(1, 9))};
      if (i % 4 == 0) req.destinations.push_back(req.destinations.back());
      const double at = 2e-6 * i;
      sched_a.schedule_at(at, [&planned, req] { planned.multicast(req); });
      sched_b.schedule_at(at, [&routed, req] { routed.multicast(req); });
    }
    sched_a.run();
    sched_b.run();
    EXPECT_GT(trace_a.deliveries.size(), 200u);
    EXPECT_EQ(trace_a.channels, trace_b.channels);
    EXPECT_EQ(trace_a.deliveries, trace_b.deliveries);
    if (degraded) {
      EXPECT_GT(planned_router->cache()->stats().misses, 0u);
    }
  }
}

TEST(FaultService, ReliableRequiresFaultRouter) {
  const topo::Mesh2D mesh(3, 3);
  const auto plain = mcast::make_router(mesh, Algorithm::kDualPath);
  evsim::Scheduler sched;
  svc::MulticastService service(*plain, worm::WormholeParams{}, sched);
  EXPECT_THROW(service.multicast_reliable({0, {4}}, {}), std::logic_error);
  EXPECT_THROW(
      {
        Fixture fx(2, 2);
        svc::RetryPolicy bad;
        bad.max_attempts = 0;
        fx.service.multicast_reliable({0, {3}}, {}, bad);
      },
      std::invalid_argument);
}

// One full sweep under a random failure schedule; returns per-destination
// (node, status, attempts) tuples of every report, in issue order.
std::vector<std::tuple<topo::NodeId, Status, std::uint32_t>> run_sweep(std::uint64_t seed) {
  Fixture fx(4, 4);
  const fault::FaultPlan plan =
      fault::FaultPlan::random_link_failures(fx.mesh, 0.3, 0.0, 200e-6, seed);
  fault::schedule_fault_plan(fx.service.network(), fx.sched, plan);

  evsim::Rng rng(seed * 977 + 1);
  std::vector<std::tuple<topo::NodeId, Status, std::uint32_t>> out;
  int reports = 0;
  constexpr int kMessages = 24;
  for (int i = 0; i < kMessages; ++i) {
    const double t = static_cast<double>(i) * 12e-6;
    const topo::NodeId src = rng.uniform_int(0, 15);
    const auto dests = rng.sample_destinations(16, src, rng.uniform_int(1, 5));
    fx.sched.schedule_at(t, [&fx, &out, &reports, src, dests] {
      if (fx.service.network().faults().node_failed(src)) {
        ++reports;  // link failures only in this plan, but stay defensive
        return;
      }
      fx.service.multicast_reliable({src, dests}, [&](const svc::DeliveryReport& r) {
        ++reports;
        for (const auto& d : r.destinations) {
          out.emplace_back(d.node, d.status, d.attempts);
        }
      });
    });
  }
  fx.sched.run();  // must terminate: no reliable message may hang
  EXPECT_EQ(reports, kMessages);
  EXPECT_TRUE(fx.service.network().idle());
  return out;
}

TEST(FaultService, RandomFailureSweepTerminatesAndIsDeterministic) {
  const auto a = run_sweep(5);
  const auto b = run_sweep(5);
  EXPECT_EQ(a, b);  // same seed, same failures, same reports
  EXPECT_FALSE(a.empty());

  std::size_t delivered = 0;
  for (const auto& [node, status, attempts] : a) delivered += status == Status::kDelivered;
  // The mesh stays mostly connected at 30% cut links; most sends land.
  EXPECT_GT(delivered, a.size() / 2);
}

}  // namespace
