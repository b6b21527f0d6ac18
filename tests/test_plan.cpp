// Worm plans, the network shape of a route: Router::plan against the one
// route -> plan conversion across the CI topology matrix and every router
// kind, the devirtualized label walk against the generic routing function
// R, and a multi-threaded stress of the route cache's plan payloads.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/label_walk.hpp"
#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "evsim/random.hpp"
#include "fault/fault_router.hpp"
#include "fault/fault_state.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"
#include "topology/spec.hpp"
#include "wormhole/worm.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using mcast::MulticastRequest;
using topo::NodeId;

/// Seeded requests; every third one repeats a destination (routers dedupe).
std::vector<MulticastRequest> requests_with_duplicates(const topo::Topology& t,
                                                       std::uint32_t count,
                                                       std::uint64_t seed) {
  evsim::Rng rng(seed);
  std::vector<MulticastRequest> out;
  const std::uint32_t max_k = std::min<std::uint32_t>(8, t.num_nodes() - 1);
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId src = rng.uniform_int(0, t.num_nodes() - 1);
    MulticastRequest req{src, rng.sample_destinations(t.num_nodes(), src,
                                                      rng.uniform_int(1, max_k))};
    if (i % 3 == 0) req.destinations.push_back(req.destinations.front());
    out.push_back(std::move(req));
  }
  return out;
}

/// plan(req) must equal make_worm_specs(route(req)) link for link and
/// delivery for delivery, or throw when the route or its conversion does.
void expect_plan_matches_route(const mcast::Router& router, const MulticastRequest& req) {
  const topo::Topology& t = router.topology();
  std::vector<worm::WormSpec> expected;
  bool route_throws = false;
  try {
    expected = worm::make_worm_specs(t, router.route(req), router.channel_copies());
  } catch (const std::exception&) {
    route_throws = true;
  }
  worm::WormPlan plan;
  if (route_throws) {
    EXPECT_ANY_THROW(router.plan(req, plan));
    return;
  }
  router.plan(req, plan);
  ASSERT_EQ(plan.size(), expected.size());
  for (std::size_t w = 0; w < plan.size(); ++w) {
    const auto links = plan.links(w);
    ASSERT_EQ(links.size(), expected[w].links.size()) << "worm " << w;
    for (std::size_t i = 0; i < links.size(); ++i) {
      const worm::WormLink& want = expected[w].links[i];
      EXPECT_EQ(links[i].channel, want.channel);
      EXPECT_EQ(links[i].depth, want.depth);
      EXPECT_EQ(links[i].copy, want.copy);
      EXPECT_EQ(t.channel_ends(links[i].channel), (topo::ChannelEnds{want.from, want.to}));
    }
    const auto deliveries = plan.deliveries(w);
    EXPECT_EQ(std::vector<worm::Delivery>(deliveries.begin(), deliveries.end()),
              expected[w].deliveries)
        << "worm " << w;
  }
}

const std::vector<std::string> kTopologies = {"mesh:5x4",    "mesh:5x5",    "mesh:1x7",
                                              "cube:6",      "mesh3:3x3x3", "kary:4x2",
                                              "karymesh:4x3"};

TEST(RouterPlan, BareRoutersMatchTheConverter) {
  for (const std::string& spec : kTopologies) {
    const auto topology = topo::make_topology(spec);
    const auto requests = requests_with_duplicates(*topology, 12, 41);
    for (const Algorithm a : mcast::supported_algorithms(*topology)) {
      for (const std::uint8_t copies : {1, 2}) {
        SCOPED_TRACE(spec + " / " + std::string(mcast::algorithm_name(a)) + " / copies " +
                     std::to_string(copies));
        const auto router = mcast::make_router(*topology, a, copies);
        for (const MulticastRequest& req : requests) expect_plan_matches_route(*router, req);
      }
    }
  }
}

TEST(RouterPlan, ColdAndWarmCachesServeTheSamePlans) {
  for (const std::string& spec : kTopologies) {
    const auto topology = topo::make_topology(spec);
    const auto requests = requests_with_duplicates(*topology, 12, 43);
    for (const Algorithm a : mcast::supported_algorithms(*topology)) {
      for (const std::uint8_t copies : {1, 2}) {
        SCOPED_TRACE(spec + " / " + std::string(mcast::algorithm_name(a)) + " / copies " +
                     std::to_string(copies));
        // Capacity 8 < distinct requests: the cold pass also recycles
        // evicted entries.
        const auto cache =
            mcast::make_caching_router(*topology, a, copies, {.capacity = 8, .shards = 2});
        for (int pass = 0; pass < 2; ++pass) {
          for (const MulticastRequest& req : requests) expect_plan_matches_route(*cache, req);
        }
      }
    }
  }
}

TEST(RouterPlan, PlanLookupsShareTheRouteCounters) {
  const topo::Mesh2D mesh(6, 6);
  const auto cache = mcast::make_caching_router(mesh, Algorithm::kMultiPath);
  worm::WormPlan plan;
  cache->plan({0, {7, 20, 35}}, plan);
  cache->plan({0, {35, 7, 20, 7}}, plan);  // same multicast set: a hit
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
  // The route payload is separate: the first route() of the set misses.
  (void)cache->route({0, {7, 20, 35}});
  EXPECT_EQ(cache->stats().misses, 2u);
  (void)cache->route({0, {20, 35, 7}});
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_EQ(cache->size(), 1u);
}

// A route()/route_many() miss that fills an entry holding only a plan makes
// the entry most recently used, so the next insert evicts the other entry.
TEST(RouterPlan, RouteFillOfAPlanEntryRefreshesItsRecency) {
  const topo::Mesh2D mesh(6, 6);
  const MulticastRequest a{0, {7, 20}}, b{1, {8, 21}}, c{2, {9, 22}};
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "route_many" : "route");
    const auto cache = mcast::make_caching_router(mesh, Algorithm::kDualPath, 1,
                                                  {.capacity = 2, .shards = 1});
    worm::WormPlan plan;
    cache->plan(a, plan);
    cache->plan(b, plan);  // LRU order: b, a
    if (batch) {
      (void)cache->route_many(std::span<const MulticastRequest>(&a, 1));
    } else {
      (void)cache->route(a);
    }
    cache->plan(c, plan);  // evicts b, the least recently used
    EXPECT_EQ(cache->stats().evictions, 1u);
    const std::uint64_t hits = cache->stats().hits;
    cache->plan(a, plan);
    EXPECT_EQ(cache->stats().hits, hits + 1) << "a was evicted instead of b";
  }
}

TEST(RouterPlan, FaultAwareRoutersMatchHealthyAndDegraded) {
  for (const std::string& spec : kTopologies) {
    const auto topology = topo::make_topology(spec);
    const auto requests = requests_with_duplicates(*topology, 10, 47);
    for (const Algorithm a : mcast::supported_algorithms(*topology)) {
      SCOPED_TRACE(spec + " / " + std::string(mcast::algorithm_name(a)));
      auto faults = std::make_shared<fault::FaultState>(*topology);
      const auto router = fault::make_fault_aware_router(*topology, a, faults);
      for (const MulticastRequest& req : requests) expect_plan_matches_route(*router, req);
      // Degraded: one failed channel.  Routes that cross it fall back to
      // unicast splitting; unreachable destinations make both forms throw.
      faults->fail_channel(topology->num_channels() / 2);
      for (const MulticastRequest& req : requests) expect_plan_matches_route(*router, req);
    }
  }
}

TEST(RouterPlan, PlanWithFaultsReportsTheUnreachable) {
  const topo::Mesh2D mesh(4, 4);
  auto faults = std::make_shared<fault::FaultState>(mesh);
  const auto router = fault::make_fault_aware_router(mesh, Algorithm::kDualPath, faults);
  faults->fail_node(mesh.node(3, 3));
  const MulticastRequest req{0, {15, 5, 10}};
  const fault::FaultRouteResult routed = router->route_with_faults(req);
  worm::WormPlan plan;
  EXPECT_EQ(router->plan_with_faults(req, plan), routed.unreachable);
  worm::WormPlan expected;
  router->plan_route(routed.route, expected);
  EXPECT_EQ(plan, expected);
  EXPECT_THROW(router->plan(req, plan), std::runtime_error);
}

// The walk R as route() and plan() run it, instantiated for the final mesh
// and hypercube classes, against the generic LabelRouter and against the
// literal two-pass rule.

/// The two-pass rule of R written out (Sections 6.2.2 / 6.3 with the
/// hypercube erratum): the label-extremal distance-reducing monotone
/// neighbour, else the label-extremal monotone one.
NodeId two_pass_reference(const topo::Topology& t, const ham::Labeling& lab, NodeId cur,
                          NodeId dst) {
  if (cur == dst) return topo::kInvalidNode;
  const std::uint32_t lc = lab.label(cur);
  const std::uint32_t ld = lab.label(dst);
  const bool high = lc < ld;
  for (const bool require_shorter : {true, false}) {
    NodeId best = topo::kInvalidNode;
    std::uint32_t best_label = 0;
    for (const NodeId p : t.neighbors(cur)) {
      const std::uint32_t lp = lab.label(p);
      if (!(high ? (lp > lc && lp <= ld) : (lp < lc && lp >= ld))) continue;
      if (require_shorter && t.distance(p, dst) >= t.distance(cur, dst)) continue;
      if (best == topo::kInvalidNode || (high ? lp > best_label : lp < best_label)) {
        best = p;
        best_label = lp;
      }
    }
    if (best != topo::kInvalidNode) return best;
  }
  return topo::kInvalidNode;
}

template <class Topo, class Lab>
std::uint64_t count_mismatches(const Topo& topology, const Lab& labeling) {
  const mcast::LabelRouter generic(topology, labeling);
  std::uint64_t mismatches = 0;
  for (NodeId u = 0; u < topology.num_nodes(); ++u) {
    for (NodeId v = 0; v < topology.num_nodes(); ++v) {
      const NodeId fused = mcast::label_next_hop(topology, labeling, u, v);
      if (fused != generic.next_hop(u, v) ||
          fused != two_pass_reference(topology, labeling, u, v)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(LabelWalk, MeshNextHopMatchesGenericExhaustively) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {{16, 16}};
  for (std::uint32_t w = 1; w <= 9; ++w) {
    for (std::uint32_t h = 1; h <= 9; ++h) sizes.emplace_back(w, h);
  }
  for (const auto& [w, h] : sizes) {
    const topo::Mesh2D mesh(w, h);
    const ham::MeshBoustrophedonLabeling lab(mesh);
    EXPECT_EQ(count_mismatches(mesh, lab), 0u) << w << "x" << h;
  }
}

TEST(LabelWalk, CubeNextHopMatchesGenericExhaustively) {
  for (std::uint32_t n = 1; n <= 8; ++n) {
    const topo::Hypercube cube(n);
    const ham::HypercubeGrayLabeling lab(cube);
    EXPECT_EQ(count_mismatches(cube, lab), 0u) << "cube " << n;
  }
}

// Many threads share one small CachingRouter, mixing plan() and route() on
// a hot request pool, so hits, misses, lost insert races, payload fills of
// existing entries and evictions with storage reuse all interleave.  Every
// answer must equal the single-threaded one (the TSan job runs this).
TEST(RouteCacheStress, ConcurrentPlansAndRoutesAreExact) {
  const topo::Mesh2D mesh(8, 8);
  const auto plain = mcast::make_router(mesh, Algorithm::kMultiPath);
  const auto cache = mcast::make_caching_router(mesh, Algorithm::kMultiPath, 1,
                                                {.capacity = 24, .shards = 3});
  const auto requests = requests_with_duplicates(mesh, 48, 53);
  std::vector<worm::WormPlan> plans(requests.size());
  std::vector<mcast::MulticastRoute> routes;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    plain->plan(requests[i], plans[i]);
    routes.push_back(plain->route(requests[i]));
  }

  constexpr int kThreads = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      evsim::Rng rng(static_cast<std::uint64_t>(100 + t));
      worm::WormPlan plan;
      for (int op = 0; op < 3000; ++op) {
        // Skewed draw: low indices are hot, the tail keeps evicting.
        const std::size_t i = std::min<std::size_t>(
            rng.uniform_int(0, 47), rng.uniform_int(0, 47));
        if (rng.uniform_int(0, 3) == 0) {
          if (cache->route(requests[i]) != routes[i]) ++failures[t];
        } else {
          cache->plan(requests[i], plan);
          if (plan != plans[i]) ++failures[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  const mcast::RouteCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * 3000u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache->size(), 24u);
}

}  // namespace
