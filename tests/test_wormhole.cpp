// The wormhole network simulator: channel pool semantics, exact worm
// timing, contention serialisation, and the Fig. 6.1 deadlock.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/dual_path.hpp"
#include "core/naive_tree.hpp"
#include "evsim/random.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/channel_pool.hpp"
#include "wormhole/deadlock.hpp"
#include "wormhole/network.hpp"
#include "wormhole/worm.hpp"

namespace {

using namespace mcnet;
using mcast::MulticastRequest;
using topo::Hypercube;
using topo::Mesh2D;
using topo::NodeId;
using worm::ChannelPool;
using worm::ChannelRequest;
using worm::Network;
using worm::NetworkHooks;
using worm::WormholeParams;

// --- ChannelPool ------------------------------------------------------------

TEST(ChannelPool, GrantsAndQueuesFcfs) {
  ChannelPool pool(4, 1);
  EXPECT_EQ(pool.acquire(0, {1, 0, 0}), std::optional<std::uint8_t>(0));
  EXPECT_EQ(pool.acquire(0, {2, 0, 0}), std::nullopt);
  EXPECT_EQ(pool.acquire(0, {3, 0, 0}), std::nullopt);
  EXPECT_EQ(pool.waiters(0).size(), 2u);
  auto grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 2u);  // FCFS
  grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 3u);
  EXPECT_FALSE(pool.release(0, 0).has_value());
  EXPECT_EQ(pool.busy_count(), 0u);
}

TEST(ChannelPool, AnyCopyUsesBothCopies) {
  ChannelPool pool(1, 2);
  EXPECT_EQ(pool.acquire(0, {1, 0, worm::kAnyCopy}), std::optional<std::uint8_t>(0));
  EXPECT_EQ(pool.acquire(0, {2, 0, worm::kAnyCopy}), std::optional<std::uint8_t>(1));
  EXPECT_EQ(pool.acquire(0, {3, 0, worm::kAnyCopy}), std::nullopt);
}

TEST(ChannelPool, SpecificCopyWaitsEvenIfOtherCopyFree) {
  ChannelPool pool(1, 2);
  EXPECT_EQ(pool.acquire(0, {1, 0, 0}), std::optional<std::uint8_t>(0));
  // Worm 2 insists on copy 0 although copy 1 is free.
  EXPECT_EQ(pool.acquire(0, {2, 0, 0}), std::nullopt);
  EXPECT_EQ(pool.acquire(0, {3, 0, 1}), std::optional<std::uint8_t>(1));
  // Releasing copy 1 must not wake the copy-0 waiter.
  EXPECT_FALSE(pool.release(0, 1).has_value());
  const auto grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 2u);
}

TEST(ChannelPool, CancelRequestsRemovesWaiters) {
  ChannelPool pool(2, 1);
  (void)pool.acquire(0, {1, 0, 0});
  (void)pool.acquire(0, {2, 0, 0});
  (void)pool.acquire(0, {3, 0, 0});
  pool.cancel_requests(2);
  const auto grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 3u);
}

TEST(ChannelPool, FifoOrderSurvivesInterleavedCancelAndRetarget) {
  ChannelPool pool(3, 1);
  const auto order = [&pool](topo::ChannelId c) {
    std::vector<std::uint32_t> worms;
    for (const ChannelRequest& r : pool.waiters(c)) worms.push_back(r.worm_id);
    EXPECT_EQ(worms.size(), pool.waiters(c).size());
    return worms;
  };
  (void)pool.acquire(0, {1, 0, 0});
  (void)pool.acquire(2, {1, 1, 0});
  for (std::uint32_t w = 2; w <= 5; ++w) {
    (void)pool.acquire(0, {w, 0, 0});
    (void)pool.acquire(2, {w, 1, 0});  // interleaved with another queue
  }
  pool.cancel_requests(3);  // from the middle of both queues
  EXPECT_TRUE(pool.retarget(0, 4, 0, 9, 7));  // in place, keeps its turn
  EXPECT_FALSE(pool.retarget(0, 4, 0, 9, 7));
  pool.cancel_requests(2);                     // the head
  (void)pool.acquire(0, {6, 0, 0});            // reuses a freed slot, queues last
  pool.cancel_requests(6);                     // the tail
  (void)pool.acquire(0, {7, 0, 0});
  EXPECT_EQ(order(0), (std::vector<std::uint32_t>{9, 5, 7}));
  EXPECT_EQ(order(2), (std::vector<std::uint32_t>{4, 5}));
  EXPECT_TRUE(pool.waiters(1).empty());

  auto grant = pool.release(0, 0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->first.worm_id, 9u);
  EXPECT_EQ(grant->first.link_index, 7u);
  EXPECT_EQ(pool.release(0, 0)->first.worm_id, 5u);
  EXPECT_EQ(pool.release(0, 0)->first.worm_id, 7u);
  EXPECT_FALSE(pool.release(0, 0).has_value());
  EXPECT_EQ(pool.release(2, 0)->first.worm_id, 4u);
  EXPECT_EQ(order(2), (std::vector<std::uint32_t>{5}));
}

// --- Worm timing ------------------------------------------------------------

struct Capture {
  std::map<NodeId, double> deliveries;
  std::map<std::uint64_t, double> completions;
  NetworkHooks hooks(double t0 = 0.0) {
    NetworkHooks h;
    h.on_delivery = [this, t0](std::uint64_t, NodeId d, double l) { deliveries[d] = l + t0; };
    h.on_message_done = [this](std::uint64_t m, double l) { completions[m] = l; };
    return h;
  }
};

TEST(Network, UncontendedPathTimingIsExact) {
  // Delivery at depth i completes at (i + L - 1) * tau; channel at depth d
  // frees at (d + L) * tau; worm finishes at (D + L) * tau.
  const Mesh2D mesh(6, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 4, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());

  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2, 3, 4, 5};
  p.delivery_hops = {2, 5};  // destinations at depth 2 and 5
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();

  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  ASSERT_EQ(cap.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(cap.deliveries[2], 2 + 4 - 1);  // 5 flit times
  EXPECT_DOUBLE_EQ(cap.deliveries[5], 5 + 4 - 1);  // 8 flit times
  EXPECT_DOUBLE_EQ(cap.completions[0], 5 + 4);     // D + L
}

TEST(Network, SingleFlitMessageDeliversWithHeader) {
  const Mesh2D mesh(4, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 2.0, .message_flits = 1, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2, 3};
  p.delivery_hops = {3};
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  EXPECT_DOUBLE_EQ(cap.deliveries[3], 3 * 2.0);  // pure header latency
}

TEST(Network, ContendedChannelSerialisesWorms) {
  // Two worms share channel 0->1; the second waits until the first's tail
  // clears it at (1 + L) tau, then needs 2 more hops + L - 1 drain.
  const Mesh2D mesh(3, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2};
  p.delivery_hops = {2};
  route.paths.push_back(p);
  std::vector<double> latencies;
  NetworkHooks hooks;
  hooks.on_delivery = [&](std::uint64_t, NodeId, double l) { latencies.push_back(l); };
  net.set_hooks(std::move(hooks));
  net.inject(worm::make_worm_specs(mesh, route, 1));
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_DOUBLE_EQ(latencies[0], 2 + 8 - 1);  // 9
  // Second worm: channel [0,1] frees at t = 1 + 8 = 9; header then crosses
  // hop 1 at 10, hop 2 at 11; delivery at progress 2 + L - 1 = 9 -> 7 more
  // flit times of drain: 11 + 7 = 18.
  EXPECT_DOUBLE_EQ(latencies[1], 18.0);
}

TEST(Network, BlockingTimeDecompositionIsExact) {
  // Same scenario as ContendedChannelSerialisesWorms: worm B waits on
  // channel [0,1] from t = 0 to t = 9 while A's tail drains -- exactly 9
  // flit times of blocking; A never blocks.
  const Mesh2D mesh(3, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 1};
  Network net(mesh, params, sched);
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2};
  p.delivery_hops = {2};
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  EXPECT_DOUBLE_EQ(net.total_blocked_time(), 9.0);
}

TEST(Network, DoubleChannelsRemoveTheSerialisation) {
  const Mesh2D mesh(3, 1);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 2};
  Network net(mesh, params, sched);
  std::vector<double> latencies;
  NetworkHooks hooks;
  hooks.on_delivery = [&](std::uint64_t, NodeId, double l) { latencies.push_back(l); };
  net.set_hooks(std::move(hooks));
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::PathRoute p;
  p.nodes = {0, 1, 2};
  p.delivery_hops = {2};
  route.paths.push_back(p);
  net.inject(worm::make_worm_specs(mesh, route, 2));
  net.inject(worm::make_worm_specs(mesh, route, 2));
  sched.run();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_DOUBLE_EQ(latencies[0], 9.0);
  EXPECT_DOUBLE_EQ(latencies[1], 9.0);  // second worm rides copy 1
}

TEST(Network, TreeWormLockStepTiming) {
  // A 2-branch tree: depths 1..2 on one branch, 1 on the other; all
  // branches advance together, deliveries at depth + L - 1 flit times.
  const Mesh2D mesh(3, 3);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 4, .channel_copies = 1};
  Network net(mesh, params, sched);
  Capture cap;
  net.set_hooks(cap.hooks());
  mcast::MulticastRoute route;
  route.source = mesh.node(1, 1);
  mcast::TreeRoute t;
  t.source = route.source;
  const auto l0 = t.add_link(mesh.node(1, 1), mesh.node(2, 1), -1);
  const auto l1 = t.add_link(mesh.node(2, 1), mesh.node(2, 2), static_cast<std::int32_t>(l0));
  const auto l2 = t.add_link(mesh.node(1, 1), mesh.node(0, 1), -1);
  t.delivery_links = {l1, l2};
  route.trees.push_back(t);
  net.inject(worm::make_worm_specs(mesh, route, 1));
  sched.run();
  EXPECT_DOUBLE_EQ(cap.deliveries[mesh.node(0, 1)], 1 + 4 - 1);
  EXPECT_DOUBLE_EQ(cap.deliveries[mesh.node(2, 2)], 2 + 4 - 1);
  EXPECT_TRUE(net.idle());
}

// --- Deadlock (Fig. 6.1) ----------------------------------------------------

TEST(Network, BinomialBroadcastsDeadlockOnThreeCube) {
  // Two simultaneous nCUBE-2 broadcasts from 000 and 001 acquire each
  // other's required channels and block forever (Section 6.1, Fig. 6.1/6.2).
  const Hypercube cube(3);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 8, .channel_copies = 1};
  Network net(cube, params, sched);

  MulticastRequest req0{0b000, {}};
  MulticastRequest req1{0b001, {}};
  for (NodeId d = 0; d < 8; ++d) {
    if (d != 0b000) req0.destinations.push_back(d);
    if (d != 0b001) req1.destinations.push_back(d);
  }
  net.inject(worm::make_worm_specs(cube, binomial_broadcast_route(cube, req0), 1));
  net.inject(worm::make_worm_specs(cube, binomial_broadcast_route(cube, req1), 1));
  sched.run();

  EXPECT_FALSE(net.idle()) << "the two broadcasts must block forever";
  const worm::DeadlockReport report = worm::check_deadlock(net);
  EXPECT_TRUE(report.deadlocked());
  EXPECT_GE(report.cycle.size(), 2u);
  EXPECT_FALSE(report.description.empty());
}

TEST(Network, DualPathWormsNeverDeadlockUnderStress) {
  // Property: saturating an 8x8 mesh with dual-path multicasts always
  // drains (Assertion 2 mechanised).
  const Mesh2D mesh(8, 8);
  const ham::MeshBoustrophedonLabeling lab(mesh);
  evsim::Scheduler sched;
  const WormholeParams params{.flit_time = 1.0, .message_flits = 16, .channel_copies = 1};
  Network net(mesh, params, sched);
  evsim::Rng rng(77);
  for (int burst = 0; burst < 200; ++burst) {
    const NodeId src = rng.uniform_int(0, mesh.num_nodes() - 1);
    const std::uint32_t k = rng.uniform_int(1, 15);
    const MulticastRequest req{src, rng.sample_destinations(mesh.num_nodes(), src, k)};
    net.inject(worm::make_worm_specs(mesh, dual_path_route(mesh, lab, req), 1));
  }
  sched.run();
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.pool().busy_count(), 0u);
  EXPECT_EQ(net.messages_completed(), 200u);
  EXPECT_TRUE(net.find_deadlock().empty());
}

TEST(Network, SelfConflictingTreeIsRejected) {
  // A tree that would need the same physical channel twice must be refused
  // at spec-construction time.
  const Mesh2D mesh(4, 1);
  mcast::MulticastRoute route;
  route.source = 0;
  mcast::TreeRoute t;
  t.source = 0;
  const auto a = t.add_link(0, 1, -1);
  const auto b = t.add_link(1, 0, static_cast<std::int32_t>(a));  // bounce back
  const auto c = t.add_link(0, 1, static_cast<std::int32_t>(b));  // reuse 0->1
  t.delivery_links = {c};
  route.trees.push_back(t);
  EXPECT_THROW((void)worm::make_worm_specs(mesh, route, 1), std::logic_error);
}

}  // namespace
