// Worm plans and worm specifications: the simulator-facing form of a
// multicast route.
//
// Both path and tree multicasts are modelled as lock-step worm trees (a
// path is the single-branch special case, where lock-step degenerates to
// ordinary per-hop wormhole advancement):
//
//  * at global progress p the worm tries to acquire every link at depth
//    p + 1; following the nCUBE-2 semantics of Section 6.1, granted
//    channels are held while the worm waits for the rest of the frontier;
//  * when the whole frontier is granted, every flit of the worm advances
//    one hop per flit time;
//  * the link at depth d is released when the tail flit has crossed it
//    (progress d + L for an L-flit message) and the destination reached
//    through depth d receives the complete message at progress d + L - 1;
//  * when the deepest branch arrives, the remaining flits drain into the
//    destinations at channel rate.
//
// WormPlan is the network shape: a flat, reusable buffer that routers fill
// and Network::inject copies from.  MulticastRoute is the analysis shape;
// route_to_plan is the one conversion between them.  WormSpec is the
// per-worm vector form kept for callers that build worms by hand.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/multicast.hpp"
#include "topology/topology.hpp"
#include "wormhole/channel_pool.hpp"

namespace mcnet::worm {

using topo::ChannelId;
using topo::NodeId;

/// (depth, destination): the destination receives the message through the
/// link at that depth.
using Delivery = std::pair<std::uint32_t, NodeId>;

/// One planned link: the channel, its depth (hops from the source; root
/// links have depth 1) and its copy pin (kAnyCopy or a physical copy).
struct PlanLink {
  ChannelId channel = topo::kInvalidChannel;
  std::uint32_t depth = 1;
  std::int8_t copy = kAnyCopy;

  friend bool operator==(const PlanLink&, const PlanLink&) = default;
};

/// The worms of one multicast in three flat arrays.  clear() keeps the
/// capacity, so a plan reused across messages stops allocating once it has
/// held the largest multicast.  Each worm's links are sorted by ascending
/// depth and its deliveries by (depth, destination).
class WormPlan {
 public:
  void clear() {
    ends_.clear();
    links_.clear();
    deliveries_.clear();
  }

  /// Number of worms.
  [[nodiscard]] std::size_t size() const { return ends_.size(); }
  [[nodiscard]] bool empty() const { return ends_.empty(); }
  [[nodiscard]] std::span<const PlanLink> links(std::size_t worm) const {
    const std::uint32_t begin = worm == 0 ? 0 : ends_[worm - 1].links;
    return {links_.data() + begin, links_.data() + ends_[worm].links};
  }
  [[nodiscard]] std::span<const Delivery> deliveries(std::size_t worm) const {
    const std::uint32_t begin = worm == 0 ? 0 : ends_[worm - 1].deliveries;
    return {deliveries_.data() + begin, deliveries_.data() + ends_[worm].deliveries};
  }
  /// Building: links (in depth order) and deliveries go to the open worm;
  /// end_worm() closes it.
  void add_link(ChannelId channel, std::uint32_t depth, std::int8_t copy) {
    links_.push_back({channel, depth, copy});
  }
  void add_delivery(std::uint32_t depth, NodeId destination) {
    deliveries_.emplace_back(depth, destination);
  }
  /// Sort the open worm's deliveries by (depth, destination).
  void sort_open_deliveries();
  void end_worm() {
    ends_.push_back({static_cast<std::uint32_t>(links_.size()),
                     static_cast<std::uint32_t>(deliveries_.size())});
  }

  friend bool operator==(const WormPlan&, const WormPlan&) = default;

 private:
  struct Ends {
    std::uint32_t links = 0;
    std::uint32_t deliveries = 0;
    friend bool operator==(const Ends&, const Ends&) = default;
  };

  std::vector<Ends> ends_;  // per worm: one past its last link / delivery
  std::vector<PlanLink> links_;
  std::vector<Delivery> deliveries_;
};

/// The one route -> plan conversion (replaces `plan`'s contents).  Path
/// worms use any copy when copies > 1 (their subnetworks are acyclic per
/// label direction regardless of copy) and copy 0 otherwise.  Tree worms
/// pin a copy: on a 2-D mesh with copies >= 2 the copy its quadrant
/// subnetwork owns (Section 6.2.1's channel partition for the
/// double-channel X-first tree), elsewhere channel_class % copies.  Empty
/// components are skipped.  Throws std::logic_error on a non-edge, a
/// delivery at the source, or a tree worm that would use the same
/// (channel, pinned copy) twice (it would self-deadlock).
void route_to_plan(const topo::Topology& topology, const mcast::MulticastRoute& route,
                   std::uint8_t copies, WormPlan& plan);

struct WormLink {
  ChannelId channel = topo::kInvalidChannel;
  NodeId from = topo::kInvalidNode;
  NodeId to = topo::kInvalidNode;
  std::uint32_t depth = 1;  // hops from the source; root links have depth 1
  std::int8_t copy = -1;    // kAnyCopy, or a pinned physical copy
};

/// One worm: links sorted by ascending depth, plus the destinations
/// delivered at each depth.
struct WormSpec {
  std::vector<WormLink> links;
  /// (depth, destination) pairs sorted by depth.
  std::vector<Delivery> deliveries;

  [[nodiscard]] std::uint32_t max_depth() const {
    return links.empty() ? 0 : links.back().depth;
  }
};

/// Vector form of a plan (link endpoints from the topology's channel table).
[[nodiscard]] std::vector<WormSpec> plan_to_specs(const topo::Topology& topology,
                                                  const WormPlan& plan);

/// Plan form of hand-built specs (replaces `plan`'s contents).
void specs_to_plan(const std::vector<WormSpec>& specs, WormPlan& plan);

/// route_to_plan + plan_to_specs.
[[nodiscard]] std::vector<WormSpec> make_worm_specs(const topo::Topology& topology,
                                                    const mcast::MulticastRoute& route,
                                                    std::uint8_t copies);

}  // namespace mcnet::worm
