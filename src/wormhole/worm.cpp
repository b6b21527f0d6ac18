#include "wormhole/worm.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/dc_xfirst_tree.hpp"
#include "topology/mesh2d.hpp"

namespace mcnet::worm {

void WormPlan::sort_open_deliveries() {
  const std::uint32_t begin = ends_.empty() ? 0 : ends_.back().deliveries;
  std::sort(deliveries_.begin() + begin, deliveries_.end());
}

namespace {

void add_path(const topo::Topology& topology, const mcast::PathRoute& path,
              std::uint8_t copies, WormPlan& plan) {
  const std::int8_t copy = copies > 1 ? kAnyCopy : 0;
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const ChannelId c = topology.channel(path.nodes[i], path.nodes[i + 1]);
    if (c == topo::kInvalidChannel) throw std::logic_error("path uses non-edge");
    plan.add_link(c, static_cast<std::uint32_t>(i + 1), copy);
  }
  for (const std::uint32_t h : path.delivery_hops) {
    if (h == 0) throw std::logic_error("delivery at the source");
    plan.add_delivery(h, path.nodes[h]);
  }
  plan.sort_open_deliveries();
  plan.end_worm();
}

void add_tree(const topo::Topology& topology, const topo::Mesh2D* quadrant_mesh,
              const mcast::TreeRoute& tree, std::uint8_t copies, WormPlan& plan) {
  // TreeRoute links are parent-before-child but not depth-sorted; emit them
  // in stable depth order.
  std::vector<std::uint32_t> order(tree.links.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return tree.links[a].depth < tree.links[b].depth;
  });
  // A worm that needs the same pinned physical channel twice would wait on
  // itself forever; reject such routes up front.
  std::vector<std::uint64_t> pinned;
  pinned.reserve(order.size());
  for (const std::uint32_t li : order) {
    const mcast::TreeRoute::Link& l = tree.links[li];
    const ChannelId c = topology.channel(l.from, l.to);
    if (c == topo::kInvalidChannel) throw std::logic_error("tree uses non-edge");
    std::int8_t copy = 0;
    if (quadrant_mesh != nullptr) {
      const topo::Coord2 a = quadrant_mesh->coord(l.from);
      const topo::Coord2 b = quadrant_mesh->coord(l.to);
      copy = static_cast<std::int8_t>(mcast::quadrant_channel_copy(
          static_cast<mcast::Quadrant>(tree.channel_class % 4), b.x - a.x, b.y - a.y));
    } else {
      copy = static_cast<std::int8_t>(tree.channel_class % copies);
    }
    plan.add_link(c, l.depth, copy);
    pinned.push_back((static_cast<std::uint64_t>(c) << 8) | static_cast<std::uint8_t>(copy));
  }
  for (const std::uint32_t li : tree.delivery_links) {
    const mcast::TreeRoute::Link& l = tree.links[li];
    plan.add_delivery(l.depth, l.to);
  }
  plan.sort_open_deliveries();
  std::sort(pinned.begin(), pinned.end());
  if (std::adjacent_find(pinned.begin(), pinned.end()) != pinned.end()) {
    throw std::logic_error("tree worm reuses a physical channel (would self-deadlock)");
  }
  plan.end_worm();
}

}  // namespace

void route_to_plan(const topo::Topology& topology, const mcast::MulticastRoute& route,
                   std::uint8_t copies, WormPlan& plan) {
  plan.clear();
  for (const mcast::PathRoute& p : route.paths) {
    if (p.hops() == 0) continue;  // nothing to transmit
    add_path(topology, p, copies, plan);
  }
  if (route.trees.empty()) return;
  const topo::Mesh2D* quadrant_mesh =
      copies >= 2 ? dynamic_cast<const topo::Mesh2D*>(&topology) : nullptr;
  for (const mcast::TreeRoute& t : route.trees) {
    if (t.links.empty()) continue;
    add_tree(topology, quadrant_mesh, t, copies, plan);
  }
}

std::vector<WormSpec> plan_to_specs(const topo::Topology& topology, const WormPlan& plan) {
  std::vector<WormSpec> specs(plan.size());
  for (std::size_t w = 0; w < plan.size(); ++w) {
    WormSpec& spec = specs[w];
    spec.links.reserve(plan.links(w).size());
    for (const PlanLink& l : plan.links(w)) {
      const topo::ChannelEnds ends = topology.channel_ends(l.channel);
      spec.links.push_back({l.channel, ends.from, ends.to, l.depth, l.copy});
    }
    spec.deliveries.assign(plan.deliveries(w).begin(), plan.deliveries(w).end());
  }
  return specs;
}

void specs_to_plan(const std::vector<WormSpec>& specs, WormPlan& plan) {
  plan.clear();
  for (const WormSpec& spec : specs) {
    for (const WormLink& l : spec.links) plan.add_link(l.channel, l.depth, l.copy);
    for (const auto& [depth, dest] : spec.deliveries) plan.add_delivery(depth, dest);
    plan.end_worm();
  }
}

std::vector<WormSpec> make_worm_specs(const topo::Topology& topology,
                                      const mcast::MulticastRoute& route,
                                      std::uint8_t copies) {
  WormPlan plan;
  route_to_plan(topology, route, copies, plan);
  return plan_to_specs(topology, plan);
}

}  // namespace mcnet::worm
