#include "core/multi_path.hpp"

#include "core/label_walk.hpp"

namespace mcnet::mcast {

namespace {

using topo::NodeId;

// Mesh split of one side (Fig. 6.14 step 3): when two neighbours exist,
// destinations on neighbour v1's x-side go through v1, the rest through v2.
void prepare_mesh_side(const topo::Mesh2D& mesh, const std::vector<NodeId>& sorted_side,
                       const std::vector<NodeId>& neighbors, std::uint8_t channel_class,
                       MultiPathScratch& s) {
  if (sorted_side.empty()) return;
  if (neighbors.size() < 2) {
    MultiPathWorm& w = s.open(channel_class, neighbors.empty()
                                                 ? std::nullopt
                                                 : std::make_optional(neighbors[0]));
    w.targets.assign(sorted_side.begin(), sorted_side.end());
    return;
  }
  const std::size_t first = s.count;
  s.open(channel_class, neighbors[0]);
  s.open(channel_class, neighbors[1]);
  const std::int32_t x1 = mesh.coord(neighbors[0]).x;
  const std::int32_t x2 = mesh.coord(neighbors[1]).x;
  for (const NodeId d : sorted_side) {
    const std::int32_t x = mesh.coord(d).x;
    const bool to_v1 = (x1 < x2) ? (x <= x1) : (x >= x1);
    s.worms[to_v1 ? first : first + 1].targets.push_back(d);
  }
  // Drop an empty bucket, keeping the order of the other.
  if (s.worms[first + 1].targets.empty()) --s.count;
  if (s.worms[first].targets.empty()) {
    std::swap(s.worms[first], s.worms[first + 1]);
    --s.count;
  }
}

// One path per prepared worm, routed by R.
MulticastRoute route_worms(const LabelRouter& router, const MulticastRequest& request,
                           const MultiPathScratch& s) {
  MulticastRoute route;
  route.source = request.source;
  for (std::size_t i = 0; i < s.count; ++i) {
    const MultiPathWorm& worm = s.worms[i];
    route.paths.push_back(
        router.route_path(request.source, worm.targets, worm.first_hop, worm.channel_class));
  }
  return route;
}

}  // namespace

void multi_path_prepare(const topo::Mesh2D& mesh,
                        const ham::MeshBoustrophedonLabeling& labeling,
                        const MulticastRequest& request, MultiPathScratch& s) {
  dual_path_split(labeling, request, s.split);
  s.count = 0;
  if (!s.split.high.empty()) {
    side_neighbors(mesh, labeling, request.source, /*high=*/true, s.neighbors);
    prepare_mesh_side(mesh, s.split.high, s.neighbors, kHighChannelClass, s);
  }
  if (!s.split.low.empty()) {
    side_neighbors(mesh, labeling, request.source, /*high=*/false, s.neighbors);
    prepare_mesh_side(mesh, s.split.low, s.neighbors, kLowChannelClass, s);
  }
}

MulticastRoute multi_path_route(const topo::Mesh2D& mesh,
                                const ham::MeshBoustrophedonLabeling& labeling,
                                const MulticastRequest& request) {
  MultiPathScratch s;
  multi_path_prepare(mesh, labeling, request, s);
  return route_worms(LabelRouter(mesh, labeling), request, s);
}

MulticastRoute multi_path_route(const topo::Hypercube& cube,
                                const ham::HypercubeGrayLabeling& labeling,
                                const MulticastRequest& request) {
  return multi_path_route(static_cast<const topo::Topology&>(cube),
                          static_cast<const ham::Labeling&>(labeling), request);
}

MulticastRoute multi_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                                const MulticastRequest& request) {
  MultiPathScratch s;
  labeled_multi_path_prepare(topology, labeling, request, s);
  return route_worms(LabelRouter(topology, labeling), request, s);
}

}  // namespace mcnet::mcast
