#include "core/fixed_path.hpp"

#include "core/label_walk.hpp"

namespace mcnet::mcast {

MulticastRoute fixed_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                                const MulticastRequest& request) {
  DualPathSplit split;
  return fixed_path_route(topology, labeling, request, split);
}

MulticastRoute fixed_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                                const MulticastRequest& request, DualPathSplit& scratch) {
  (void)topology;  // adjacency is implied by the Hamiltonian labeling
  dual_path_prepare(labeling, request, scratch);
  MulticastRoute route;
  route.source = request.source;
  const auto emit = [&](const std::vector<topo::NodeId>& side, bool high,
                        std::uint8_t channel_class) {
    if (side.empty()) return;
    PathRoute path;
    path.channel_class = channel_class;
    path.nodes.push_back(request.source);
    PathRouteSink sink{path};
    fixed_path_walk(labeling, request.source, std::span<const topo::NodeId>(side), high, sink);
    route.paths.push_back(std::move(path));
  };
  emit(scratch.high, /*high=*/true, kHighChannelClass);
  emit(scratch.low, /*high=*/false, kLowChannelClass);
  return route;
}

}  // namespace mcnet::mcast
