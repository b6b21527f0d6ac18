#include "core/dual_path.hpp"

#include "core/label_walk.hpp"

namespace mcnet::mcast {

void dual_path_prepare(const ham::Labeling& labeling, const MulticastRequest& request,
                       DualPathSplit& out) {
  dual_path_split(labeling, request, out);
}

DualPathSplit dual_path_prepare(const ham::Labeling& labeling,
                                const MulticastRequest& request) {
  DualPathSplit split;
  dual_path_prepare(labeling, request, split);
  return split;
}

MulticastRoute dual_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                               const MulticastRequest& request, DualPathSplit& scratch) {
  const LabelRouter router(topology, labeling);
  dual_path_prepare(labeling, request, scratch);
  MulticastRoute route;
  route.source = request.source;
  if (!scratch.high.empty()) {
    route.paths.push_back(
        router.route_path(request.source, scratch.high, std::nullopt, kHighChannelClass));
  }
  if (!scratch.low.empty()) {
    route.paths.push_back(
        router.route_path(request.source, scratch.low, std::nullopt, kLowChannelClass));
  }
  return route;
}

MulticastRoute dual_path_route(const topo::Topology& topology, const ham::Labeling& labeling,
                               const MulticastRequest& request) {
  DualPathSplit split;
  return dual_path_route(topology, labeling, request, split);
}

}  // namespace mcnet::mcast
