#include "core/routing_function.hpp"

#include "core/label_walk.hpp"

namespace mcnet::mcast {

topo::NodeId LabelRouter::next_hop(topo::NodeId cur, topo::NodeId dst) const {
  return label_next_hop(*topology_, *labeling_, cur, dst);
}

PathRoute LabelRouter::route_path(topo::NodeId source, std::span<const topo::NodeId> targets,
                                  std::optional<topo::NodeId> forced_first_hop,
                                  std::uint8_t channel_class) const {
  PathRoute path;
  path.channel_class = channel_class;
  path.nodes.push_back(source);
  PathRouteSink sink{path};
  label_walk(*topology_, *labeling_, source, targets,
             forced_first_hop.value_or(topo::kInvalidNode), sink);
  return path;
}

}  // namespace mcnet::mcast
