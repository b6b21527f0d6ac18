// The label-order-preserving routing function R of Sections 6.2.2 / 6.3:
//
//   R(u, v) = the neighbour w of u with
//             max { l(p) : l(p) <= l(v) }  when l(u) < l(v)   (high network)
//             min { l(p) : l(p) >= l(v) }  when l(u) > l(v)   (low network)
//
// Lemmas 6.1 / 6.4 claim that for the boustrophedon mesh labeling and the
// Gray-code hypercube labeling R selects a shortest path that is monotone
// in the labels, hence confined to one acyclic subnetwork.  The path worms
// of the dual-, multi- and fixed-path algorithms are built on R, which is
// written once in label_walk.hpp; LabelRouter is its generic instance.
//
// ERRATUM (documented in DESIGN.md): on the hypercube the literal max-label
// rule is NOT shortest -- e.g. in a 3-cube from 000 (label 0) to 101
// (label 6) it selects 010 (label 3) over 001 (label 1) and needs 4 hops
// instead of 2.  Lemma 6.4's own case analysis constructs a label-monotone
// *distance-reducing* neighbour for every pair, so this implementation
// applies the max/min-label rule over the distance-reducing neighbours
// first (falling back to the literal rule if none exists).  On the mesh the
// two rules coincide (Lemma 6.1 holds as stated), and label monotonicity --
// the property deadlock freedom rests on -- is preserved either way.
#pragma once

#include <optional>
#include <span>

#include "core/multicast.hpp"
#include "topology/hamiltonian.hpp"

namespace mcnet::mcast {

class LabelRouter {
 public:
  LabelRouter(const topo::Topology& topology, const ham::Labeling& labeling)
      : topology_(&topology), labeling_(&labeling) {}

  /// One application of R.  Returns kInvalidNode when cur == dst.
  [[nodiscard]] topo::NodeId next_hop(topo::NodeId cur, topo::NodeId dst) const;

  /// Walk from `source` through each target in order (targets must be
  /// label-monotone relative to the source: all above it or all below it,
  /// sorted accordingly).  `forced_first_hop`, when set, pre-routes the
  /// message one hop before R takes over (the multi-path algorithms address
  /// a specific neighbour).  Deliveries are recorded at each target.
  [[nodiscard]] PathRoute route_path(topo::NodeId source,
                                     std::span<const topo::NodeId> targets,
                                     std::optional<topo::NodeId> forced_first_hop,
                                     std::uint8_t channel_class) const;

  [[nodiscard]] const ham::Labeling& labeling() const { return *labeling_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

 private:
  const topo::Topology* topology_;
  const ham::Labeling* labeling_;
};

}  // namespace mcnet::mcast
