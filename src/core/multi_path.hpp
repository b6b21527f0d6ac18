// Multi-path deadlock-free multicast routing (Section 6.2.2, Figures 6.14
// and 6.15 for the 2-D mesh; Fig. 6.20 for the hypercube).
//
// The dual-path split is refined further: on a mesh, D_H is divided by the
// x-coordinates of the two higher-labeled neighbours of the source (each
// sublist addressed through its neighbour); symmetrically for D_L, giving
// up to four path worms.  On an n-cube, the higher-labeled neighbours
// v_1 < v_2 < ... partition D_H into label ranges
// [l(v_i), l(v_{i+1})), giving up to n worms per side.  All worms stay in
// one acyclic subnetwork, so the scheme is deadlock-free (Assertion 3 /
// Corollary 6.2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dual_path.hpp"
#include "core/routing_function.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh2d.hpp"

namespace mcnet::mcast {

/// One path worm of the multi-path split, before routing: the channel class
/// it travels in, an optional forced first hop (the source neighbour that
/// owns the bucket), and the label-ordered targets it serves.  Exposed so
/// the relation-based analyzer can explore every legal path of each worm
/// instead of the one deterministic route R picks.
struct MultiPathWorm {
  std::uint8_t channel_class = 0;
  std::optional<topo::NodeId> first_hop;
  std::vector<topo::NodeId> targets;
};

/// Reusable multi-path preparation workspace: worms[0, count) are the
/// prepared worms, and slots past `count` keep their target capacity, so a
/// scratch reused across requests stops allocating.  Not thread-safe.
struct MultiPathScratch {
  DualPathSplit split;
  std::vector<topo::NodeId> neighbors;
  std::vector<MultiPathWorm> worms;
  std::size_t count = 0;

  /// Append an empty worm (reusing a slot) and return it.
  MultiPathWorm& open(std::uint8_t channel_class, std::optional<topo::NodeId> first_hop) {
    if (count == worms.size()) worms.emplace_back();
    MultiPathWorm& w = worms[count++];
    w.channel_class = channel_class;
    w.first_hop = first_hop;
    w.targets.clear();
    return w;
  }
};

/// Splits a request into multi-path worms on the mesh (Fig. 6.14: each side
/// of the dual-path split divided by the x-coordinates of the source's two
/// same-side neighbours), into `scratch`.  The split for any other labeled
/// topology (Fig. 6.20) is labeled_multi_path_prepare in label_walk.hpp.
void multi_path_prepare(const topo::Mesh2D& mesh,
                        const ham::MeshBoustrophedonLabeling& labeling,
                        const MulticastRequest& request, MultiPathScratch& scratch);

[[nodiscard]] MulticastRoute multi_path_route(const topo::Mesh2D& mesh,
                                              const ham::MeshBoustrophedonLabeling& labeling,
                                              const MulticastRequest& request);

[[nodiscard]] MulticastRoute multi_path_route(const topo::Hypercube& cube,
                                              const ham::HypercubeGrayLabeling& labeling,
                                              const MulticastRequest& request);

/// Generic multi-path for any topology with a Hamiltonian labeling (3-D
/// meshes, k-ary n-cubes, ...): each side of the dual-path split is
/// bucketed by the label ranges of the source's same-side neighbours, as in
/// the hypercube variant.  Deadlock-free by the same subnetwork argument.
[[nodiscard]] MulticastRoute multi_path_route(const topo::Topology& topology,
                                              const ham::Labeling& labeling,
                                              const MulticastRequest& request);

}  // namespace mcnet::mcast
