// The label-order routing function R of Sections 6.2.2 / 6.3 and the walks
// built on it, written once as templates over the topology and labeling
// types.  Instantiated with the final classes (Mesh2D with the boustrophedon
// labeling, Hypercube with the Gray labeling) every label() and distance()
// call inlines; instantiated with the abstract Topology and Labeling they
// are the generic LabelRouter of routing_function.hpp.
//
// A walk reports to a sink: hop(from, to) per channel traversed and
// deliver(node) per destination reached.  route() records nodes
// (PathRoute), the routers' plan() records channels straight into a
// worm::WormPlan, and the relation analyzer steps R through
// LabelRouter::next_hop -- so R, the dual-path split, the multi-path split
// and the fixed-path walk each exist once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "core/multi_path.hpp"
#include "core/route_factory.hpp"
#include "wormhole/worm.hpp"

namespace mcnet::mcast {

/// One application of R (see routing_function.hpp, including the erratum
/// on the hypercube).  Returns kInvalidNode when cur == dst.
template <class Topo, class Lab>
[[nodiscard]] topo::NodeId label_next_hop(const Topo& topology, const Lab& labeling,
                                          topo::NodeId cur, topo::NodeId dst) {
  if (cur == dst) return topo::kInvalidNode;
  const std::uint32_t lc = labeling.label(cur);
  const std::uint32_t ld = labeling.label(dst);
  const std::uint32_t dist = topology.distance(cur, dst);
  const bool high = lc < ld;
  // One scan evaluates both passes of the rule: the label-extremal
  // neighbour among those that move strictly closer to the destination
  // (the repaired Lemma 6.4 rule) and, as the fallback, the literal
  // max/min-label rule over every monotone neighbour.
  topo::NodeId closer = topo::kInvalidNode;
  std::uint32_t closer_label = 0;
  topo::NodeId any = topo::kInvalidNode;
  std::uint32_t any_label = 0;
  for (const topo::NodeId p : topology.neighbors(cur)) {
    const std::uint32_t lp = labeling.label(p);
    const bool monotone = high ? (lp > lc && lp <= ld) : (lp < lc && lp >= ld);
    if (!monotone) continue;
    if (any == topo::kInvalidNode || (high ? lp > any_label : lp < any_label)) {
      any = p;
      any_label = lp;
    }
    if ((closer == topo::kInvalidNode || (high ? lp > closer_label : lp < closer_label)) &&
        topology.distance(p, dst) < dist) {
      closer = p;
      closer_label = lp;
    }
  }
  if (closer != topo::kInvalidNode) return closer;
  // The Hamiltonian-path neighbour at label l(cur) +/- 1 always qualifies
  // for the fallback, so R can never be stuck.
  if (any != topo::kInvalidNode) return any;
  throw std::logic_error("routing function R stuck");
}

/// Walk R from `source` through each target in order (targets must be
/// label-monotone relative to the source and sorted accordingly).  A valid
/// `forced_first_hop` pre-routes the message one hop before R takes over
/// (the multi-path algorithms address a specific neighbour); it may itself
/// be the first target.
template <class Topo, class Lab, class Sink>
void label_walk(const Topo& topology, const Lab& labeling, topo::NodeId source,
                std::span<const topo::NodeId> targets, topo::NodeId forced_first_hop,
                Sink& sink) {
  topo::NodeId w = source;
  std::uint32_t hops = 0;
  if (forced_first_hop != topo::kInvalidNode && !targets.empty()) {
    if (!topology.adjacent(source, forced_first_hop)) {
      throw std::invalid_argument("forced first hop is not a neighbour");
    }
    sink.hop(source, forced_first_hop);
    w = forced_first_hop;
    hops = 1;
  }
  for (const topo::NodeId d : targets) {
    while (w != d) {
      const topo::NodeId next = label_next_hop(topology, labeling, w, d);
      sink.hop(w, next);
      w = next;
      if (++hops > labeling.size()) throw std::logic_error("label routing loops");
    }
    sink.deliver(d);
  }
}

/// Fixed-path walk (Fig. 6.17): along the Hamiltonian path itself from the
/// source to the extreme target of `side` (label-sorted away from the
/// source), delivering at each target passed.
template <class Lab, class Sink>
void fixed_path_walk(const Lab& labeling, topo::NodeId source,
                     std::span<const topo::NodeId> side, bool high, Sink& sink) {
  if (side.empty()) return;
  const std::uint32_t extreme = labeling.label(side.back());
  std::size_t next_target = 0;
  topo::NodeId u = source;
  for (std::uint32_t l = labeling.label(source); l != extreme;) {
    l = high ? l + 1 : l - 1;
    const topo::NodeId v = labeling.node_at(l);
    sink.hop(u, v);
    u = v;
    if (next_target < side.size() && labeling.label(side[next_target]) == l) {
      sink.deliver(v);
      ++next_target;
    }
  }
}

/// Dual-path message preparation (Fig. 6.11): destinations above the
/// source sorted by ascending label, below by descending label.
template <class Lab>
void dual_path_split(const Lab& labeling, const MulticastRequest& request,
                     DualPathSplit& out) {
  out.high.clear();
  out.low.clear();
  const std::uint32_t ls = labeling.label(request.source);
  for (const topo::NodeId d : request.destinations) {
    (labeling.label(d) > ls ? out.high : out.low).push_back(d);
  }
  std::sort(out.high.begin(), out.high.end(), [&](topo::NodeId a, topo::NodeId b) {
    return labeling.label(a) < labeling.label(b);
  });
  std::sort(out.low.begin(), out.low.end(), [&](topo::NodeId a, topo::NodeId b) {
    return labeling.label(a) > labeling.label(b);
  });
}

/// Neighbours of `u` on one side of the labeling into `out`, sorted by
/// label (ascending for the high side, descending for the low side).
template <class Topo, class Lab>
void side_neighbors(const Topo& topology, const Lab& labeling, topo::NodeId u, bool high,
                    std::vector<topo::NodeId>& out) {
  out.clear();
  const std::uint32_t lu = labeling.label(u);
  for (const topo::NodeId p : topology.neighbors(u)) {
    if ((labeling.label(p) > lu) == high) out.push_back(p);
  }
  std::sort(out.begin(), out.end(), [&](topo::NodeId a, topo::NodeId b) {
    return high ? labeling.label(a) < labeling.label(b)
                : labeling.label(a) > labeling.label(b);
  });
}

/// Multi-path preparation on any labeled topology (Fig. 6.20): each side of
/// the dual-path split bucketed by the label ranges of the source's
/// same-side neighbours.  Side lists and neighbour lists are both
/// label-sorted, so one merge pass assigns each destination to the nearest
/// preceding neighbour.  (The 2-D mesh has its own x-coordinate split,
/// multi_path_prepare in multi_path.hpp.)
template <class Topo, class Lab>
void labeled_multi_path_prepare(const Topo& topology, const Lab& labeling,
                        const MulticastRequest& request, MultiPathScratch& s) {
  dual_path_split(labeling, request, s.split);
  s.count = 0;
  const auto prepare_side = [&](const std::vector<topo::NodeId>& side, bool high,
                                std::uint8_t channel_class) {
    if (side.empty()) return;
    side_neighbors(topology, labeling, request.source, high, s.neighbors);
    const std::vector<topo::NodeId>& nbrs = s.neighbors;
    std::size_t b = 0;  // current neighbour bucket
    bool open = false;  // a worm for bucket b has been opened
    for (const topo::NodeId d : side) {
      const std::uint32_t ld = labeling.label(d);
      while (b + 1 < nbrs.size() &&
             (high ? labeling.label(nbrs[b + 1]) <= ld : labeling.label(nbrs[b + 1]) >= ld)) {
        open = false;
        ++b;
      }
      if (!open) {
        s.open(channel_class, nbrs[b]);
        open = true;
      }
      s.worms[s.count - 1].targets.push_back(d);
    }
  };
  prepare_side(s.split.high, true, kHighChannelClass);
  prepare_side(s.split.low, false, kLowChannelClass);
}

/// Sink recording a walk as a PathRoute whose nodes already hold the start.
struct PathRouteSink {
  PathRoute& path;

  void hop(topo::NodeId /*from*/, topo::NodeId to) { path.nodes.push_back(to); }
  void deliver(topo::NodeId /*d*/) {
    path.delivery_hops.push_back(static_cast<std::uint32_t>(path.nodes.size() - 1));
  }
};

/// Sink writing one path worm straight into a WormPlan: the channel of
/// every hop at increasing depth, with the path copy policy of
/// worm::route_to_plan (any copy when copies > 1, else copy 0).
template <class Topo>
class PlanPathSink {
 public:
  PlanPathSink(const Topo& topology, std::uint8_t copies, worm::WormPlan& plan)
      : topology_(topology), copy_(copies > 1 ? worm::kAnyCopy : 0), plan_(plan) {}

  void hop(topo::NodeId from, topo::NodeId to) {
    plan_.add_link(topology_.channel(from, to), ++depth_, copy_);
  }
  void deliver(topo::NodeId d) { plan_.add_delivery(depth_, d); }
  /// Close the worm (when it moved at all) and start the next one.
  void end_worm() {
    if (depth_ > 0) plan_.end_worm();
    depth_ = 0;
  }

 private:
  const Topo& topology_;
  std::int8_t copy_;
  worm::WormPlan& plan_;
  std::uint32_t depth_ = 0;
};

/// plan() of the dual-, multi- and fixed-path algorithms: the same worms,
/// in the same order, as worm::route_to_plan of the algorithm's route,
/// written without building the route.  `request` must be normalized.
/// Returns false (leaving `plan` untouched) for any other algorithm.
template <class Topo, class Lab>
bool plan_label_paths(const Topo& topology, const Lab& labeling, Algorithm algorithm,
                      const MulticastRequest& request, std::uint8_t copies,
                      MultiPathScratch& s, worm::WormPlan& plan) {
  if (algorithm != Algorithm::kDualPath && algorithm != Algorithm::kMultiPath &&
      algorithm != Algorithm::kFixedPath) {
    return false;
  }
  plan.clear();
  PlanPathSink<Topo> sink(topology, copies, plan);
  if (algorithm == Algorithm::kMultiPath) {
    if constexpr (std::is_same_v<Topo, topo::Mesh2D>) {
      multi_path_prepare(topology, labeling, request, s);  // Fig. 6.14 split
    } else {
      labeled_multi_path_prepare(topology, labeling, request, s);  // Fig. 6.20 split
    }
    for (std::size_t i = 0; i < s.count; ++i) {
      const MultiPathWorm& w = s.worms[i];
      label_walk(topology, labeling, request.source, std::span<const topo::NodeId>(w.targets),
                 w.first_hop.value_or(topo::kInvalidNode), sink);
      sink.end_worm();
    }
    return true;
  }
  dual_path_split(labeling, request, s.split);
  for (const bool high : {true, false}) {
    const std::span<const topo::NodeId> side(high ? s.split.high : s.split.low);
    if (algorithm == Algorithm::kDualPath) {
      label_walk(topology, labeling, request.source, side, topo::kInvalidNode, sink);
    } else {
      fixed_path_walk(labeling, request.source, side, high, sink);
    }
    sink.end_worm();
  }
  return true;
}

}  // namespace mcnet::mcast
