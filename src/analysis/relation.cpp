#include "analysis/relation.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "analysis/instances.hpp"
#include "cdg/analyzers.hpp"
#include "core/adaptive_path.hpp"
#include "core/dual_path.hpp"
#include "core/label_walk.hpp"
#include "core/multi_path.hpp"
#include "core/routing_function.hpp"

namespace mcnet::analysis {

namespace {

using cdg::ChannelGraph;
using cdg::EdgeTag;
using mcast::MulticastRequest;
using topo::ChannelId;
using topo::NodeId;

// --- worm-state exploration ------------------------------------------------

// Identity of a worm spec, for deduplicating exploration across instances.
using WormKey = std::vector<std::uint32_t>;

WormKey key_of(const WormSpec& spec) {
  WormKey key;
  key.reserve(4 + spec.targets.size());
  key.push_back(spec.channel_class);
  key.push_back(spec.source);
  key.push_back(spec.first_hop ? *spec.first_hop + 1 : 0);
  key.push_back(spec.first_hop_copy);
  key.insert(key.end(), spec.targets.begin(), spec.targets.end());
  return key;
}

// The reachable header-state graph of one worm: states are (remaining
// target index, current node) pairs, transitions are the relation's
// candidate hops labeled with the virtual channel they acquire.
struct WormGraph {
  struct State {
    NodeId node = topo::kInvalidNode;
    std::uint32_t target_index = 0;
  };
  std::vector<State> states;
  std::vector<bool> terminal;
  // Per state: (successor state, virtual channel acquired).
  std::vector<std::vector<std::pair<std::uint32_t, ChannelId>>> next;
  // Deduplicated CDG edges the worm induces: (vc held, vc requested next).
  std::vector<std::pair<ChannelId, ChannelId>> edges;
  std::size_t stuck = 0;
  std::uint32_t initial = 0;
};

class RelationEngine {
 public:
  explicit RelationEngine(const RoutingRelation& relation)
      : rel_(&relation),
        n_(relation.topology->num_nodes()),
        num_vcs_(relation.topology->num_channels() * relation.channel_copies) {}

  /// Pass A: build the tagged CDG over `instances`.  When `report` is
  /// non-null, also gather exploration stats and -- if the relation has an
  /// escape subfunction -- run the per-state escape checks (definedness,
  /// candidate membership, walk termination) and collect the global escape
  /// channel set.
  ChannelGraph build_cdg(const std::vector<MulticastRequest>& instances,
                         RelationReport* report) {
    ChannelGraph graph(num_vcs_);
    std::set<WormKey> seen;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const EdgeTag tag = static_cast<EdgeTag>(i);
      for (const WormSpec& spec : rel_->prepare(instances[i])) {
        if (spec.targets.empty()) continue;
        WormKey key = key_of(spec);
        WormGraph local;
        const WormGraph& worm = lookup(spec, key, local);
        for (const auto& [from, to] : worm.edges) graph.add_dependency(from, to, tag);
        if (report != nullptr && seen.insert(std::move(key)).second) {
          report->worm_states += worm.states.size();
          report->stuck_states += worm.stuck;
          if (rel_->escape) check_escape(spec, worm, report->escape);
        }
      }
    }
    if (report != nullptr && rel_->escape) {
      report->escape.checked = true;
      report->escape.complete = report->escape.failures.empty();
      report->escape.escape_channels = escape_channels_;
    }
    return graph;
  }

  /// Pass B: close the extended escape dependency graph over every unique
  /// worm, given the escape channel set collected in pass A.  From each
  /// transition acquiring an escape channel a, every escape channel that
  /// can be *requested* after it -- directly or through any chain of
  /// adaptive (non-escape) acquisitions -- contributes an edge a -> c.
  /// Propagation stops at escape acquisitions: the crossed channel starts
  /// its own dependency chain in its own iteration.
  void close_extended_graph(const std::vector<MulticastRequest>& instances,
                            EscapeReport& escape) {
    ChannelGraph ext(num_vcs_);
    std::set<WormKey> done;
    std::vector<std::uint32_t> mark;
    std::vector<std::uint32_t> stack;
    std::uint32_t epoch = 0;
    for (const MulticastRequest& instance : instances) {
      for (const WormSpec& spec : rel_->prepare(instance)) {
        if (spec.targets.empty()) continue;
        WormKey key = key_of(spec);
        if (!done.insert(std::move(key)).second) continue;
        WormGraph local;
        const WormGraph& worm = lookup(spec, key_of(spec), local);
        mark.assign(worm.states.size(), 0);
        epoch = 0;
        for (std::uint32_t s = 0; s < worm.states.size(); ++s) {
          for (const auto& [entry, vc] : worm.next[s]) {
            if (!in_escape_set(vc)) continue;
            ++epoch;
            stack.assign(1, entry);
            mark[entry] = epoch;
            while (!stack.empty()) {
              const std::uint32_t v = stack.back();
              stack.pop_back();
              for (const auto& [succ, vc2] : worm.next[v]) {
                if (in_escape_set(vc2)) {
                  // Self-dependencies are impossible for capacity-sound
                  // relations (a worm never re-requests a held channel).
                  if (vc2 != vc) ext.add_dependency(vc, vc2);
                } else if (mark[succ] != epoch) {
                  mark[succ] = epoch;
                  stack.push_back(succ);
                }
              }
            }
          }
        }
      }
    }
    escape.extended_dependencies = ext.num_dependencies();
    escape.acyclic = ext.acyclic();
  }

 private:
  // Memoize single-target worms (unicast fan-out relations re-prepare them
  // for thousands of instances); multi-target worms are nearly unique per
  // instance, so exploring them transiently avoids an unbounded cache.
  const WormGraph& lookup(const WormSpec& spec, WormKey key, WormGraph& local) {
    if (spec.targets.size() != 1) {
      local = explore(spec);
      return local;
    }
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    return memo_.emplace(std::move(key), explore(spec)).first->second;
  }

  [[nodiscard]] ChannelId vc_of(NodeId from, NodeId to, std::uint8_t copy) const {
    const ChannelId c = rel_->topology->channel(from, to);
    if (c == topo::kInvalidChannel) {
      throw std::logic_error("relation \"" + rel_->name + "\" hops over a non-channel: " +
                             std::to_string(from) + " -> " + std::to_string(to));
    }
    return virtual_channel_id(c, copy, rel_->channel_copies);
  }

  [[nodiscard]] WormGraph explore(const WormSpec& spec) const {
    WormGraph g;
    const std::uint32_t num_targets = static_cast<std::uint32_t>(spec.targets.size());
    const auto normalize = [&](std::uint32_t idx, NodeId node) {
      while (idx < num_targets && node == spec.targets[idx]) ++idx;
      return idx;
    };
    std::unordered_map<std::uint64_t, std::uint32_t> ids;
    const auto state_id = [&](std::uint32_t idx, NodeId node) {
      const std::uint64_t packed = static_cast<std::uint64_t>(idx) * n_ + node;
      const auto [it, inserted] = ids.emplace(packed, static_cast<std::uint32_t>(g.states.size()));
      if (inserted) {
        g.states.push_back({node, idx});
        g.terminal.push_back(idx >= num_targets);
        g.next.emplace_back();
      }
      return it->second;
    };
    g.initial = state_id(normalize(0, spec.source), spec.source);

    std::vector<RelationHop> hops;
    for (std::uint32_t s = 0; s < g.states.size(); ++s) {
      if (g.terminal[s]) continue;
      const NodeId node = g.states[s].node;
      const std::uint32_t idx = g.states[s].target_index;
      if (s == g.initial && spec.first_hop.has_value()) {
        // Injection honours the forced first hop, bypassing the relation.
        hops.assign(1, {*spec.first_hop, spec.first_hop_copy});
      } else {
        rel_->candidates(spec.channel_class, node, spec.targets[idx], hops);
      }
      if (hops.empty()) {
        ++g.stuck;
        continue;
      }
      for (const RelationHop& hop : hops) {
        const ChannelId vc = vc_of(node, hop.to, hop.copy);
        const std::uint32_t succ = state_id(normalize(idx, hop.to), hop.to);
        g.next[s].push_back({succ, vc});
      }
    }

    // CDG edges: a worm entering state s holding vc_in may next request any
    // of s's outgoing channels.
    std::vector<std::vector<ChannelId>> in_vcs(g.states.size());
    for (std::uint32_t s = 0; s < g.states.size(); ++s) {
      for (const auto& [succ, vc] : g.next[s]) in_vcs[succ].push_back(vc);
    }
    for (std::uint32_t s = 0; s < g.states.size(); ++s) {
      auto& ins = in_vcs[s];
      std::sort(ins.begin(), ins.end());
      ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
      for (const ChannelId in : ins) {
        for (const auto& [succ, out] : g.next[s]) {
          if (in != out) g.edges.emplace_back(in, out);
        }
      }
    }
    std::sort(g.edges.begin(), g.edges.end());
    g.edges.erase(std::unique(g.edges.begin(), g.edges.end()), g.edges.end());
    return g;
  }

  // Escape pass 1 over one unique worm: the escape hop must exist and be a
  // relation candidate at every reachable in-network non-terminal state
  // (the initial state holds no channels yet, so a worm blocked at
  // injection cannot sustain a deadlock), and escape-only walks must
  // terminate.  Escape channels are accumulated into the global set.
  void check_escape(const WormSpec& spec, const WormGraph& worm, EscapeReport& escape) {
    constexpr std::size_t kMaxFailures = 8;
    const auto fail = [&](const std::string& message) {
      if (escape.failures.size() < kMaxFailures) escape.failures.push_back(message);
    };
    constexpr std::uint32_t kNoSucc = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> esc_succ(worm.states.size(), kNoSucc);
    for (std::uint32_t s = 0; s < worm.states.size(); ++s) {
      if (worm.terminal[s] || s == worm.initial || worm.next[s].empty()) continue;
      const NodeId node = worm.states[s].node;
      const NodeId target = spec.targets[worm.states[s].target_index];
      const RelationHop hop = rel_->escape(spec.channel_class, node, target);
      if (hop.to == topo::kInvalidNode) {
        fail("escape undefined at node " + std::to_string(node) + " toward node " +
             std::to_string(target));
        continue;
      }
      const ChannelId vc = vc_of(node, hop.to, hop.copy);
      std::uint32_t succ = kNoSucc;
      for (const auto& [next_state, next_vc] : worm.next[s]) {
        if (next_vc == vc) {
          succ = next_state;
          break;
        }
      }
      if (succ == kNoSucc) {
        fail("escape hop " + std::to_string(node) + " -> " + std::to_string(hop.to) +
             " (copy " + std::to_string(hop.copy) + ") is not a relation candidate");
        continue;
      }
      esc_succ[s] = succ;
      add_escape_channel(vc);
    }
    // Escape-only walks form a functional graph over states; a revisit
    // means the escape subfunction alone cannot drain the worm.
    std::vector<std::uint8_t> color(worm.states.size(), 0);  // 0 new, 1 active, 2 done
    for (std::uint32_t s = 0; s < worm.states.size(); ++s) {
      std::uint32_t v = s;
      std::vector<std::uint32_t> trail;
      while (v != kNoSucc && color[v] == 0) {
        color[v] = 1;
        trail.push_back(v);
        v = esc_succ[v];
      }
      if (v != kNoSucc && color[v] == 1) {
        fail("escape walk does not terminate from node " +
             std::to_string(worm.states[v].node));
      }
      for (const std::uint32_t t : trail) color[t] = 2;
    }
  }

  void add_escape_channel(ChannelId vc) {
    if (escape_set_.empty()) escape_set_.assign(num_vcs_, false);
    if (!escape_set_[vc]) {
      escape_set_[vc] = true;
      ++escape_channels_;
    }
  }
  [[nodiscard]] bool in_escape_set(ChannelId vc) const {
    return !escape_set_.empty() && escape_set_[vc];
  }

  const RoutingRelation* rel_;
  std::uint32_t n_;
  std::uint32_t num_vcs_;
  std::map<WormKey, WormGraph> memo_;
  std::vector<bool> escape_set_;
  std::size_t escape_channels_ = 0;
};

// --- witness construction --------------------------------------------------

DeadlockWitness relation_witness(const RoutingRelation& rel,
                                 std::vector<MulticastRequest> instances,
                                 const TaggedCycle& cycle) {
  DeadlockWitness witness;
  witness.instances = std::move(instances);
  witness.cycle.reserve(cycle.vcs.size());
  for (const ChannelId vc : cycle.vcs) {
    witness.cycle.push_back({vc / rel.channel_copies,
                             static_cast<std::uint8_t>(vc % rel.channel_copies)});
  }
  witness.edge_instance.assign(cycle.edge_instance.begin(), cycle.edge_instance.end());
  // Adaptive relations fix no single route per worm, so no hold-state
  // reconstruction exists; relation witnesses stay over-approximate.
  witness.realizable = false;
  return witness;
}

DeadlockWitness shrink_relation_witness(const RoutingRelation& rel,
                                        std::vector<MulticastRequest> working) {
  // Phase 1: drop whole instances while the subset still cycles.
  for (std::size_t i = 0; i < working.size() && working.size() > 2;) {
    std::vector<MulticastRequest> trial = working;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    if (relation_subset_deadlocks(rel, trial)) {
      working = std::move(trial);
    } else {
      ++i;
    }
  }
  // Phase 2: delta-debug destination sets to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < working.size(); ++i) {
      for (std::size_t d = 0; d < working[i].destinations.size();) {
        if (working[i].destinations.size() <= 1) break;
        std::vector<MulticastRequest> trial = working;
        trial[i].destinations.erase(trial[i].destinations.begin() +
                                    static_cast<std::ptrdiff_t>(d));
        if (relation_subset_deadlocks(rel, trial)) {
          working = std::move(trial);
          changed = true;
        } else {
          ++d;
        }
      }
    }
  }
  RelationEngine engine(rel);
  const ChannelGraph graph = engine.build_cdg(working, nullptr);
  const auto cycle = find_multi_instance_cycle(graph);
  if (!cycle) {
    // Cannot happen (shrinking only keeps cycling subsets); stay safe.
    DeadlockWitness witness;
    witness.instances = std::move(working);
    return witness;
  }
  return relation_witness(rel, std::move(working), *cycle);
}

}  // namespace

bool relation_subset_deadlocks(const RoutingRelation& relation,
                               const std::vector<MulticastRequest>& instances) {
  RelationEngine engine(relation);
  const ChannelGraph graph = engine.build_cdg(instances, nullptr);
  return find_multi_instance_cycle(graph).has_value();
}

RelationReport analyze_relation(const RoutingRelation& relation, const AnalysisConfig& config) {
  const std::vector<MulticastRequest> instances =
      enumerate_instances(*relation.topology, config.max_set_size, config.max_instances);

  RelationReport report;
  report.instances_analyzed = instances.size();
  RelationEngine engine(relation);
  const ChannelGraph graph = engine.build_cdg(instances, &report);
  report.virtual_channels = graph.num_channels();
  report.dependencies = graph.num_dependencies();
  report.cdg_acyclic = graph.acyclic();
  if (relation.escape && report.escape.complete) {
    engine.close_extended_graph(instances, report.escape);
  }
  if (report.certified()) return report;

  const auto cycle = find_multi_instance_cycle(graph);
  if (!cycle) return report;
  // Seed the witness with the instances the cycle blames, remap the edge
  // assignment onto the seed, then shrink.
  std::vector<EdgeTag> distinct = cycle->edge_instance;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<MulticastRequest> seed;
  seed.reserve(distinct.size());
  for (const EdgeTag t : distinct) seed.push_back(instances[t]);
  TaggedCycle remapped = *cycle;
  for (EdgeTag& t : remapped.edge_instance) {
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), t);
    t = static_cast<EdgeTag>(it - distinct.begin());
  }
  if (config.shrink && relation_subset_deadlocks(relation, seed)) {
    report.witness = shrink_relation_witness(relation, std::move(seed));
  } else {
    report.witness = relation_witness(relation, std::move(seed), remapped);
  }
  return report;
}

// --- the shipped relations -------------------------------------------------

namespace {

std::vector<WormSpec> dual_path_worms(const ham::Labeling& labeling,
                                      const MulticastRequest& request) {
  const mcast::DualPathSplit split = mcast::dual_path_prepare(labeling, request);
  std::vector<WormSpec> worms;
  if (!split.high.empty()) {
    worms.push_back({mcast::kHighChannelClass, request.source, std::nullopt, 0, split.high});
  }
  if (!split.low.empty()) {
    worms.push_back({mcast::kLowChannelClass, request.source, std::nullopt, 0, split.low});
  }
  return worms;
}

std::vector<WormSpec> multi_path_worms(const MulticastRequest& request,
                                       mcast::MultiPathScratch& prepared) {
  std::vector<WormSpec> worms;
  worms.reserve(prepared.count);
  for (std::size_t i = 0; i < prepared.count; ++i) {
    mcast::MultiPathWorm& w = prepared.worms[i];
    worms.push_back({w.channel_class, request.source, w.first_hop, 0, std::move(w.targets)});
  }
  return worms;
}

std::vector<WormSpec> unicast_fanout_worms(const MulticastRequest& request) {
  std::vector<WormSpec> worms;
  worms.reserve(request.destinations.size());
  for (const NodeId d : request.destinations) {
    if (d == request.source) continue;
    worms.push_back({0, request.source, std::nullopt, 0, {d}});
  }
  return worms;
}

void minimal_candidates(const topo::Topology& topology, NodeId cur, NodeId target,
                        std::uint8_t copy, std::vector<RelationHop>& out) {
  const std::uint32_t dist = topology.distance(cur, target);
  for (const NodeId p : topology.neighbors(cur)) {
    if (topology.distance(p, target) < dist) out.push_back({p, copy});
  }
}

cdg::RoutingFunction dimension_order_escape(const Fixture& fixture) {
  if (fixture.mesh2d != nullptr) return cdg::xfirst_routing(*fixture.mesh2d);
  if (fixture.cube != nullptr) return cdg::ecube_routing(*fixture.cube);
  if (fixture.mesh3d != nullptr) return cdg::zfirst_routing(*fixture.mesh3d);
  if (fixture.kary != nullptr) return cdg::dimension_order_routing(*fixture.kary);
  throw std::invalid_argument("no dimension-order escape routing on " +
                              fixture.topology->name());
}

}  // namespace

std::vector<std::string> verifiable_relations(const Fixture& fixture) {
  if (fixture.labeling == nullptr) return {"min-adaptive", "min-adaptive-escape"};
  return {"adaptive-dual-path", "dual-path",    "multi-path",
          "fixed-path",         "min-adaptive", "min-adaptive-escape"};
}

RoutingRelation make_relation(const Fixture& fixture, const std::string& name) {
  RoutingRelation rel;
  rel.name = name;
  rel.topology = fixture.topology.get();
  const topo::Topology* topology = fixture.topology.get();
  const ham::Labeling* labeling = fixture.labeling.get();
  const auto require_labeling = [&] {
    if (labeling == nullptr) {
      throw std::invalid_argument("relation \"" + name + "\" needs a Hamiltonian labeling on " +
                                  fixture.topology->name());
    }
  };

  if (name == "adaptive-dual-path") {
    require_labeling();
    rel.prepare = [labeling](const MulticastRequest& r) { return dual_path_worms(*labeling, r); };
    rel.candidates = [topology, labeling](std::uint8_t, NodeId cur, NodeId target,
                                          std::vector<RelationHop>& out) {
      out.clear();
      for (const NodeId p : mcast::monotone_candidates(*topology, *labeling, cur, target)) {
        out.push_back({p, 0});
      }
    };
    const mcast::LabelRouter router(*topology, *labeling);
    rel.escape = [router](std::uint8_t, NodeId cur, NodeId target) -> RelationHop {
      return {router.next_hop(cur, target), 0};
    };
    return rel;
  }

  if (name == "dual-path" || name == "multi-path") {
    require_labeling();
    if (name == "dual-path") {
      rel.prepare = [labeling](const MulticastRequest& r) {
        return dual_path_worms(*labeling, r);
      };
    } else if (fixture.mesh2d != nullptr) {
      const topo::Mesh2D* mesh = fixture.mesh2d;
      const auto* mlab = static_cast<const ham::MeshBoustrophedonLabeling*>(labeling);
      rel.prepare = [mesh, mlab](const MulticastRequest& r) {
        mcast::MultiPathScratch s;
        mcast::multi_path_prepare(*mesh, *mlab, r, s);
        return multi_path_worms(r, s);
      };
    } else {
      rel.prepare = [topology, labeling](const MulticastRequest& r) {
        mcast::MultiPathScratch s;
        mcast::labeled_multi_path_prepare(*topology, *labeling, r, s);
        return multi_path_worms(r, s);
      };
    }
    const mcast::LabelRouter router(*topology, *labeling);
    rel.candidates = [router](std::uint8_t, NodeId cur, NodeId target,
                              std::vector<RelationHop>& out) {
      out.clear();
      const NodeId next = router.next_hop(cur, target);
      if (next != topo::kInvalidNode) out.push_back({next, 0});
    };
    return rel;
  }

  if (name == "fixed-path") {
    require_labeling();
    rel.prepare = [labeling](const MulticastRequest& r) { return dual_path_worms(*labeling, r); };
    rel.candidates = [labeling](std::uint8_t, NodeId cur, NodeId target,
                                std::vector<RelationHop>& out) {
      out.clear();
      const std::uint32_t lc = labeling->label(cur);
      const std::uint32_t lt = labeling->label(target);
      out.push_back({labeling->node_at(lt > lc ? lc + 1 : lc - 1), 0});
    };
    return rel;
  }

  if (name == "min-adaptive") {
    // Planted negative control: fully adaptive minimal routing with no
    // escape -- the classic turn/ring cycles deadlock every CI topology.
    rel.claimed_deadlock_free = false;
    rel.prepare = [](const MulticastRequest& r) { return unicast_fanout_worms(r); };
    rel.candidates = [topology](std::uint8_t, NodeId cur, NodeId target,
                                std::vector<RelationHop>& out) {
      out.clear();
      minimal_candidates(*topology, cur, target, 0, out);
    };
    return rel;
  }

  if (name == "min-adaptive-escape") {
    // Minimal adaptive routing on VC copy 1 with a dimension-order escape
    // pinned to copy 0: Duato-certifiable on the mesh-like topologies; on
    // wraparound rings the dimension-order escape itself cycles (the
    // classic torus counterexample), so the control flips to DEADLOCK.
    rel.channel_copies = 2;
    rel.claimed_deadlock_free = fixture.kary == nullptr || !fixture.kary->wraps();
    const cdg::RoutingFunction esc = dimension_order_escape(fixture);
    rel.prepare = [](const MulticastRequest& r) { return unicast_fanout_worms(r); };
    rel.candidates = [topology, esc](std::uint8_t, NodeId cur, NodeId target,
                                     std::vector<RelationHop>& out) {
      out.clear();
      const NodeId e = esc(cur, target);
      if (e != topo::kInvalidNode) out.push_back({e, 0});
      minimal_candidates(*topology, cur, target, 1, out);
    };
    rel.escape = [esc](std::uint8_t, NodeId cur, NodeId target) -> RelationHop {
      return {esc(cur, target), 0};
    };
    return rel;
  }

  throw std::invalid_argument("unknown relation \"" + name + "\"");
}

}  // namespace mcnet::analysis
