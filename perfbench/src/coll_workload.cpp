// Collective workload: back-to-back allreduce phases (closed loop) over
// GroupService / MulticastService on an 8x8 mesh, with a fault-aware,
// caching router and light seeded churn.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "alloc_counter.hpp"
#include "coll/collective.hpp"
#include "core/route_cache.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "fault/fault_router.hpp"
#include "service/churn.hpp"
#include "service/group_service.hpp"
#include "topology/mesh2d.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mcnet;

struct CollSpec {
  std::uint32_t group_size = 32;
  std::uint32_t chunks = 4;
  std::uint32_t phases = 300;
  /// Churn timeline scale: 1 spreads the five events over the first
  /// ~50 ms of simulated time (a full run lasts ~190 ms).
  double churn_scale = 1.0;
  /// Mean host s of one replication on the baseline machine (NOTES.md).
  double nominal_rep_s = 0.55;
};

/// Stream of the churn draws, apart from every stream the library derives.
constexpr std::uint64_t kChurnStream = 0x636875726eULL;

/// Light churn from `seed`: a member leaves and later rejoins, a new node
/// joins, and another member crashes and recovers before the detector's
/// suspicion floor (so the crash kills worms and bumps the fault epoch
/// twice, without an eviction).  Four view changes in all.
svc::ChurnSchedule make_churn(const std::vector<topo::NodeId>& members,
                              const std::vector<topo::NodeId>& outsiders, double scale,
                              std::uint64_t seed) {
  evsim::Rng rng(evsim::derive_seed(seed, kChurnStream));
  const auto pick = [&](const std::vector<topo::NodeId>& from) {
    // Index 0 is the coordinator; it stays put.
    return from[rng.uniform_int(1, static_cast<std::uint32_t>(from.size()) - 1)];
  };
  const topo::NodeId leaver = pick(members);
  topo::NodeId crasher = pick(members);
  while (crasher == leaver) crasher = pick(members);
  const topo::NodeId joiner = pick(outsiders);
  const double t_leave = scale * rng.uniform(2e-3, 8e-3);
  const double t_join = t_leave + scale * rng.uniform(5e-3, 15e-3);
  const double t_crash = t_join + scale * rng.uniform(5e-3, 15e-3);
  const double t_recover = t_crash + scale * rng.uniform(0.5e-3, 1.5e-3);
  const double t_rejoin = t_recover + scale * rng.uniform(5e-3, 10e-3);
  using Kind = svc::ChurnEvent::Kind;
  svc::ChurnSchedule schedule;
  schedule.events = {{t_leave, Kind::kLeave, leaver},
                     {t_join, Kind::kJoin, joiner},
                     {t_crash, Kind::kCrash, crasher},
                     {t_recover, Kind::kRecover, crasher},
                     {t_rejoin, Kind::kJoin, leaver}};
  return schedule;
}

/// One replication's objects, declared in construction order.  With a
/// probe, the algorithm router under the cache is a TimedRouter; the cache
/// itself must stay the FaultAwareRouter's direct inner router (that is
/// how fault epochs invalidate it), so it cannot be wrapped from outside.
struct Session {
  Session(const CollSpec& spec, std::uint64_t seed, LayerTotals* layers)
      : mesh(8, 8), faults(std::make_shared<fault::FaultState>(mesh)) {
    std::unique_ptr<mcast::Router> algorithm = mcast::make_router(mesh, mcast::Algorithm::kDualPath, 1);
    if (layers != nullptr) {
      algorithm = std::make_unique<TimedRouter>(std::move(algorithm), layers->stack,
                                                layers->algorithm, /*detailed=*/true);
    }
    router = std::make_unique<fault::FaultAwareRouter>(
        std::make_unique<mcast::CachingRouter>(std::move(algorithm)), faults);
    const worm::WormholeParams params{.flit_time = 50e-9, .message_flits = 128,
                                      .channel_copies = 1};
    service = std::make_unique<svc::MulticastService>(*router, params, sched);
    svc::GroupConfig cfg;
    cfg.heartbeat_period_s = 1e-3;
    cfg.sweep_period_s = 0.5e-3;
    cfg.suspicion_min_timeout_s = 5e-3;
    groups = std::make_unique<svc::GroupService>(*service, cfg);
    // Members on even node ids, outsiders on odd ones.
    std::vector<topo::NodeId> members;
    std::vector<topo::NodeId> outsiders;
    const std::uint32_t stride = mesh.num_nodes() / spec.group_size;
    for (std::uint32_t i = 0; i < spec.group_size; ++i) {
      members.push_back(i * stride);
      outsiders.push_back(i * stride + stride / 2);
    }
    group = groups->create_group(members);
    svc::schedule_churn(*groups, group, sched,
                        make_churn(members, outsiders, spec.churn_scale, seed));
    coll::CollConfig ccfg;
    ccfg.chunks = spec.chunks;
    collective = std::make_unique<coll::Collective>(*groups, group, ccfg);
  }

  topo::Mesh2D mesh;
  std::shared_ptr<fault::FaultState> faults;
  std::unique_ptr<fault::FaultAwareRouter> router;
  evsim::Scheduler sched;
  std::unique_ptr<svc::MulticastService> service;
  std::unique_ptr<svc::GroupService> groups;
  svc::GroupId group = 0;
  std::unique_ptr<coll::Collective> collective;
};

std::string digest(const Session& s) {
  const coll::Collective::Stats& cs = s.collective->stats();
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "phases=%llu deliveries=%llu sent=%llu reissued=%llu restarts=%llu "
                "voided=%llu double_applies=%llu views=%llu events=%llu sim=%s",
                static_cast<unsigned long long>(cs.phases_completed),
                static_cast<unsigned long long>(cs.chunks_delivered),
                static_cast<unsigned long long>(cs.chunks_sent),
                static_cast<unsigned long long>(cs.chunks_reissued),
                static_cast<unsigned long long>(cs.restarts),
                static_cast<unsigned long long>(cs.chunks_voided),
                static_cast<unsigned long long>(cs.double_applies),
                static_cast<unsigned long long>(s.groups->stats().view_installs),
                static_cast<unsigned long long>(s.sched.events_dispatched()),
                bits(s.sched.now()).c_str());
  return buf;
}

void check_session(const Session& s, std::uint32_t phases, RepOutcome& out) {
  const coll::Collective::Stats& cs = s.collective->stats();
  if (cs.phases_completed != phases) out.errors.push_back("not every phase completed");
  if (cs.double_applies != 0) out.errors.push_back("a contribution was applied twice");
  if (!s.sched.empty()) out.errors.push_back("events left after the drain");
  if (!s.service->network().idle()) out.errors.push_back("worms left after the drain");
  if (!s.service->network().find_deadlock().empty()) {
    out.errors.push_back("deadlock cycle in the network");
  }
}

class CollWorkload final : public Workload {
 public:
  explicit CollWorkload(CollSpec spec) : spec_(spec) {}

  [[nodiscard]] double nominal_rep_s() const override { return spec_.nominal_rep_s; }

  [[nodiscard]] double setup(std::uint64_t seed) override {
    const auto t0 = Clock::now();
    const Session s(spec_, seed, nullptr);
    return seconds_since(t0);
  }

  [[nodiscard]] RepOutcome run(std::uint64_t seed) override {
    RepOutcome out;
    try {
      Session s(spec_, seed, nullptr);

      const std::uint64_t allocs0 = allocations();
      const auto t0 = Clock::now();
      run_phases(s, nullptr);
      out.wall_s = seconds_since(t0);
      out.allocations = allocations() - allocs0;
      out.deliveries = s.collective->stats().chunks_delivered;
      out.digest = digest(s);
      check_session(s, spec_.phases, out);
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("exception: ") + e.what());
    }
    return out;
  }

  [[nodiscard]] RepOutcome run_traced(std::uint64_t seed, LayerTotals& layers) override {
    RepOutcome out;
    try {
      Session s(spec_, seed, &layers);
      const auto t0 = Clock::now();
      run_phases(s, &layers);
      out.wall_s = seconds_since(t0);
      out.deliveries = s.collective->stats().chunks_delivered;
      out.digest = digest(s);
      check_session(s, spec_.phases, out);

      const coll::Collective::Stats& cs = s.collective->stats();
      const svc::GroupService::Stats& gs = s.groups->stats();
      const worm::Network& net = s.service->network();
      const mcast::RouteCacheStats rc = s.router->cache()->stats();
      layers.cache_separable = false;
      layers.cache_hits += rc.hits;
      layers.cache_misses += rc.misses;
      layers.messages_injected += net.messages_injected();
      layers.messages_completed += net.messages_completed();
      layers.worms_killed += net.worms_killed();
      layers.blocked_sim_s += net.total_blocked_time();
      layers.utilization_sum += net.utilization();
      layers.events += s.sched.events_dispatched();
      layers.cancelled += s.sched.events_cancelled();
      layers.group_sends += gs.sends;
      layers.group_heartbeats += gs.heartbeats;
      layers.group_view_installs += gs.view_installs;
      layers.coll_phases += cs.phases_completed;
      layers.coll_chunks_sent += cs.chunks_sent;
      layers.coll_chunks_reissued += cs.chunks_reissued;
      layers.coll_restarts += cs.restarts;
      layers.deliveries += out.deliveries;
      layers.traced_wall_s += out.wall_s;
      layers.reps += 1;
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("exception: ") + e.what());
    }
    return out;
  }

 private:
  /// Closed loop: each phase starts when the previous one completes; after
  /// the last, the group's heartbeat and detector loops stop so the
  /// simulation drains.  With `layers`, allreduce starts are timed and the
  /// step loop is one span.
  void run_phases(Session& s, LayerTotals* layers) {
    std::uint32_t done = 0;
    std::function<void(const coll::PhaseResult&)> next;
    const auto start = [&] {
      if (layers == nullptr) {
        s.collective->allreduce(next);
      } else {
        const Span span(layers->stack, layers->coll_allreduce);
        s.collective->allreduce(next);
      }
    };
    next = [&](const coll::PhaseResult&) {
      if (++done < spec_.phases && s.groups->view(s.group).members.size() >= 2) {
        start();
      } else {
        s.groups->stop();
      }
    };
    start();
    if (layers == nullptr) {
      s.sched.run();
      return;
    }
    std::uint64_t peak_pending = s.sched.pending();
    std::uint64_t peak_backlog = 0;
    const worm::Network& net = s.service->network();
    const double nested0 = layers->stack.top_level_s;
    const auto loop0 = Clock::now();
    while (s.sched.step()) {
      peak_pending = std::max<std::uint64_t>(peak_pending, s.sched.pending());
      peak_backlog = std::max(peak_backlog, net.messages_injected() - net.messages_completed());
    }
    const double loop_s = seconds_since(loop0);
    layers->step_self.calls += 1;
    layers->step_self.seconds += loop_s - (layers->stack.top_level_s - nested0);
    layers->peak_pending = std::max(layers->peak_pending, peak_pending);
    layers->peak_backlog = std::max(layers->peak_backlog, peak_backlog);
  }

  CollSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_coll_allreduce(bool quick) {
  CollSpec spec;
  spec.phases = quick ? 30 : 300;
  spec.churn_scale = quick ? 0.2 : 1.0;
  return std::make_unique<CollWorkload>(spec);
}

}  // namespace perfbench
