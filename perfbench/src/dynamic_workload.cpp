// Dynamic flit-level workloads (Chapter 7): open-loop uniform traffic on a
// 2-D mesh, stopped by the paper's batch-means rule via worm::run_dynamic.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>

#include "alloc_counter.hpp"
#include "core/route_cache.hpp"
#include "evsim/random.hpp"
#include "evsim/scheduler.hpp"
#include "evsim/stats.hpp"
#include "topology/mesh2d.hpp"
#include "workloads.hpp"
#include "wormhole/experiment.hpp"

namespace perfbench {

namespace {

using namespace mcnet;

struct DynamicSpec {
  std::uint32_t side = 8;
  mcast::Algorithm algorithm = mcast::Algorithm::kDualPath;
  double interarrival_s = 300e-6;
  std::uint32_t avg_destinations = 10;
  std::uint64_t target_messages = 2000;
  std::uint64_t max_messages = 8000;
  double max_sim_time_s = 0.5;
  /// Mean host s of one replication on the baseline machine (NOTES.md).
  double nominal_rep_s = 1.0;
};

worm::DynamicConfig make_config(const DynamicSpec& spec, std::uint64_t seed) {
  worm::DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = spec.interarrival_s,
                 .avg_destinations = spec.avg_destinations,
                 .seed = seed};
  cfg.target_messages = spec.target_messages;
  cfg.max_messages = spec.max_messages;
  cfg.max_sim_time_s = spec.max_sim_time_s;
  return cfg;
}

std::string digest(const worm::DynamicResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "lat=%s ci=%s deliveries=%llu completed=%llu injected=%llu sim=%s",
                bits(r.mean_latency_us).c_str(), bits(r.ci_half_us).c_str(),
                static_cast<unsigned long long>(r.deliveries),
                static_cast<unsigned long long>(r.messages_completed),
                static_cast<unsigned long long>(r.messages_injected),
                bits(r.sim_time_s).c_str());
  return buf;
}

void check_result(const worm::DynamicResult& r, RepOutcome& out) {
  if (!r.converged) out.errors.push_back("stopped at a cap before the CI converged");
  if (r.saturated) out.errors.push_back("saturated");
  if (!r.ci_valid) out.errors.push_back("CI invalid");
  if (r.deliveries == 0) out.errors.push_back("no deliveries");
}

/// The generator of worm::TrafficDriver (route_batch = 1), rebuilt from
/// public calls so that route, specs and inject can each be timed: the
/// same per-node derive_seed streams, draws and scheduling order.
class TracedDriver {
 public:
  TracedDriver(evsim::Scheduler& sched, worm::Network& network, const worm::TrafficConfig& config,
               const mcast::Router& router, LayerTotals& layers)
      : sched_(sched), network_(network), config_(config), router_(router), layers_(layers) {
    const std::uint32_t n = network.topology().num_nodes();
    rngs_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) rngs_.emplace_back(evsim::derive_seed(config.seed, i));
  }

  void start() {
    for (topo::NodeId node = 0; node < network_.topology().num_nodes(); ++node) {
      sched_.schedule_in(next_gap(rngs_[node]), [this, node] { arrival(node); });
    }
  }
  void stop() { stopped_ = true; }

 private:
  double next_gap(evsim::Rng& rng) {
    return config_.exponential_interarrival
               ? rng.exponential(config_.mean_interarrival_s)
               : rng.uniform(0.0, 2.0 * config_.mean_interarrival_s);
  }

  void arrival(topo::NodeId node) {
    if (stopped_) return;
    evsim::Rng& rng = rngs_[node];
    const std::uint32_t num_nodes = network_.topology().num_nodes();
    std::uint32_t k = config_.fixed_destinations
                          ? config_.avg_destinations
                          : rng.uniform_int(1, 2 * config_.avg_destinations - 1);
    k = std::min(k, num_nodes - 1);
    const std::vector<topo::NodeId> dests = rng.sample_destinations(num_nodes, node, k);
    const mcast::MulticastRoute route = router_.route(mcast::MulticastRequest{node, dests});
    std::vector<worm::WormSpec> specs = router_.specs(route);
    {
      const Span span(layers_.stack, layers_.inject);
      network_.inject(std::move(specs));
    }
    sched_.schedule_in(next_gap(rng), [this, node] { arrival(node); });
  }

  evsim::Scheduler& sched_;
  worm::Network& network_;
  const worm::TrafficConfig& config_;
  const mcast::Router& router_;
  LayerTotals& layers_;
  std::vector<evsim::Rng> rngs_;
  bool stopped_ = false;
};

class DynamicWorkload final : public Workload {
 public:
  explicit DynamicWorkload(DynamicSpec spec) : spec_(spec) {}

  [[nodiscard]] double nominal_rep_s() const override { return spec_.nominal_rep_s; }

  [[nodiscard]] double setup(std::uint64_t seed) override {
    const worm::DynamicConfig cfg = make_config(spec_, seed);
    const auto t0 = Clock::now();
    const topo::Mesh2D mesh(spec_.side, spec_.side);
    const auto router = mcast::make_caching_router(mesh, spec_.algorithm, 1);
    evsim::Scheduler sched;
    const worm::Network network(mesh, cfg.params, sched);
    return seconds_since(t0);
  }

  [[nodiscard]] RepOutcome run(std::uint64_t seed) override {
    RepOutcome out;
    try {
      const worm::DynamicConfig cfg = make_config(spec_, seed);
      const topo::Mesh2D mesh(spec_.side, spec_.side);
      const auto router = mcast::make_caching_router(mesh, spec_.algorithm, 1);
      // The measured run includes the scheduler and network that
      // run_dynamic builds for itself.
      const std::uint64_t allocs0 = allocations();
      const auto t0 = Clock::now();
      const worm::DynamicResult r = worm::run_dynamic(*router, cfg);
      out.wall_s = seconds_since(t0);
      out.allocations = allocations() - allocs0;
      out.deliveries = r.deliveries;
      out.digest = digest(r);
      check_result(r, out);
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("exception: ") + e.what());
    }
    return out;
  }

  [[nodiscard]] RepOutcome run_traced(std::uint64_t seed, LayerTotals& layers) override {
    RepOutcome out;
    try {
      const worm::DynamicConfig cfg = make_config(spec_, seed);
      const topo::Mesh2D mesh(spec_.side, spec_.side);
      // Stack: timed(cache(timed(algorithm))).  The outer probe times the
      // whole routing layer, the inner one the algorithm alone (cache
      // misses), so cache self time = outer - inner.
      auto algorithm = std::make_unique<TimedRouter>(mcast::make_router(mesh, spec_.algorithm, 1),
                                                     layers.stack, layers.algorithm,
                                                     /*detailed=*/true);
      auto cache = std::make_unique<mcast::CachingRouter>(std::move(algorithm));
      const mcast::CachingRouter& cache_ref = *cache;
      const TimedRouter router(std::move(cache), layers.stack, layers.outer, /*detailed=*/false);

      const auto t0 = Clock::now();
      // The body of run_dynamic, step for step.
      evsim::Scheduler sched;
      worm::Network network(mesh, cfg.params, sched);
      TracedDriver driver(sched, network, cfg.traffic, router, layers);
      evsim::BatchMeans latency(cfg.batch_size, /*discard=*/1);
      evsim::Summary completion;
      worm::NetworkHooks hooks;
      hooks.on_delivery = [&](std::uint64_t, topo::NodeId, double l) {
        const Span span(layers.stack, layers.stats_add);
        latency.add(l);
      };
      hooks.on_message_done = [&](std::uint64_t, double l) { completion.add(l); };
      network.set_hooks(std::move(hooks));

      driver.start();
      std::uint64_t peak_pending = sched.pending();
      std::uint64_t peak_backlog = 0;
      bool converged = false;
      const double nested0 = layers.stack.top_level_s;
      const auto loop0 = Clock::now();
      while (sched.step()) {
        peak_pending = std::max<std::uint64_t>(peak_pending, sched.pending());
        peak_backlog = std::max(peak_backlog,
                                network.messages_injected() - network.messages_completed());
        if (network.messages_completed() >= cfg.target_messages) {
          bool done = false;
          {
            const Span span(layers.stack, layers.stats_converged);
            done = latency.converged(cfg.rel_precision, cfg.min_batches);
          }
          if (done) {
            converged = true;
            break;
          }
        }
        if (network.messages_completed() >= cfg.max_messages ||
            sched.now() >= cfg.max_sim_time_s) {
          break;
        }
      }
      const double loop_s = seconds_since(loop0);
      driver.stop();
      // The step loop is one span; its self time excludes the outermost
      // probe spans opened inside it.
      layers.step_self.calls += 1;
      layers.step_self.seconds += loop_s - (layers.stack.top_level_s - nested0);

      worm::DynamicResult r;
      r.mean_latency_us = latency.mean() * 1e6;
      r.ci_valid = latency.effective_batches() >= 2;
      r.ci_half_us = r.ci_valid ? latency.half_width() * 1e6
                                : std::numeric_limits<double>::quiet_NaN();
      r.deliveries = latency.samples();
      r.messages_completed = network.messages_completed();
      r.messages_injected = network.messages_injected();
      r.sim_time_s = sched.now();
      r.converged = converged;
      r.saturated = !converged && r.messages_injected > 0 &&
                    r.messages_completed * 10 < r.messages_injected * 9;
      out.wall_s = seconds_since(t0);
      out.deliveries = r.deliveries;
      out.digest = digest(r);
      check_result(r, out);
      // Fault-free run: nothing dropped or killed, and no wait-for cycle.
      if (network.deliveries_dropped() != 0) out.errors.push_back("deliveries dropped");
      if (network.worms_killed() != 0) out.errors.push_back("worms killed");
      if (!network.find_deadlock().empty()) out.errors.push_back("deadlock cycle in the network");

      const mcast::RouteCacheStats cs = cache_ref.stats();
      layers.cache_hits += cs.hits;
      layers.cache_misses += cs.misses;
      layers.messages_injected += r.messages_injected;
      layers.messages_completed += r.messages_completed;
      layers.peak_backlog = std::max(layers.peak_backlog, peak_backlog);
      layers.peak_pending = std::max(layers.peak_pending, peak_pending);
      layers.worms_killed += network.worms_killed();
      layers.blocked_sim_s += network.total_blocked_time();
      layers.utilization_sum += network.utilization();
      layers.events += sched.events_dispatched();
      layers.cancelled += sched.events_cancelled();
      layers.deliveries += r.deliveries;
      layers.traced_wall_s += out.wall_s;
      layers.reps += 1;
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("exception: ") + e.what());
    }
    return out;
  }

 private:
  DynamicSpec spec_;
};

}  // namespace

std::string bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

std::unique_ptr<Workload> make_fig710_knee(bool quick) {
  // Fig. 7.10's single-channel 8x8 mesh with dual-path routing, just short
  // of saturation: heavy contention and a CI that converges slowly, so the
  // stopping rule is tested after every event for tens of thousands of
  // messages.  (At the figure's 300 us point the CI is still wider than
  // 5 % after 60k messages, so a run there ends at a cap.)
  DynamicSpec spec;
  spec.side = 8;
  spec.algorithm = mcast::Algorithm::kDualPath;
  spec.interarrival_s = quick ? 500e-6 : 350e-6;
  spec.target_messages = 2000;
  spec.max_messages = 200000;
  spec.max_sim_time_s = 2.0;
  spec.nominal_rep_s = 0.42;
  return std::make_unique<DynamicWorkload>(spec);
}

std::unique_ptr<Workload> make_mesh32_light(bool quick) {
  // Unsaturated 32x32 mesh with multi-path routing: latency stays at its
  // zero-load value and the rule is met at its first check, so the run is
  // the per-message path (route, specs, inject, kernel, network advance).
  DynamicSpec spec;
  spec.side = 32;
  spec.algorithm = mcast::Algorithm::kMultiPath;
  spec.interarrival_s = 10e-3;
  spec.target_messages = quick ? 2000 : 20000;
  spec.max_messages = spec.target_messages * 4;
  spec.max_sim_time_s = 5.0;
  spec.nominal_rep_s = 0.35;
  return std::make_unique<DynamicWorkload>(spec);
}

}  // namespace perfbench
