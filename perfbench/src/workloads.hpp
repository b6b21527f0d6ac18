// The benchmark's workloads.  A workload runs one replication per seed:
// an untraced run that the end-to-end metrics time, and a traced run,
// rebuilt from public calls with probes around every layer, that must
// reproduce the untraced run's digest bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

/// One replication's result.
struct RepOutcome {
  /// Exact simulated statistics; a speed-only change leaves it unchanged.
  std::string digest;
  /// Failed checks and caught exceptions (empty = the replication passed).
  std::vector<std::string> errors;
  double wall_s = 0.0;           // host s: the measured run
  std::uint64_t allocations = 0;  // heap allocations during the measured run
  std::uint64_t deliveries = 0;   // destination (or in-view chunk) deliveries
};

/// Per-layer totals accumulated over the traced replications.
struct LayerTotals {
  SpanStack stack;
  // evsim/stats
  Layer stats_add;
  Layer stats_converged;
  // core: `outer` is the whole router stack, `algorithm` the uncached router
  RouterProbe outer;
  RouterProbe algorithm;
  bool cache_separable = true;  // false when the cache cannot be wrapped from outside
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // wormhole
  Layer inject;  // untouched when the service calls inject itself
  std::uint64_t messages_injected = 0;
  std::uint64_t messages_completed = 0;
  std::uint64_t peak_backlog = 0;
  std::uint64_t worms_killed = 0;
  double blocked_sim_s = 0.0;
  double utilization_sum = 0.0;
  // evsim kernel
  Layer step_self;  // step-loop time minus the outermost probe spans inside it
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t peak_pending = 0;
  // service / coll
  std::uint64_t group_sends = 0;
  std::uint64_t group_heartbeats = 0;
  std::uint64_t group_view_installs = 0;
  std::uint64_t coll_phases = 0;
  std::uint64_t coll_chunks_sent = 0;
  std::uint64_t coll_chunks_reissued = 0;
  std::uint64_t coll_restarts = 0;
  Layer coll_allreduce;
  // whole replications
  std::uint64_t reps = 0;
  std::uint64_t deliveries = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Host seconds one replication takes on the reference machine; a run of
  /// --seconds S measures about S / nominal_rep_s() replications.
  [[nodiscard]] virtual double nominal_rep_s() const = 0;
  /// Build everything a replication needs before its first event
  /// (topology, labeling, router, cache, network; group and collective),
  /// tear it down, and return the host seconds the build took.
  [[nodiscard]] virtual double setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual RepOutcome run(std::uint64_t seed) = 0;
  [[nodiscard]] virtual RepOutcome run_traced(std::uint64_t seed, LayerTotals& layers) = 0;
};

/// `quick` shrinks every workload to a self-test size (digests differ
/// from the full-size references).
[[nodiscard]] std::unique_ptr<Workload> make_fig710_knee(bool quick);
[[nodiscard]] std::unique_ptr<Workload> make_mesh32_light(bool quick);
[[nodiscard]] std::unique_ptr<Workload> make_coll_allreduce(bool quick);

/// Double as exact hex bits, for digests.
[[nodiscard]] std::string bits(double v);

}  // namespace perfbench
