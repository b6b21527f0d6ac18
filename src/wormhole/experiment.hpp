// Dynamic-experiment harness: wires topology + routing algorithm + traffic
// into one simulation run and collects latency statistics with the paper's
// batch-means stopping rule.  A small thread-pool map parallelises sweeps
// over independent parameter points.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "evsim/stats.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

namespace mcnet::obs {
class MetricsRegistry;
class EventTracer;
}  // namespace mcnet::obs

namespace mcnet::worm {

/// Invariants run_dynamic enforces (std::invalid_argument naming the
/// field): batch_size > 0; rel_precision finite and > 0; min_batches >= 2
/// (a CI needs two effective batches); max_sim_time_s finite and > 0;
/// max_messages >= target_messages.
struct DynamicConfig {
  WormholeParams params;
  TrafficConfig traffic;
  /// Stop once this many multicasts have completed and the latency CI has
  /// converged (saturated runs stop at the hard caps below).
  std::uint64_t target_messages = 2000;
  std::uint64_t max_messages = 8000;
  double max_sim_time_s = 0.5;
  std::uint32_t batch_size = 1000;  // per-delivery samples per batch
  double rel_precision = 0.05;
  std::uint32_t min_batches = 10;
  /// Optional observability: when set, the run's Network registers its
  /// counters/histograms here (thread-safe; sweeps may share one registry
  /// across parallel runs).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional event tracing: worm lifecycle and channel occupancy land in
  /// this tracer (one tracer per run -- tracers are not thread-safe).
  obs::EventTracer* tracer = nullptr;
};

/// Why a dynamic run stopped.
enum class Termination : std::uint8_t {
  kConverged,    // target reached and the latency CI met the stopping rule
  kMaxMessages,  // max_messages multicasts completed first
  kMaxSimTime,   // simulated time reached max_sim_time_s first
};

[[nodiscard]] const char* termination_name(Termination t);

struct DynamicResult {
  double mean_latency_us = 0.0;      // per-destination network latency
  /// 95 % CI half-width; quiet NaN when `ci_valid` is false (fewer than 2
  /// effective batches -- an unconverged or saturated run must not report
  /// a zero half-width and masquerade as perfectly precise).
  double ci_half_us = 0.0;
  bool ci_valid = false;
  double mean_completion_us = 0.0;   // whole-multicast completion latency
  std::uint64_t deliveries = 0;
  std::uint64_t messages_completed = 0;
  std::uint64_t messages_injected = 0;
  double sim_time_s = 0.0;
  /// Mean physical-channel utilisation over the run.
  double utilization = 0.0;
  /// Mean blocking time per completed message (us) -- the contention
  /// component of the Section 2.2 latency decomposition.
  double mean_blocking_us = 0.0;
  bool converged = false;
  Termination termination = Termination::kMaxSimTime;
  /// True when the run hit a hard cap with injections outpacing
  /// completions (the network is saturated at this load).
  bool saturated = false;
};

/// Run one dynamic experiment routed through `router` on its own topology.
[[nodiscard]] DynamicResult run_dynamic(const mcast::Router& router,
                                        const DynamicConfig& config);

/// Map `fn` over [0, n) on up to `threads` std::threads (independent
/// simulations only; results land in caller-provided storage inside `fn`).
/// `threads == 0` means one per hardware thread, falling back to 4 workers
/// when std::thread::hardware_concurrency() reports 0 (unknown).
///
/// Exception safety: if `fn` throws in a worker, the first exception is
/// captured, remaining indices are abandoned (workers drain without
/// calling `fn` again), every thread is joined, and the exception is
/// rethrown on the calling thread -- a throwing body no longer
/// std::terminate()s the process.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace mcnet::worm
