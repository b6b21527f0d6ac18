#include "wormhole/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/router.hpp"
#include "evsim/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcnet::worm {

namespace {

void validate(const DynamicConfig& config) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("DynamicConfig." + what);
  };
  if (config.batch_size == 0) fail("batch_size must be positive");
  if (!std::isfinite(config.rel_precision) || config.rel_precision <= 0.0) {
    fail("rel_precision must be finite and > 0 (got " +
         std::to_string(config.rel_precision) + ")");
  }
  if (config.min_batches < 2) {
    fail("min_batches must be >= 2, a CI needs two effective batches (got " +
         std::to_string(config.min_batches) + ")");
  }
  if (!std::isfinite(config.max_sim_time_s) || config.max_sim_time_s <= 0.0) {
    fail("max_sim_time_s must be finite and > 0 (got " +
         std::to_string(config.max_sim_time_s) + ")");
  }
  if (config.max_messages < config.target_messages) {
    fail("max_messages (" + std::to_string(config.max_messages) +
         ") must be >= target_messages (" + std::to_string(config.target_messages) + ")");
  }
}

}  // namespace

const char* termination_name(Termination t) {
  switch (t) {
    case Termination::kConverged: return "converged";
    case Termination::kMaxMessages: return "max_messages";
    case Termination::kMaxSimTime: return "max_sim_time";
  }
  return "unknown";
}

DynamicResult run_dynamic(const mcast::Router& router, const DynamicConfig& config) {
  validate(config);
  evsim::Scheduler sched;
  Network network(router.topology(), config.params, sched);
  TrafficDriver driver(sched, network, config.traffic, router);
  network.set_metrics(config.metrics);

  evsim::BatchMeans latency(config.batch_size, /*discard=*/1);
  evsim::Summary completion;
  NetworkHooks hooks;
  hooks.on_delivery = [&](std::uint64_t, topo::NodeId, double l) { latency.add(l); };
  hooks.on_message_done = [&](std::uint64_t, double l) { completion.add(l); };
  if (config.tracer != nullptr) hooks = config.tracer->instrument(network, std::move(hooks));
  network.set_hooks(std::move(hooks));

  driver.start();
  // The generators reschedule forever, so the queue never drains and one
  // of the breaks below always sets the reason.
  Termination termination = Termination::kMaxSimTime;
  while (sched.step()) {
    // converged() is an O(1) read: BatchMeans refreshes its estimate only
    // when a batch closes.
    if (network.messages_completed() >= config.target_messages &&
        latency.converged(config.rel_precision, config.min_batches)) {
      termination = Termination::kConverged;
      break;
    }
    if (network.messages_completed() >= config.max_messages) {
      termination = Termination::kMaxMessages;
      break;
    }
    if (sched.now() >= config.max_sim_time_s) {
      termination = Termination::kMaxSimTime;
      break;
    }
  }
  driver.stop();

  DynamicResult result;
  result.mean_latency_us = latency.mean() * 1e6;
  result.ci_valid = latency.effective_batches() >= 2;
  result.ci_half_us = result.ci_valid ? latency.half_width() * 1e6
                                      : std::numeric_limits<double>::quiet_NaN();
  result.mean_completion_us = completion.mean() * 1e6;
  result.deliveries = latency.samples();
  result.messages_completed = network.messages_completed();
  result.messages_injected = network.messages_injected();
  result.sim_time_s = sched.now();
  result.utilization = network.utilization();
  result.mean_blocking_us =
      result.messages_completed > 0
          ? network.total_blocked_time() / static_cast<double>(result.messages_completed) * 1e6
          : 0.0;
  result.termination = termination;
  result.converged = termination == Termination::kConverged;
  result.saturated =
      !result.converged && result.messages_injected > 0 &&
      result.messages_completed * 10 < result.messages_injected * 9;  // >10 % backlog
  return result;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (threads == 0) {
    // hardware_concurrency() may legitimately report 0 (unknown); fall back
    // to a sane worker count instead of degenerating to a single thread.
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 4;
  }
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(n)));
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The first exception thrown by any worker wins; the rest of the work is
  // abandoned (an uncaught exception in a std::thread would terminate the
  // whole process).
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        if (failed.load(std::memory_order_acquire)) return;
        try {
          fn(i);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          failed.store(true, std::memory_order_release);
          return;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mcnet::worm
