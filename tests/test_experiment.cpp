// Dynamic-experiment harness integration tests.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "core/router.hpp"
#include "wormhole/experiment.hpp"

namespace {

using namespace mcnet;
using mcast::Algorithm;
using topo::Mesh2D;
using worm::DynamicConfig;
using worm::DynamicResult;

/// A light 4x4 run small enough to stop for any of the three reasons.
DynamicConfig small_config() {
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 16, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 200e-6,
                 .avg_destinations = 2,
                 .fixed_destinations = true,
                 .exponential_interarrival = false,
                 .seed = 3};
  cfg.target_messages = 200;
  cfg.max_messages = 800;
  cfg.max_sim_time_s = 1.0;
  cfg.batch_size = 20;
  return cfg;
}

DynamicResult run_small(const DynamicConfig& cfg) {
  const Mesh2D mesh(4, 4);
  return run_dynamic(*mcast::make_router(mesh, Algorithm::kDualPath, 1), cfg);
}

TEST(DynamicExperiment, LowLoadLatencyNearContentionFreeMinimum) {
  // At very light load the mean per-destination latency must sit close to
  // the contention-free value (distance + L - 1 flit times) and the run
  // must converge.
  const Mesh2D mesh(8, 8);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 10e-3,  // essentially no contention
                 .avg_destinations = 10,
                 .fixed_destinations = false,
                 .exponential_interarrival = false,
                 .seed = 11};
  cfg.target_messages = 400;
  cfg.max_messages = 2000;
  cfg.max_sim_time_s = 10.0;
  cfg.batch_size = 300;
  const DynamicResult r =
      run_dynamic(*mcast::make_router(mesh, Algorithm::kDualPath, 1), cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.deliveries, 1000u);
  // Floor: (min distance 1 + 127 flits) * 50 ns = 6.4 us; dual-path visits
  // up to ~tens of hops, so the mean must be in (6.4, ~25) us at no load.
  EXPECT_GT(r.mean_latency_us, 6.4);
  EXPECT_LT(r.mean_latency_us, 30.0);
}

TEST(DynamicExperiment, LatencyIncreasesWithLoad) {
  const Mesh2D mesh(8, 8);
  double prev = 0.0;
  for (const double interarrival : {5e-3, 400e-6, 150e-6}) {
    DynamicConfig cfg;
    cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
    cfg.traffic = {.mean_interarrival_s = interarrival,
                   .avg_destinations = 10,
                   .fixed_destinations = false,
                   .exponential_interarrival = false,
                   .seed = 13};
    cfg.target_messages = 600;
    cfg.max_messages = 3000;
    cfg.max_sim_time_s = 5.0;
    const DynamicResult r =
        run_dynamic(*mcast::make_router(mesh, Algorithm::kDualPath, 1), cfg);
    EXPECT_GT(r.mean_latency_us, prev) << "interarrival " << interarrival;
    prev = r.mean_latency_us;
  }
}

TEST(DynamicExperiment, DeterministicAcrossRuns) {
  const Mesh2D mesh(8, 8);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 500e-6,
                 .avg_destinations = 8,
                 .fixed_destinations = false,
                 .exponential_interarrival = false,
                 .seed = 17};
  cfg.target_messages = 300;
  cfg.max_messages = 600;
  cfg.max_sim_time_s = 2.0;
  const DynamicResult a =
      run_dynamic(*mcast::make_router(mesh, Algorithm::kMultiPath, 1), cfg);
  const DynamicResult b =
      run_dynamic(*mcast::make_router(mesh, Algorithm::kMultiPath, 1), cfg);
  EXPECT_DOUBLE_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.messages_completed, b.messages_completed);
}

TEST(DynamicExperiment, TreeOnDoubleChannelsCompletes) {
  // The double-channel X-first tree is deadlock-free: a dynamic run must
  // make progress and complete messages (Assertion 1 under load).
  const Mesh2D mesh(8, 8);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 2};
  cfg.traffic = {.mean_interarrival_s = 600e-6,
                 .avg_destinations = 10,
                 .fixed_destinations = false,
                 .exponential_interarrival = false,
                 .seed = 19};
  cfg.target_messages = 400;
  cfg.max_messages = 1500;
  cfg.max_sim_time_s = 2.0;
  const DynamicResult r =
      run_dynamic(*mcast::make_router(mesh, Algorithm::kDCXFirstTree, 2), cfg);
  EXPECT_GT(r.messages_completed, 300u);
  EXPECT_GT(r.mean_latency_us, 0.0);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  worm::parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Degenerate cases.
  worm::parallel_for(0, [](std::size_t) { FAIL(); }, 4);
  int calls = 0;
  worm::parallel_for(3, [&](std::size_t) { ++calls; }, 1);
  EXPECT_EQ(calls, 3);
}

TEST(ParallelFor, RethrowsWorkerExceptionInsteadOfTerminating) {
  // A throwing body used to escape into the worker thread and
  // std::terminate the whole process; now the first exception is rethrown
  // on the calling thread after every worker joined.
  EXPECT_THROW(
      worm::parallel_for(
          64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom at 13");
          },
          4),
      std::runtime_error);

  try {
    worm::parallel_for(
        8, [](std::size_t) { throw std::logic_error("always"); }, 2);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "always");
  }

  // Remaining indices are abandoned after the failure: with one worker the
  // iteration order is deterministic, so nothing past the throw runs.
  std::vector<int> visited;
  EXPECT_THROW(worm::parallel_for(
                   10,
                   [&](std::size_t i) {
                     if (i == 3) throw std::runtime_error("stop");
                     visited.push_back(static_cast<int>(i));
                   },
                   1),
               std::runtime_error);
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2}));
}

TEST(DynamicExperiment, TinyRunReportsInvalidConfidenceInterval) {
  const Mesh2D mesh(4, 4);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 16, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 200e-6,
                 .avg_destinations = 2,
                 .fixed_destinations = true,
                 .exponential_interarrival = false,
                 .seed = 3};
  // A handful of messages cannot fill two effective batches, so the CI is
  // meaningless -- it must be flagged invalid and NaN, never silently 0.
  cfg.target_messages = 4;
  cfg.max_messages = 4;
  cfg.max_sim_time_s = 0.5;
  cfg.batch_size = 1000;
  const DynamicResult r = run_dynamic(*mcast::make_router(mesh, Algorithm::kDualPath, 1), cfg);
  EXPECT_FALSE(r.ci_valid);
  EXPECT_TRUE(std::isnan(r.ci_half_us));
  EXPECT_GT(r.deliveries, 0u);
}

TEST(DynamicExperiment, LongRunReportsValidConfidenceInterval) {
  const DynamicResult r = run_small(small_config());
  EXPECT_TRUE(r.ci_valid);
  EXPECT_TRUE(std::isfinite(r.ci_half_us));
  EXPECT_GE(r.ci_half_us, 0.0);
}

TEST(DynamicExperiment, PinnedNearKneePointIsBitExact) {
  // A seeded 8x8 dual-path point that needs ~390 effective batches, far
  // more than min_batches, so the stopping rule is evaluated at every
  // batch close for thousands of messages.  Its latency, CI half-width,
  // stop time and message count are pinned to the bit: any change to the
  // batch-means arithmetic or to where the loop stops moves them.
  const Mesh2D mesh(8, 8);
  DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 400e-6,
                 .avg_destinations = 10,
                 .fixed_destinations = false,
                 .exponential_interarrival = true,
                 .seed = 29};
  cfg.target_messages = 300;
  cfg.max_messages = 20000;
  cfg.max_sim_time_s = 5.0;
  cfg.batch_size = 200;
  const DynamicResult r = run_dynamic(*mcast::make_router(mesh, Algorithm::kDualPath, 1), cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.termination, worm::Termination::kConverged);
  EXPECT_EQ(r.messages_completed, 7810u);
  EXPECT_EQ(r.deliveries, 78800u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean_latency_us), 0x4030b6d423d15ea2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ci_half_us), 0x3feab3c5c1378d7eu);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.sim_time_s), 0x3fa9285010bac5c2u);
}

TEST(DynamicExperiment, TerminationStatesWhyTheRunStopped) {
  DynamicConfig cfg = small_config();
  cfg.rel_precision = 0.5;  // met as soon as the target is reached
  DynamicResult r = run_small(cfg);
  EXPECT_EQ(r.termination, worm::Termination::kConverged);
  EXPECT_TRUE(r.converged);
  EXPECT_STREQ(worm::termination_name(r.termination), "converged");

  cfg = small_config();
  cfg.rel_precision = 1e-9;  // never met
  r = run_small(cfg);
  EXPECT_EQ(r.termination, worm::Termination::kMaxMessages);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.messages_completed, cfg.max_messages);
  EXPECT_STREQ(worm::termination_name(r.termination), "max_messages");

  cfg = small_config();
  cfg.rel_precision = 1e-9;
  cfg.max_sim_time_s = 1e-3;  // a handful of arrivals per node
  r = run_small(cfg);
  EXPECT_EQ(r.termination, worm::Termination::kMaxSimTime);
  EXPECT_FALSE(r.converged);
  EXPECT_LT(r.messages_completed, cfg.max_messages);
  EXPECT_GE(r.sim_time_s, cfg.max_sim_time_s);
  EXPECT_STREQ(worm::termination_name(r.termination), "max_sim_time");
}

/// run_dynamic must reject `cfg` before simulating, naming `field`.
void expect_rejected(const DynamicConfig& cfg, const std::string& field) {
  try {
    (void)run_small(cfg);
    FAIL() << "expected invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DynamicConfig." + field), std::string::npos)
        << e.what();
  }
}

TEST(DynamicConfigValidation, RejectsZeroBatchSize) {
  DynamicConfig cfg = small_config();
  cfg.batch_size = 0;
  expect_rejected(cfg, "batch_size");
}

TEST(DynamicConfigValidation, RejectsNonPositiveOrNonFiniteRelPrecision) {
  for (const double bad : {0.0, -0.05, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    DynamicConfig cfg = small_config();
    cfg.rel_precision = bad;
    expect_rejected(cfg, "rel_precision");
  }
}

TEST(DynamicConfigValidation, RejectsFewerThanTwoMinBatches) {
  for (const std::uint32_t bad : {0u, 1u}) {
    DynamicConfig cfg = small_config();
    cfg.min_batches = bad;
    expect_rejected(cfg, "min_batches");
  }
  DynamicConfig cfg = small_config();
  cfg.min_batches = 2;
  EXPECT_NO_THROW((void)run_small(cfg));
}

TEST(DynamicConfigValidation, RejectsNonPositiveOrNonFiniteMaxSimTime) {
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    DynamicConfig cfg = small_config();
    cfg.max_sim_time_s = bad;
    expect_rejected(cfg, "max_sim_time_s");
  }
}

TEST(DynamicConfigValidation, RejectsMaxMessagesBelowTarget) {
  DynamicConfig cfg = small_config();
  cfg.max_messages = cfg.target_messages - 1;
  expect_rejected(cfg, "max_messages");
  cfg.max_messages = cfg.target_messages;
  EXPECT_NO_THROW((void)run_small(cfg));
}

}  // namespace
