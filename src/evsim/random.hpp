// Deterministic random streams for workload generation.  Every experiment
// derives independent per-point / per-node streams from a base seed via
// SplitMix64, so runs are reproducible regardless of execution order.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "topology/topology.hpp"

namespace mcnet::evsim {

/// SplitMix64 step: decorrelates derived seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

/// Seed for stream `stream` derived from `base`.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  return splitmix64(base ^ splitmix64(stream + 0x9e3779b97f4a7c15ULL));
}

/// Convenience wrapper over mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint32_t uniform_int(std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(engine_);
  }
  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  /// Exponential with the given mean.
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// `k` distinct nodes drawn uniformly from [0, num_nodes) \ {source}, in
  /// random order (Robert Floyd's sampling followed by a shuffle).
  [[nodiscard]] std::vector<topo::NodeId> sample_destinations(std::uint32_t num_nodes,
                                                              topo::NodeId source,
                                                              std::uint32_t k);

  /// sample_destinations into `out` (replaced; its capacity is reused):
  /// the same draws and the same result, with Floyd's chosen set kept in a
  /// reused per-thread bitmap, so a warm call allocates nothing.
  void sample_destinations_into(std::uint32_t num_nodes, topo::NodeId source, std::uint32_t k,
                                std::vector<topo::NodeId>& out);

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mcnet::evsim
