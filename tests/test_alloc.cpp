// Steady-state heap allocations of a dynamic run.  A counting global
// operator new measures the marginal allocations per delivery between a
// short and a long run of the same seeded point, so one-time costs (the
// network, the event arena, worm slots, cache fill) cancel out and what
// remains is the per-message path: destination draw, routing, cache,
// injection, kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/route_cache.hpp"
#include "core/router.hpp"
#include "topology/mesh2d.hpp"
#include "wormhole/experiment.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  ++t_allocations;
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mcnet;

struct Measured {
  std::uint64_t allocations = 0;
  std::uint64_t deliveries = 0;
};

Measured measure(const mcast::Router& router, std::uint64_t messages) {
  worm::DynamicConfig cfg;
  cfg.params = {.flit_time = 50e-9, .message_flits = 128, .channel_copies = 1};
  cfg.traffic = {.mean_interarrival_s = 2e-3, .avg_destinations = 10, .seed = 5};
  cfg.target_messages = messages;
  cfg.max_messages = messages;
  cfg.max_sim_time_s = 100.0;
  cfg.rel_precision = 1e-9;  // never converges: both runs stop at max_messages
  const std::uint64_t before = t_allocations;
  const worm::DynamicResult r = worm::run_dynamic(router, cfg);
  return {t_allocations - before, r.deliveries};
}

/// Marginal heap allocations per delivery between a 2000- and an
/// 8000-message run, after a warm-up run (thread scratch, cache fill).
double steady_allocs_per_delivery(const mcast::Router& router) {
  (void)measure(router, 2000);
  const Measured short_run = measure(router, 2000);
  const Measured long_run = measure(router, 8000);
  EXPECT_GT(long_run.deliveries, short_run.deliveries + 40000);
  return static_cast<double>(long_run.allocations - short_run.allocations) /
         static_cast<double>(long_run.deliveries - short_run.deliveries);
}

TEST(AllocFree, DualPathRunIsAllocationFreePerMessage) {
  const topo::Mesh2D mesh(8, 8);
  const auto router = mcast::make_router(mesh, mcast::Algorithm::kDualPath);
  EXPECT_LT(steady_allocs_per_delivery(*router), 0.05);
}

TEST(AllocFree, FullRouteCacheRecyclesEntries) {
  // 256 entries fill within the first run; every later miss evicts and
  // reuses the evicted entry's storage.
  const topo::Mesh2D mesh(8, 8);
  const auto router = mcast::make_caching_router(mesh, mcast::Algorithm::kDualPath, 1,
                                                 {.capacity = 256, .shards = 4});
  EXPECT_LT(steady_allocs_per_delivery(*router), 0.05);
  EXPECT_EQ(router->size(), 256u);
  EXPECT_GT(router->stats().evictions, 0u);
}

}  // namespace
