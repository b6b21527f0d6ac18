// Memoizing Router decorator: a bounded, sharded, mutex-protected LRU
// keyed on (source, sorted destination set).  Multicast routes are pure
// functions of the request on an immutable topology, so repeated-group
// dynamic traffic and parallel_for sweeps can reuse a route instead of
// recomputing it -- the destination-set persistence that minimum-cost
// multicast work exploits when connections outlive single packets.
//
// route() is thread-safe; hit/miss/eviction counters are exposed for
// observability.  Counters live inside the shards and stats() reads them
// with every shard lock held, so a concurrent sweep always sees one
// consistent (hits, misses, evictions) snapshot rather than a torn mix of
// before/after values.
//
// Entries hold a route payload (filled by route()/route_many()) and a plan
// payload (filled by plan()): the plan is stored compactly, 4 bytes per
// link, and each lookup kind hits only on its own payload, so route-only
// users see exactly the route cache they always had.  Nothing is allocated
// up front; once a shard is full, an insert reuses the evicted entry's
// storage.
//
// route_many() is the batch fast path: requests are deduped on raw
// identity first (identical requests inside a batch collapse onto one
// slot without even being canonicalized), survivors probe a thread-local
// direct-mapped route memo (an L1 over the sharded LRU: no lock, no key
// sort), and only memo misses are normalized into cache keys and grouped
// so each shard's mutex is taken once per batch instead of once per
// request.  Results land in one arena-backed RouteBatch instead of N
// pointer-heavy route copies.  Cache entries are shared_ptr-held, so memo
// references stay valid even after the LRU evicts the entry; clear()
// bumps a generation counter that invalidates every thread's memo.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/router.hpp"

namespace mcnet::obs {
class MetricsRegistry;
class Counter;
}  // namespace mcnet::obs

namespace mcnet::mcast {

struct RouteCacheConfig {
  /// Total cached routes across all shards.  Must be >= 1; CachingRouter
  /// rejects 0 with std::invalid_argument (an uncached router is spelled
  /// `make_router`, not a zero-capacity cache).
  std::size_t capacity = 4096;
  /// Independent mutex-protected LRU shards (reduces lock contention when
  /// many simulation threads share one router).  Must be >= 1; when shards
  /// exceeds capacity the shard count is clamped to capacity so every
  /// shard can hold at least one route.  The default of 8 was tuned with
  /// bench_route_throughput's shard sweep: contended multi-threaded
  /// lookups gain up to ~2x from 1 -> 8 shards and plateau beyond that,
  /// while the single-threaded batch path is shard-count-insensitive (one
  /// lock acquisition per shard per batch).
  std::size_t shards = 8;
};

struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// route_many() breakdown: unique-identity lookups served from a cache
  /// level / computed, and requests folded onto an identical request in
  /// the same batch (batch_hits + batch_misses + batch_dedup == requests
  /// routed through route_many).  Deduped requests never touch a shard,
  /// and batch_hits includes thread-local memo hits that bypass the
  /// shards entirely -- so the shard-level `hits` counter undercounts
  /// batch traffic relative to batch_hits by design.
  std::uint64_t batch_hits = 0;
  std::uint64_t batch_misses = 0;
  std::uint64_t batch_dedup = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class CachingRouter final : public Router {
 public:
  /// Throws std::invalid_argument when `inner` is null or `config` has a
  /// zero capacity or shard count.
  explicit CachingRouter(std::unique_ptr<Router> inner, RouteCacheConfig config = {});
  ~CachingRouter() override;

  /// Cached lookup; on a miss the inner router computes outside the shard
  /// lock.  Destination order does not affect the cache key, so permuted
  /// requests for the same multicast set share one entry.
  [[nodiscard]] MulticastRoute route(const MulticastRequest& request) const override;

  /// Batch lookup: intra-batch dedup on raw request identity, a lock-free
  /// thread-local memo in front of the shards, one shard-mutex
  /// acquisition per shard per batch for the rest, misses computed in one
  /// inner route_many call, results assembled arena-to-arena.
  /// Element i always equals route(requests[i]).
  [[nodiscard]] RouteBatch route_many(
      std::span<const MulticastRequest> requests) const override;

  /// Cached plan lookup under the same key and counters as route(): a hit
  /// decodes the entry's compact plan payload into `out`; a miss runs the
  /// inner router's plan() outside the shard lock and stores it.  The key
  /// lives in thread-local scratch and a full shard recycles its evicted
  /// entry's storage, so steady-state lookups allocate nothing.
  void plan(const MulticastRequest& request, worm::WormPlan& out) const override;

  [[nodiscard]] std::vector<worm::WormSpec> specs(const MulticastRoute& route) const override {
    return inner_->specs(route);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] Algorithm algorithm() const override { return inner_->algorithm(); }
  [[nodiscard]] bool deadlock_free() const override { return inner_->deadlock_free(); }
  [[nodiscard]] const topo::Topology& topology() const override { return inner_->topology(); }
  [[nodiscard]] std::uint8_t channel_copies() const override {
    return inner_->channel_copies();
  }

  /// Register live counters route_cache.hits / .misses / .evictions on
  /// `registry` (nullptr detaches).  Counters update as route() runs, so a
  /// registry dump mid-sweep sees current values; stats() stays the
  /// consistent-snapshot interface.
  void set_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] const Router& inner() const { return *inner_; }
  /// Consistent snapshot: all shard locks are held while the counters are
  /// summed, so hits/misses/evictions always belong to one point in time.
  [[nodiscard]] RouteCacheStats stats() const;
  /// Routes currently held across all shards (<= capacity()).
  [[nodiscard]] std::size_t size() const;
  /// The configured total capacity, exactly as passed in (per-shard budgets
  /// sum to it; no rounding to a shard multiple).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Effective shard count (config.shards clamped to capacity).
  [[nodiscard]] std::size_t shards() const { return num_shards_; }
  /// Drops every cached route and invalidates all thread-local batch
  /// memos (their entries carry the generation current at fill time).
  void clear();

 private:
  struct Shard;
  struct BatchCounters;

  std::unique_ptr<Router> inner_;
  std::size_t capacity_;
  std::size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<BatchCounters> batch_;
  /// Globally unique per (instance, clear() epoch): thread-local memo
  /// entries tagged with an older generation -- or one from a destroyed
  /// router that happened to reuse this address -- never match.
  std::atomic<std::uint64_t> generation_;
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
};

/// make_router(...) wrapped in a CachingRouter.
[[nodiscard]] std::unique_ptr<CachingRouter> make_caching_router(
    const topo::Topology& topology, Algorithm algorithm, std::uint8_t copies = 1,
    RouteCacheConfig config = {});

}  // namespace mcnet::mcast
