#include "core/route_cache.hpp"

#include <algorithm>
#include <list>
#include <iterator>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace mcnet::mcast {

namespace {

/// Cache key: [source, sorted destinations...].
using Key = std::vector<topo::NodeId>;

struct KeyHash {
  std::size_t operator()(const Key& key) const {
    // FNV-1a over the node ids.
    std::uint64_t h = 1469598103934665603ull;
    for (const topo::NodeId id : key) {
      h ^= id;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Map key referring to a Key stored elsewhere: an entry's own key, or the
/// probe of a lookup.
struct KeyRef {
  const Key* key;
};
struct KeyRefHash {
  std::size_t operator()(KeyRef ref) const { return KeyHash{}(*ref.key); }
};
struct KeyRefEqual {
  bool operator()(KeyRef a, KeyRef b) const { return *a.key == *b.key; }
};

Key make_key(const MulticastRequest& request) {
  Key key;
  key.reserve(request.destinations.size() + 1);
  key.push_back(request.source);
  key.insert(key.end(), request.destinations.begin(), request.destinations.end());
  std::sort(key.begin() + 1, key.end());
  // Dedupe so requests carrying duplicate destinations share the entry of
  // their normalised form (the inner router dedupes before routing).
  key.erase(std::unique(key.begin() + 1, key.end()), key.end());
  return key;
}

/// make_key into a reused buffer (the batch path's allocation-free variant).
void make_key_into(const MulticastRequest& request, Key& key) {
  key.clear();
  key.reserve(request.destinations.size() + 1);
  key.push_back(request.source);
  key.insert(key.end(), request.destinations.begin(), request.destinations.end());
  std::sort(key.begin() + 1, key.end());
  key.erase(std::unique(key.begin() + 1, key.end()), key.end());
}

/// FNV-1a over a request as-is (source, destinations in request order) --
/// the batch dedup identity, cheaper than canonicalising because it needs
/// no sort.
std::uint64_t raw_hash(const MulticastRequest& request) {
  std::uint64_t h = 1469598103934665603ull;
  h ^= request.source;
  h *= 1099511628211ull;
  for (const topo::NodeId id : request.destinations) {
    h ^= id;
    h *= 1099511628211ull;
  }
  return h;
}

bool raw_equal(const MulticastRequest& a, const MulticastRequest& b) {
  return a.source == b.source && a.destinations == b.destinations;
}

/// Monotonic source for CachingRouter generations: every constructed
/// router and every clear() gets a value no other (router, epoch) pair
/// ever had, which is what lets thread-local memo entries be validated
/// with a single integer compare.
std::atomic<std::uint64_t> g_generation{0};

/// Thread-local L1 in front of the sharded LRU, used only by route_many.
/// Direct-mapped on the raw request hash: a probe is an array index, an
/// integer tag check and a destination compare -- no lock, no key sort,
/// no map.  Entries pin their route via shared_ptr, so they stay valid
/// even after the owning shard evicts (or clear()s) the LRU entry; the
/// generation tag keeps stale routers/epochs from ever matching.
struct RouteMemo {
  struct Entry {
    std::uint64_t generation = 0;  // 0 = empty (g_generation starts at 1)
    std::uint64_t hash = 0;
    topo::NodeId source = 0;
    std::vector<topo::NodeId> destinations;
    std::shared_ptr<const MulticastRoute> route;
  };
  static constexpr std::size_t kSlots = 4096;  // power of two, ~hot-set sized

  std::vector<Entry> entries = std::vector<Entry>(kSlots);

  Entry& slot(std::uint64_t hash) { return entries[hash & (kSlots - 1)]; }

  [[nodiscard]] const std::shared_ptr<const MulticastRoute>* find(
      std::uint64_t generation, std::uint64_t hash, const MulticastRequest& request) {
    const Entry& e = slot(hash);
    if (e.generation == generation && e.hash == hash && e.source == request.source &&
        e.destinations == request.destinations) {
      return &e.route;
    }
    return nullptr;
  }

  void store(std::uint64_t generation, std::uint64_t hash, const MulticastRequest& request,
             std::shared_ptr<const MulticastRoute> route) {
    Entry& e = slot(hash);  // direct-mapped: conflicts simply overwrite
    e.generation = generation;
    e.hash = hash;
    e.source = request.source;
    e.destinations.assign(request.destinations.begin(), request.destinations.end());
    e.route = std::move(route);
  }
};

/// Reusable per-thread state for CachingRouter::route_many.  Everything is
/// cleared (not deallocated) between batches, so the steady-state batch
/// path performs no heap allocation for dedup, keying or grouping -- which
/// is where the batch speedup over the scalar loop comes from.
struct BatchWorkspace {
  /// One entry per distinct raw request in the batch.
  struct Slot {
    std::uint32_t first_request = 0;  // index of the first request with this identity
    std::uint32_t shard = 0;
    std::uint32_t key_begin = 0;  // canonical-key span into key_arena
    std::uint32_t key_count = 0;
    std::uint64_t hash = 0;       // raw identity hash
    std::int32_t miss = -1;       // element index in the inner batch when not cached
    std::shared_ptr<const MulticastRoute> route;  // set on a cache hit
  };

  std::vector<Slot> slots;
  std::vector<topo::NodeId> key_arena;     // concatenated canonical keys
  std::vector<std::uint32_t> table;        // open addressing: slot index + 1, 0 = empty
  std::vector<std::uint32_t> slot_of;      // per request
  std::vector<std::uint32_t> pending;      // slots the memo could not resolve
  std::vector<std::uint32_t> shard_order;  // pending slots grouped by shard
  std::vector<std::uint32_t> shard_begin;  // per shard: offset into shard_order
  std::vector<std::uint32_t> cursor;
  std::vector<std::uint32_t> miss_slots;
  std::vector<MulticastRequest> miss_requests;
  Key probe;
  bool in_use = false;
};

// Compact cache payload of a worm::WormPlan, one flat array of 32-bit
// words, so a cached plan costs 4 bytes per link instead of a 12-byte
// PlanLink (or a 20-byte WormLink):
//   [worms], then per worm [links, deliveries, shape], channels[links],
//   depths[links] unless the worm is path-shaped (shape bit 0: link i has
//   depth i + 1), copy bytes packed four to a word unless every link pins
//   the same copy (shape bit 1, the copy in bits 8-15), and per delivery
//   the index of the link that reaches the destination: its depth and head
//   node give the delivery back.
constexpr std::uint32_t kPathDepths = 1;
constexpr std::uint32_t kUniformCopy = 2;

/// Index of the link of `links` at the delivery's depth whose head is the
/// delivered node.  Every plan of a route has one (route_to_plan delivers
/// through the link that enters the destination).
std::uint32_t delivering_link(const topo::Topology& topology,
                              std::span<const worm::PlanLink> links, bool path_depths,
                              const worm::Delivery& delivery) {
  const auto heads_at = [&](std::size_t i) {
    return links[i].depth == delivery.first &&
           topology.channel_ends(links[i].channel).to == delivery.second;
  };
  if (path_depths && delivery.first >= 1 && delivery.first <= links.size() &&
      heads_at(delivery.first - 1)) {
    return delivery.first - 1;
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (heads_at(i)) return static_cast<std::uint32_t>(i);
  }
  throw std::logic_error("plan delivers to a node no link of the worm enters");
}

void encode_plan(const worm::WormPlan& plan, const topo::Topology& topology,
                 std::vector<std::uint32_t>& out) {
  out.clear();
  out.push_back(static_cast<std::uint32_t>(plan.size()));
  for (std::size_t w = 0; w < plan.size(); ++w) {
    const std::span<const worm::PlanLink> links = plan.links(w);
    const std::span<const worm::Delivery> deliveries = plan.deliveries(w);
    std::uint32_t shape = kPathDepths | kUniformCopy;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (links[i].depth != i + 1) shape &= ~kPathDepths;
      if (links[i].copy != links.front().copy) shape &= ~kUniformCopy;
    }
    if (!links.empty()) {
      shape |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(links.front().copy)) << 8;
    }
    out.push_back(static_cast<std::uint32_t>(links.size()));
    out.push_back(static_cast<std::uint32_t>(deliveries.size()));
    out.push_back(shape);
    for (const worm::PlanLink& l : links) out.push_back(l.channel);
    if ((shape & kPathDepths) == 0) {
      for (const worm::PlanLink& l : links) out.push_back(l.depth);
    }
    if ((shape & kUniformCopy) == 0) {
      for (std::size_t i = 0; i < links.size(); i += 4) {
        std::uint32_t word = 0;
        for (std::size_t b = 0; b < 4 && i + b < links.size(); ++b) {
          word |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(links[i + b].copy))
                  << (8 * b);
        }
        out.push_back(word);
      }
    }
    for (const worm::Delivery& d : deliveries) {
      out.push_back(delivering_link(topology, links, (shape & kPathDepths) != 0, d));
    }
  }
}

void decode_plan(const std::vector<std::uint32_t>& in, const topo::Topology& topology,
                 worm::WormPlan& out) {
  out.clear();
  std::size_t i = 0;
  const std::uint32_t worms = in[i++];
  for (std::uint32_t w = 0; w < worms; ++w) {
    const std::uint32_t num_links = in[i++];
    const std::uint32_t num_deliveries = in[i++];
    const std::uint32_t shape = in[i++];
    const std::uint32_t* channels = in.data() + i;
    i += num_links;
    const std::uint32_t* depths = nullptr;
    if ((shape & kPathDepths) == 0) {
      depths = in.data() + i;
      i += num_links;
    }
    const std::uint32_t* copies = nullptr;
    if ((shape & kUniformCopy) == 0) {
      copies = in.data() + i;
      i += (num_links + 3) / 4;
    }
    const auto depth_of = [&](std::uint32_t k) { return depths != nullptr ? depths[k] : k + 1; };
    for (std::uint32_t k = 0; k < num_links; ++k) {
      const std::uint32_t copy_byte =
          copies != nullptr ? (copies[k / 4] >> (8 * (k % 4))) & 0xFF : (shape >> 8) & 0xFF;
      out.add_link(channels[k], depth_of(k),
                   static_cast<std::int8_t>(static_cast<std::uint8_t>(copy_byte)));
    }
    for (std::uint32_t d = 0; d < num_deliveries; ++d) {
      const std::uint32_t k = in[i++];
      out.add_delivery(depth_of(k), topology.channel_ends(channels[k]).to);
    }
    out.end_worm();
  }
}

/// Reusable per-thread buffers of CachingRouter::plan: the cache key and the
/// encoded payload of a miss.
struct PlanScratch {
  Key key;
  std::vector<std::uint32_t> payload;
  bool in_use = false;
};

}  // namespace

struct CachingRouter::Shard {
  /// One cached multicast set.  route() / route_many() fill the route
  /// payload and plan() the plan payload; a lookup hits only when its own
  /// payload is present (a set routed both ways holds both).
  struct Entry {
    Key key;
    /// Shared so the batch path can hold a reference past the shard lock
    /// (entries may be evicted by other threads the moment it drops) and
    /// copy straight into the output arenas -- one copy per request
    /// instead of stage-then-assemble.  Never mutated after insertion.
    std::shared_ptr<const MulticastRoute> route;
    /// encode_plan() words; empty = no plan cached.
    std::vector<std::uint32_t> plan;
  };

  /// Insert an entry for the absent `key` at the LRU front.  When the shard
  /// is full the least recently used entry is evicted and its storage --
  /// list node, map node, key and payload buffers -- is reused, so a full
  /// cache inserts without allocating once its buffers have grown.
  Entry& insert(const Key& new_key, bool& evicted) {
    evicted = map.size() >= capacity;
    if (!evicted) {
      lru.emplace_front();
      lru.front().key = new_key;
      map.emplace(KeyRef{&lru.front().key}, lru.begin());
      return lru.front();
    }
    // The map node keeps pointing at the reused entry's key; only the
    // key's contents (and so its hash) change.
    auto node = map.extract(KeyRef{&lru.back().key});
    lru.splice(lru.begin(), lru, std::prev(lru.end()));  // iterators stay valid
    Entry& e = lru.front();
    e.key.assign(new_key.begin(), new_key.end());
    e.route.reset();
    e.plan.clear();
    map.insert(std::move(node));
    return e;
  }

  std::mutex mutex;
  std::list<Entry> lru;  // front = most recently used
  /// Keyed by the entry's own key (one copy per entry, not two).
  std::unordered_map<KeyRef, std::list<Entry>::iterator, KeyRefHash, KeyRefEqual> map;
  std::size_t capacity = 0;
  // Counters are guarded by `mutex` (not atomics): stats() locks every
  // shard before summing, so snapshots are never torn across counters.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

// route_many's own counters; guarded by a dedicated mutex that stats()
// acquires alongside the shard locks so the batch triple snapshots
// consistently with the shard counters.
struct CachingRouter::BatchCounters {
  std::mutex mutex;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t dedup = 0;
};

CachingRouter::CachingRouter(std::unique_ptr<Router> inner, RouteCacheConfig config)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("CachingRouter: inner router must not be null");
  if (config.capacity == 0) {
    throw std::invalid_argument(
        "RouteCacheConfig: capacity must be >= 1 (got 0); use the inner router "
        "directly to disable caching");
  }
  if (config.shards == 0) {
    throw std::invalid_argument("RouteCacheConfig: shards must be >= 1 (got 0)");
  }
  capacity_ = config.capacity;
  num_shards_ = std::min(config.shards, config.capacity);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  batch_ = std::make_unique<BatchCounters>();
  generation_.store(g_generation.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  // Distribute the exact configured capacity: the first (capacity % shards)
  // shards take one extra slot, so per-shard budgets always sum to
  // capacity() with no rounding loss.
  const std::size_t base = capacity_ / num_shards_;
  const std::size_t extra = capacity_ % num_shards_;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    shards_[s].capacity = base + (s < extra ? 1 : 0);
  }
}

CachingRouter::~CachingRouter() = default;

void CachingRouter::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_hits_ = metric_misses_ = metric_evictions_ = nullptr;
    return;
  }
  metric_hits_ = &registry->counter("route_cache.hits");
  metric_misses_ = &registry->counter("route_cache.misses");
  metric_evictions_ = &registry->counter("route_cache.evictions");
}

MulticastRoute CachingRouter::route(const MulticastRequest& request) const {
  const Key key = make_key(request);
  Shard& shard = shards_[KeyHash{}(key) % num_shards_];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(KeyRef{&key});
    if (it != shard.map.end() && it->second->route != nullptr) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      if (metric_hits_ != nullptr) metric_hits_->inc();
      return *it->second->route;
    }
  }

  // Compute outside the lock: route construction is the expensive part and
  // must not serialise concurrent simulation threads.
  MulticastRoute computed = inner_->route(request);

  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.misses;  // we did the work even if another thread won the insert
  if (metric_misses_ != nullptr) metric_misses_->inc();
  Shard::Entry* entry = nullptr;
  if (const auto it = shard.map.find(KeyRef{&key}); it != shard.map.end()) {
    if (it->second->route != nullptr) return computed;  // another thread won the insert
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    entry = &*it->second;
  } else {
    bool evicted = false;
    entry = &shard.insert(key, evicted);
    if (evicted) {
      ++shard.evictions;
      if (metric_evictions_ != nullptr) metric_evictions_->inc();
    }
  }
  entry->route = std::make_shared<MulticastRoute>(computed);
  return computed;
}

void CachingRouter::plan(const MulticastRequest& request, worm::WormPlan& out) const {
  // The thread's buffers are reused across calls; a nested call (stacked
  // CachingRouters) falls back to fresh local ones.
  thread_local PlanScratch tls;
  PlanScratch local;
  PlanScratch& ps = tls.in_use ? local : tls;
  struct Claim {
    PlanScratch& scratch;
    explicit Claim(PlanScratch& s) : scratch(s) { scratch.in_use = true; }
    ~Claim() { scratch.in_use = false; }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
  } claim(ps);

  make_key_into(request, ps.key);
  Shard& shard = shards_[KeyHash{}(ps.key) % num_shards_];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(KeyRef{&ps.key});
    if (it != shard.map.end() && !it->second->plan.empty()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      if (metric_hits_ != nullptr) metric_hits_->inc();
      decode_plan(it->second->plan, topology(), out);
      return;
    }
  }

  inner_->plan(request, out);  // outside the lock, as in route()
  encode_plan(out, topology(), ps.payload);

  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.misses;
  if (metric_misses_ != nullptr) metric_misses_->inc();
  Shard::Entry* entry = nullptr;
  if (const auto it = shard.map.find(KeyRef{&ps.key}); it != shard.map.end()) {
    if (!it->second->plan.empty()) return;  // another thread won the insert
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    entry = &*it->second;
  } else {
    bool evicted = false;
    entry = &shard.insert(ps.key, evicted);
    if (evicted) {
      ++shard.evictions;
      if (metric_evictions_ != nullptr) metric_evictions_->inc();
    }
  }
  entry->plan.assign(ps.payload.begin(), ps.payload.end());
}

RouteBatch CachingRouter::route_many(std::span<const MulticastRequest> requests) const {
  RouteBatch out;
  if (requests.empty()) return out;
  out.reserve(requests.size());

  // The workspace is reused across calls on this thread; a nested call
  // (stacked CachingRouters) falls back to a fresh local one.
  thread_local BatchWorkspace tls;
  BatchWorkspace local;
  BatchWorkspace& ws = tls.in_use ? local : tls;
  const bool own_tls = &ws == &tls;
  if (own_tls) tls.in_use = true;

  const std::uint64_t generation = generation_.load(std::memory_order_relaxed);
  thread_local RouteMemo memo;

  try {
    ws.slots.clear();
    ws.key_arena.clear();
    ws.pending.clear();
    ws.miss_slots.clear();
    ws.miss_requests.clear();
    ws.slot_of.resize(requests.size());

    // Phase 1 -- intra-batch dedup on raw request identity (source +
    // destinations in request order) via an open-addressing table with
    // linear probing.  Duplicates collapse onto the first occurrence's
    // slot without paying for canonicalisation, and each distinct
    // identity probes the thread-local memo once: a memo hit resolves the
    // slot right here, skipping key sorting and shard locking entirely.
    std::size_t table_size = 16;
    while (table_size < requests.size() * 2) table_size <<= 1;
    ws.table.assign(table_size, 0);
    const std::size_t mask = table_size - 1;
    std::uint64_t dedup = 0;
    std::uint64_t hit_count = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::uint64_t h = raw_hash(requests[i]);
      std::size_t pos = static_cast<std::size_t>(h) & mask;
      std::uint32_t slot_index = 0;
      for (;;) {
        const std::uint32_t entry = ws.table[pos];
        if (entry == 0) {
          slot_index = static_cast<std::uint32_t>(ws.slots.size());
          ws.table[pos] = slot_index + 1;
          BatchWorkspace::Slot slot;
          slot.first_request = static_cast<std::uint32_t>(i);
          slot.hash = h;
          if (const auto* cached = memo.find(generation, h, requests[i])) {
            slot.route = *cached;
            ++hit_count;
          } else {
            ws.pending.push_back(slot_index);
          }
          ws.slots.push_back(std::move(slot));
          break;
        }
        const BatchWorkspace::Slot& existing = ws.slots[entry - 1];
        if (existing.hash == h &&
            raw_equal(requests[existing.first_request], requests[i])) {
          slot_index = entry - 1;
          ++dedup;
          break;
        }
        pos = (pos + 1) & mask;
      }
      ws.slot_of[i] = slot_index;
    }

    // Phase 2 -- canonical cache key (sorted, deduped) per memo-missed
    // slot, then group those slots by shard with a counting sort.
    for (const std::uint32_t si : ws.pending) {
      BatchWorkspace::Slot& slot = ws.slots[si];
      make_key_into(requests[slot.first_request], ws.probe);
      slot.key_begin = static_cast<std::uint32_t>(ws.key_arena.size());
      slot.key_count = static_cast<std::uint32_t>(ws.probe.size());
      slot.shard = static_cast<std::uint32_t>(KeyHash{}(ws.probe) % num_shards_);
      ws.key_arena.insert(ws.key_arena.end(), ws.probe.begin(), ws.probe.end());
    }
    ws.shard_begin.assign(num_shards_ + 1, 0);
    for (const std::uint32_t si : ws.pending) ++ws.shard_begin[ws.slots[si].shard + 1];
    for (std::size_t sh = 1; sh <= num_shards_; ++sh) {
      ws.shard_begin[sh] += ws.shard_begin[sh - 1];
    }
    ws.shard_order.resize(ws.pending.size());
    ws.cursor.assign(ws.shard_begin.begin(), ws.shard_begin.end() - 1);
    for (const std::uint32_t si : ws.pending) {
      ws.shard_order[ws.cursor[ws.slots[si].shard]++] = si;
    }

    // Phase 3 -- grouped lookup: every slot of a shard probes under one
    // lock acquisition.  A hit pins the entry's route via shared_ptr, so
    // it stays valid for assembly after the lock drops (concurrent threads
    // may evict the entry; they cannot free the pinned route).
    for (std::size_t sh = 0; sh < num_shards_; ++sh) {
      const std::uint32_t begin = ws.shard_begin[sh];
      const std::uint32_t end = ws.shard_begin[sh + 1];
      if (begin == end) continue;
      Shard& shard = shards_[sh];
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (std::uint32_t o = begin; o < end; ++o) {
        BatchWorkspace::Slot& slot = ws.slots[ws.shard_order[o]];
        ws.probe.assign(ws.key_arena.begin() + slot.key_begin,
                        ws.key_arena.begin() + slot.key_begin + slot.key_count);
        const auto it = shard.map.find(KeyRef{&ws.probe});
        if (it == shard.map.end() || it->second->route == nullptr) continue;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.hits;
        ++hit_count;
        slot.route = it->second->route;
      }
    }

    // Back-fill the memo with shard hits (outside the locks) and collect
    // the remaining misses.
    for (const std::uint32_t si : ws.pending) {
      BatchWorkspace::Slot& slot = ws.slots[si];
      if (slot.route != nullptr) {
        memo.store(generation, slot.hash, requests[slot.first_request], slot.route);
      } else {
        slot.miss = static_cast<std::int32_t>(ws.miss_slots.size());
        ws.miss_slots.push_back(si);
        ws.miss_requests.push_back(requests[slot.first_request]);
      }
    }
    if (metric_hits_ != nullptr && hit_count > 0) metric_hits_->inc(hit_count);

    // Phase 4 -- route all misses in one inner batch call, outside any
    // lock, then insert the computed routes (again one lock per shard).
    RouteBatch computed;
    if (!ws.miss_requests.empty()) {
      computed = inner_->route_many(ws.miss_requests);

      std::uint64_t evicted = 0;
      for (std::size_t sh = 0; sh < num_shards_; ++sh) {
        const std::uint32_t begin = ws.shard_begin[sh];
        const std::uint32_t end = ws.shard_begin[sh + 1];
        Shard* shard = nullptr;
        std::unique_lock<std::mutex> lock;
        for (std::uint32_t o = begin; o < end; ++o) {
          BatchWorkspace::Slot& slot = ws.slots[ws.shard_order[o]];
          if (slot.miss < 0) continue;
          if (shard == nullptr) {
            shard = &shards_[sh];
            lock = std::unique_lock<std::mutex>(shard->mutex);
          }
          ++shard->misses;
          ws.probe.assign(ws.key_arena.begin() + slot.key_begin,
                          ws.key_arena.begin() + slot.key_begin + slot.key_count);
          Shard::Entry* entry = nullptr;
          if (const auto it = shard->map.find(KeyRef{&ws.probe}); it != shard->map.end()) {
            entry = &*it->second;
            if (entry->route != nullptr) {
              slot.route = entry->route;  // another thread won the insert
              continue;
            }
            shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
          } else {
            bool was_evicted = false;
            entry = &shard->insert(ws.probe, was_evicted);
            if (was_evicted) {
              ++shard->evictions;
              ++evicted;
            }
          }
          slot.route = std::make_shared<MulticastRoute>(
              computed.route_at(static_cast<std::size_t>(slot.miss)));
          entry->route = slot.route;
        }
      }
      // Memo the fresh routes too (outside the locks); the cache-insert
      // copy doubles as the memo entry, so this adds no extra deep copy.
      for (const std::uint32_t si : ws.miss_slots) {
        const BatchWorkspace::Slot& slot = ws.slots[si];
        memo.store(generation, slot.hash, requests[slot.first_request], slot.route);
      }
      if (metric_misses_ != nullptr) metric_misses_->inc(ws.miss_requests.size());
      if (metric_evictions_ != nullptr && evicted > 0) metric_evictions_->inc(evicted);
    }

    {
      std::lock_guard<std::mutex> lock(batch_->mutex);
      batch_->hits += hit_count;
      batch_->misses += ws.miss_requests.size();
      batch_->dedup += dedup;
    }

    // Phase 5 -- assemble in request order: one copy per request, straight
    // into the output arenas.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const BatchWorkspace::Slot& slot = ws.slots[ws.slot_of[i]];
      if (slot.miss >= 0) {
        out.append_from(computed, static_cast<std::size_t>(slot.miss));
      } else {
        out.append(*slot.route);
      }
    }
  } catch (...) {
    if (own_tls) tls.in_use = false;
    throw;
  }
  if (own_tls) tls.in_use = false;
  return out;
}

RouteCacheStats CachingRouter::stats() const {
  // Acquire every shard lock (in fixed index order; route() only ever
  // holds one shard at a time, so this cannot deadlock) and sum while all
  // are held: the returned counters are one global point-in-time snapshot.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_ + 1);
  for (std::size_t s = 0; s < num_shards_; ++s) locks.emplace_back(shards_[s].mutex);
  locks.emplace_back(batch_->mutex);
  RouteCacheStats out;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    out.hits += shards_[s].hits;
    out.misses += shards_[s].misses;
    out.evictions += shards_[s].evictions;
  }
  out.batch_hits = batch_->hits;
  out.batch_misses = batch_->misses;
  out.batch_dedup = batch_->dedup;
  return out;
}

std::size_t CachingRouter::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].map.size();
  }
  return total;
}

void CachingRouter::clear() {
  // New generation first: a route_many racing clear() may still finish
  // with pre-clear routes (exactly like a scalar loop would), but no memo
  // entry filled before this point can ever match again.
  generation_.store(g_generation.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].map.clear();
    shards_[s].lru.clear();
  }
}

std::unique_ptr<CachingRouter> make_caching_router(const topo::Topology& topology,
                                                   Algorithm algorithm, std::uint8_t copies,
                                                   RouteCacheConfig config) {
  return std::make_unique<CachingRouter>(make_router(topology, algorithm, copies), config);
}

}  // namespace mcnet::mcast
