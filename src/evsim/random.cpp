#include "evsim/random.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcnet::evsim {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<topo::NodeId> Rng::sample_destinations(std::uint32_t num_nodes,
                                                   topo::NodeId source, std::uint32_t k) {
  std::vector<topo::NodeId> result;
  sample_destinations_into(num_nodes, source, k, result);
  return result;
}

void Rng::sample_destinations_into(std::uint32_t num_nodes, topo::NodeId source,
                                   std::uint32_t k, std::vector<topo::NodeId>& out) {
  if (k + 1 > num_nodes) throw std::invalid_argument("too many destinations requested");
  // Sample k distinct values from [0, num_nodes - 2] (Floyd), then map past
  // the source so it is never selected.  The chosen set is one bit per
  // value, all clear between calls.
  const std::uint32_t pool = num_nodes - 1;
  thread_local std::vector<std::uint64_t> chosen;
  if (chosen.size() * 64 < pool) chosen.resize((pool + 63) / 64, 0);
  const auto insert = [](std::uint32_t v) {
    std::uint64_t& word = chosen[v / 64];
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  };
  out.clear();
  out.reserve(k);
  for (std::uint32_t j = pool - k; j < pool; ++j) {
    const std::uint32_t t = uniform_int(0, j);
    const std::uint32_t pick = insert(t) ? t : j;
    if (pick != t) insert(j);
    out.push_back(pick);
  }
  for (topo::NodeId& v : out) {
    chosen[v / 64] &= ~(std::uint64_t{1} << (v % 64));
    v = v >= source ? v + 1 : v;
  }
  std::shuffle(out.begin(), out.end(), engine_);
}

}  // namespace mcnet::evsim
