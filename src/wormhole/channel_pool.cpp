#include "wormhole/channel_pool.hpp"

#include <stdexcept>

namespace mcnet::worm {

ChannelPool::ChannelPool(std::uint32_t num_channels, std::uint8_t copies,
                         Arbitration arbitration,
                         std::function<double(std::uint32_t)> priority, std::uint64_t seed)
    : copies_(copies),
      arbitration_(arbitration),
      priority_(std::move(priority)),
      rng_(seed),
      holder_(static_cast<std::size_t>(num_channels) * copies, kNoWorm),
      queues_(num_channels) {
  if (copies == 0) throw std::invalid_argument("need >= 1 channel copy");
  if (arbitration == Arbitration::kOldestFirst && !priority_) {
    throw std::invalid_argument("oldest-first arbitration needs a priority function");
  }
}

std::optional<std::uint8_t> ChannelPool::acquire(ChannelId c, const ChannelRequest& req) {
  if (req.copy == kAnyCopy) {
    for (std::uint8_t k = 0; k < copies_; ++k) {
      if (holder_[index(c, k)] == kNoWorm) {
        holder_[index(c, k)] = req.worm_id;
        ++busy_;
        return k;
      }
    }
  } else {
    const auto k = static_cast<std::uint8_t>(req.copy);
    if (k >= copies_) throw std::invalid_argument("copy index out of range");
    if (holder_[index(c, k)] == kNoWorm) {
      holder_[index(c, k)] = req.worm_id;
      ++busy_;
      return k;
    }
  }
  std::uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
    nodes_[node] = Node{req, kNil};
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({req, kNil});
  }
  Queue& q = queues_[c];
  if (q.tail == kNil) {
    q.head = node;
  } else {
    nodes_[q.tail].next = node;
  }
  q.tail = node;
  ++q.size;
  return std::nullopt;
}

void ChannelPool::unlink(ChannelId c, std::uint32_t prev, std::uint32_t node) {
  Queue& q = queues_[c];
  const std::uint32_t next = nodes_[node].next;
  if (prev == kNil) {
    q.head = next;
  } else {
    nodes_[prev].next = next;
  }
  if (q.tail == node) q.tail = prev;
  --q.size;
  nodes_[node].next = free_;
  free_ = node;
}

std::optional<std::pair<ChannelRequest, std::uint8_t>> ChannelPool::release(
    ChannelId c, std::uint8_t copy) {
  auto& slot = holder_[index(c, copy)];
  if (slot == kNoWorm) throw std::logic_error("releasing a free channel");
  slot = kNoWorm;
  --busy_;
  // Arbitrate among the waiters compatible with the freed copy (Section
  // 2.3.3): FCFS takes the first, oldest-first the first of the smallest
  // priority, random the r-th of the compatible ones.
  const auto compatible = [copy](const ChannelRequest& r) {
    return r.copy == kAnyCopy || r.copy == static_cast<std::int8_t>(copy);
  };
  std::uint32_t pick = kNil;
  std::uint32_t pick_prev = kNil;
  if (arbitration_ == Arbitration::kRandom) {
    std::uint32_t count = 0;
    for (std::uint32_t n = queues_[c].head; n != kNil; n = nodes_[n].next) {
      if (compatible(nodes_[n].request)) ++count;
    }
    if (count == 0) return std::nullopt;
    std::uint32_t skip = rng_.uniform_int(0, count - 1);
    for (std::uint32_t prev = kNil, n = queues_[c].head; n != kNil;
         prev = n, n = nodes_[n].next) {
      if (compatible(nodes_[n].request) && skip-- == 0) {
        pick = n;
        pick_prev = prev;
        break;
      }
    }
  } else {
    for (std::uint32_t prev = kNil, n = queues_[c].head; n != kNil;
         prev = n, n = nodes_[n].next) {
      if (!compatible(nodes_[n].request)) continue;
      if (pick == kNil || (arbitration_ == Arbitration::kOldestFirst &&
                           priority_(nodes_[n].request.worm_id) <
                               priority_(nodes_[pick].request.worm_id))) {
        pick = n;
        pick_prev = prev;
        if (arbitration_ == Arbitration::kFcfs) break;  // first wins
      }
    }
    if (pick == kNil) return std::nullopt;
  }
  const ChannelRequest req = nodes_[pick].request;
  unlink(c, pick_prev, pick);
  holder_[index(c, copy)] = req.worm_id;
  ++busy_;
  return std::make_pair(req, copy);
}

std::vector<ChannelRequest> ChannelPool::waiters(ChannelId c) const {
  std::vector<ChannelRequest> out;
  out.reserve(queues_[c].size);
  for (std::uint32_t n = queues_[c].head; n != kNil; n = nodes_[n].next) {
    out.push_back(nodes_[n].request);
  }
  return out;
}

bool ChannelPool::retarget(ChannelId c, std::uint32_t old_worm, std::uint32_t old_link,
                           std::uint32_t new_worm, std::uint32_t new_link) {
  for (std::uint32_t n = queues_[c].head; n != kNil; n = nodes_[n].next) {
    ChannelRequest& r = nodes_[n].request;
    if (r.worm_id == old_worm && r.link_index == old_link) {
      r.worm_id = new_worm;
      r.link_index = new_link;
      return true;
    }
  }
  return false;
}

void ChannelPool::cancel_requests(std::uint32_t worm_id) {
  for (ChannelId c = 0; c < queues_.size(); ++c) {
    std::uint32_t prev = kNil;
    for (std::uint32_t n = queues_[c].head; n != kNil;) {
      const std::uint32_t next = nodes_[n].next;
      if (nodes_[n].request.worm_id == worm_id) {
        unlink(c, prev, n);
      } else {
        prev = n;
      }
      n = next;
    }
  }
}

}  // namespace mcnet::worm
