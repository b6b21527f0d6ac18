#include "wormhole/network.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mcnet::worm {

Network::Network(const topo::Topology& topology, const WormholeParams& params,
                 evsim::Scheduler& sched, std::shared_ptr<fault::FaultState> faults)
    : topology_(&topology),
      params_(params),
      sched_(&sched),
      pool_(topology.num_channels(), params.channel_copies, params.arbitration,
            [this](std::uint32_t worm_id) { return worms_[worm_id].t_created; }),
      faults_(std::move(faults)) {
  if (params.message_flits == 0) throw std::invalid_argument("message needs >= 1 flit");
  if (params.flit_time <= 0.0) throw std::invalid_argument("flit time must be positive");
  if (!faults_) faults_ = std::make_shared<fault::FaultState>(topology);
  if (faults_->topology().num_channels() != topology.num_channels()) {
    throw std::invalid_argument("fault state built for another topology");
  }
  acquired_at_.assign(static_cast<std::size_t>(topology.num_channels()) *
                          params.channel_copies,
                      0.0);
}

void Network::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.injections = &registry->counter("network.injections");
  metrics_.deliveries = &registry->counter("network.deliveries");
  metrics_.drops = &registry->counter("network.drops");
  metrics_.worms_killed = &registry->counter("network.worms_killed");
  metrics_.delivery_latency_s = &registry->histogram("network.delivery_latency_s");
  metrics_.grant_wait_s = &registry->histogram("network.grant_wait_s");
  metrics_.channel_hold_s = &registry->histogram("network.channel_hold_s");
  metrics_.channel_busy_time_s = &registry->gauge("network.channel_busy_time_s");
}

void Network::note_grant(ChannelId c, std::uint8_t copy) {
  acquired_at_[phys_index(c, copy)] = sched_->now();
  if (hooks_.on_channel_grant) {
    hooks_.on_channel_grant(c, copy, pool_.holder(c, copy), sched_->now());
  }
}

void Network::note_release(ChannelId c, std::uint8_t copy) {
  const double held = sched_->now() - acquired_at_[phys_index(c, copy)];
  busy_time_ += held;
  if (metrics_.active()) {
    metrics_.channel_hold_s->record(held);
    metrics_.channel_busy_time_s->add(held);
  }
  if (hooks_.on_channel_release) {
    hooks_.on_channel_release(c, copy, pool_.holder(c, copy), sched_->now());
  }
}

double Network::utilization() const {
  const double elapsed = sched_->now();
  if (elapsed <= 0.0) return 0.0;
  // In-flight holds are counted up to "now".
  double busy = busy_time_;
  for (ChannelId c = 0; c < pool_.num_channels(); ++c) {
    for (std::uint8_t k = 0; k < pool_.copies(); ++k) {
      if (pool_.holder(c, k) != kNoWorm) busy += elapsed - acquired_at_[phys_index(c, k)];
    }
  }
  return busy / (elapsed * static_cast<double>(acquired_at_.size()));
}

std::uint64_t Network::inject(const std::vector<WormSpec>& specs) {
  WormPlan plan;
  specs_to_plan(specs, plan);
  return inject(plan);
}

std::uint64_t Network::inject(const WormPlan& plan) {
  const std::uint64_t msg = next_message_++;
  messages_.push_back(Message{sched_->now(), static_cast<std::uint32_t>(plan.size())});
  if (metrics_.active()) metrics_.injections->inc();
  if (hooks_.on_inject) hooks_.on_inject(msg, sched_->now());
  if (plan.empty()) {
    ++messages_completed_;
    if (hooks_.on_message_done) hooks_.on_message_done(msg, 0.0);
    return msg;
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::uint32_t id = allocate_worm();
    Worm& w = worms_[id];
    w.links.clear();
    for (const PlanLink& l : plan.links(i)) {
      w.links.push_back({l.channel, l.depth, l.copy, kNotGranted});
    }
    const std::span<const Delivery> deliveries = plan.deliveries(i);
    w.deliveries.assign(deliveries.begin(), deliveries.end());
    init_worm(w, msg, sched_->now());
    w.active = true;
    ++active_worms_;
    begin_frontier(id);
  }
  return msg;
}

void Network::init_worm(Worm& w, std::uint64_t message, double t_created) {
  if (w.links.empty()) throw std::logic_error("a worm needs at least one link");
  w.message = message;
  w.t_created = t_created;
  w.max_depth = w.links.back().depth;
  w.progress = 0;
  w.frontier_begin = 0;
  w.frontier_end = 0;
  w.granted = 0;
  w.next_delivery = 0;
  w.next_release = 0;
  w.block_started = -1.0;
  w.blocked_time = 0.0;
  w.pending = evsim::EventId{};
  w.drain_t0 = 0.0;
  w.active = false;
}

std::uint32_t Network::depth_end(const Worm& w, std::uint32_t from, std::uint32_t depth) {
  while (from < w.links.size() && w.links[from].depth <= depth) ++from;
  return from;
}

std::uint32_t Network::allocate_worm() {
  if (!free_worm_slots_.empty()) {
    const std::uint32_t id = free_worm_slots_.back();
    free_worm_slots_.pop_back();
    return id;
  }
  worms_.emplace_back();
  worm_gen_.push_back(0);
  return static_cast<std::uint32_t>(worms_.size() - 1);
}

void Network::begin_frontier(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  // The previous frontier ended at the first link deeper than it, which is
  // where this one (depth progress + 1) begins.
  w.frontier_begin = w.frontier_end;
  w.frontier_end = depth_end(w, w.frontier_begin, w.progress + 1);
  w.granted = 0;
  // A frontier touching failed hardware kills the worm: it can never be
  // granted, and letting it hold-and-wait would wedge the network.
  if (!faults_->healthy()) {
    for (std::uint32_t i = w.frontier_begin; i < w.frontier_end; ++i) {
      if (!faults_->channel_usable(w.links[i].channel)) {
        kill_worm(worm_id);
        return;
      }
    }
  }
  const std::uint32_t frontier_size = w.frontier_end - w.frontier_begin;
  for (std::uint32_t i = w.frontier_begin; i < w.frontier_end; ++i) {
    Link& link = w.links[i];
    if (const auto copy = pool_.acquire(link.channel, ChannelRequest{worm_id, i, link.copy})) {
      note_grant(link.channel, *copy);
      link.granted = *copy;
      ++w.granted;
    }
  }
  if (w.granted == frontier_size) {
    arm_advance(worm_id);
  } else {
    w.block_started = sched_->now();
    if (params_.virtual_cut_through) vct_absorb(worm_id);
  }
}

// Virtual cut-through blocking: the message is buffered at the head node.
// The worm's held prefix drains and releases (exactly the completion drain
// with the route truncated at the head), while a continuation worm takes
// over the queued FCFS wait and the remaining route suffix.
void Network::vct_absorb(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  if (w.frontier_end - w.frontier_begin != 1) {
    throw std::logic_error("virtual cut-through supports path worms only");
  }
  const std::uint32_t blocked = w.frontier_begin;  // index of the refused link
  if (w.next_release >= blocked) {
    // Nothing is held upstream: waiting in place is free, identical to
    // wormhole semantics (this also covers blocking at injection).
    return;
  }
  const std::uint32_t p = w.progress;

  // Build the continuation: the route suffix rebased to depth 1.
  const std::uint32_t cont = allocate_worm();
  // NOTE: `w` may dangle after allocate_worm (vector growth); re-fetch.
  Worm& old_w = worms_[worm_id];
  Worm& cw = worms_[cont];
  cw.links.assign(old_w.links.begin() + blocked, old_w.links.end());
  for (Link& l : cw.links) {
    l.depth -= p;
    l.granted = kNotGranted;
  }
  cw.deliveries.clear();
  for (const auto& [depth, dest] : old_w.deliveries) {
    if (depth > p) cw.deliveries.emplace_back(depth - p, dest);
  }
  init_worm(cw, old_w.message, old_w.t_created);
  cw.frontier_begin = 0;
  cw.frontier_end = depth_end(cw, 0, 1);
  cw.granted = 0;
  cw.block_started = sched_->now();  // it is waiting from birth
  cw.blocked_time = old_w.blocked_time;
  old_w.blocked_time = 0.0;
  old_w.block_started = -1.0;
  cw.active = true;
  ++active_worms_;
  ++messages_[cw.message].worms_left;
  if (!pool_.retarget(cw.links[0].channel, worm_id, blocked, cont, 0)) {
    throw std::logic_error("VCT retarget failed: no queued request");
  }

  // Truncate the original worm at the head node and drain it there.
  old_w.links.resize(blocked);
  std::erase_if(old_w.deliveries, [p](const auto& d) { return d.first > p; });
  old_w.next_delivery = std::min<std::uint32_t>(
      old_w.next_delivery, static_cast<std::uint32_t>(old_w.deliveries.size()));
  old_w.max_depth = p;
  drain(worm_id);
}

void Network::on_grant(std::uint32_t worm_id, std::uint32_t link_index, std::uint8_t copy) {
  Worm& w = worms_[worm_id];
  w.links[link_index].granted = copy;
  ++w.granted;
  if (w.granted == w.frontier_end - w.frontier_begin) {
    if (w.block_started >= 0.0) {
      const double waited = sched_->now() - w.block_started;
      w.blocked_time += waited;
      w.block_started = -1.0;
      if (metrics_.active()) metrics_.grant_wait_s->record(waited);
    }
    arm_advance(worm_id);
  }
}

void Network::arm_advance(std::uint32_t worm_id) {
  worms_[worm_id].pending =
      sched_->schedule_in(params_.flit_time, [this, worm_id] { advance(worm_id); });
}

void Network::release_link(Worm& w, std::uint32_t link_index) {
  const std::uint8_t copy = w.links[link_index].granted;
  if (copy == kNotGranted) throw std::logic_error("releasing an ungranted link");
  const ChannelId channel = w.links[link_index].channel;
  note_release(channel, copy);
  if (const auto grant = pool_.release(channel, copy)) {
    note_grant(channel, grant->second);
    on_grant(grant->first.worm_id, grant->first.link_index, grant->second);
  }
}

void Network::advance(std::uint32_t worm_id) {
  // NOTE: hooks may call inject(), which can reallocate worms_; never hold
  // a Worm reference across a hook invocation.  A hook can also kill THIS
  // worm (fail_channel / abort_message from a channel-trace or delivery
  // callback) and even reuse its slot, so every callout is followed by a
  // generation check.
  worms_[worm_id].pending = evsim::EventId{};  // this event just fired
  const std::uint64_t gen = worm_gen_[worm_id];
  const std::uint32_t l = params_.message_flits;
  worms_[worm_id].progress += 1;

  // Tail release: link at depth d frees at progress d + L.  Grant cascades
  // fire the channel-trace hooks.
  while (true) {
    Worm& w = worms_[worm_id];
    if (w.next_release >= w.links.size() ||
        w.links[w.next_release].depth + l > w.progress) {
      break;
    }
    const std::uint32_t idx = w.next_release++;
    release_link(w, idx);
    if (worm_gen_[worm_id] != gen) return;  // a hook retired this worm
  }
  // Deliveries: destination at depth d completes at progress d + L - 1.
  while (true) {
    Worm& w = worms_[worm_id];
    if (w.next_delivery >= w.deliveries.size() ||
        w.deliveries[w.next_delivery].first + l - 1 > w.progress) {
      break;
    }
    const auto [depth, dest] = w.deliveries[w.next_delivery++];
    const std::uint64_t message = w.message;
    const double latency = sched_->now() - w.t_created;
    if (metrics_.active()) {
      metrics_.deliveries->inc();
      metrics_.delivery_latency_s->record(latency);
    }
    if (hooks_.on_delivery) hooks_.on_delivery(message, dest, latency);  // may inject
    if (worm_gen_[worm_id] != gen) return;
  }

  if (worms_[worm_id].progress < worms_[worm_id].max_depth) {
    begin_frontier(worm_id);
  } else {
    drain(worm_id);
  }
}

void Network::drain(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  w.frontier_begin = w.frontier_end = 0;  // nothing left to acquire
  w.drain_t0 = sched_->now();
  // The next_delivery / next_release cursors advance as each milestone
  // actually fires (not eagerly here), so a mid-drain kill_worm sees
  // exactly which links are still held and which destinations are still
  // owed a delivery.
  arm_drain(worm_id);
}

void Network::arm_drain(std::uint32_t worm_id) {
  Worm& w = worms_[worm_id];
  const std::uint32_t l = params_.message_flits;
  const double tau = params_.flit_time;
  const std::uint32_t p = w.progress;
  // Finish is the latest milestone (deliveries sit at < L flit times,
  // releases at <= L) and ran last in the per-event code, so it is the
  // fallback, not a min candidate on its own.
  double t_next = w.drain_t0 + static_cast<double>(l) * tau;
  if (w.next_delivery < w.deliveries.size()) {
    const double dt = static_cast<double>(w.deliveries[w.next_delivery].first + l - 1 - p) * tau;
    t_next = std::min(t_next, w.drain_t0 + dt);
  }
  if (w.next_release < w.links.size()) {
    const double dt = static_cast<double>(w.links[w.next_release].depth + l - p) * tau;
    t_next = std::min(t_next, w.drain_t0 + dt);
  }
  w.pending = sched_->schedule_at(t_next, [this, worm_id] { drain_step(worm_id); });
}

void Network::drain_step(std::uint32_t worm_id) {
  worms_[worm_id].pending = evsim::EventId{};
  const std::uint64_t gen = worm_gen_[worm_id];
  const std::uint32_t l = params_.message_flits;
  const double tau = params_.flit_time;
  const double now = sched_->now();

  // Deliveries due now run before releases due now -- the per-event code
  // scheduled all deliveries first, so equal-time ties broke the same way.
  while (true) {
    Worm& w = worms_[worm_id];
    if (w.next_delivery >= w.deliveries.size()) break;
    const auto [depth, dest] = w.deliveries[w.next_delivery];
    const double t_due =
        w.drain_t0 + static_cast<double>(depth + l - 1 - w.progress) * tau;
    if (t_due > now) break;
    ++w.next_delivery;
    const std::uint64_t message = w.message;
    const double latency = now - w.t_created;
    if (metrics_.active()) {
      metrics_.deliveries->inc();
      metrics_.delivery_latency_s->record(latency);
    }
    if (hooks_.on_delivery) hooks_.on_delivery(message, dest, latency);  // may inject
    if (worm_gen_[worm_id] != gen) return;  // a hook retired this worm
  }
  while (true) {
    Worm& w = worms_[worm_id];
    if (w.next_release >= w.links.size()) break;
    const double t_due =
        w.drain_t0 + static_cast<double>(w.links[w.next_release].depth + l - w.progress) * tau;
    if (t_due > now) break;
    const std::uint32_t idx = w.next_release++;
    release_link(worms_[worm_id], idx);
    if (worm_gen_[worm_id] != gen) return;
  }

  Worm& w = worms_[worm_id];
  const double t_finish = w.drain_t0 + static_cast<double>(l) * tau;
  if (w.next_delivery >= w.deliveries.size() && w.next_release >= w.links.size() &&
      t_finish <= now) {
    finish_worm(worm_id);
    return;
  }
  arm_drain(worm_id);
}

void Network::finish_worm(std::uint32_t worm_id) {
  // Retire the worm slot completely before firing the completion hook: the
  // hook may inject new multicasts, reallocating worms_ / messages_ and
  // reusing this slot.
  ++worm_gen_[worm_id];  // invalidate victim snapshots / in-flight loop guards
  worms_[worm_id].pending = evsim::EventId{};  // drain_step (running now) armed nothing
  const std::uint64_t message_id = worms_[worm_id].message;
  blocked_time_total_ += worms_[worm_id].blocked_time;
  {
    Worm& w = worms_[worm_id];
    w.active = false;
  }
  --active_worms_;
  free_worm_slots_.push_back(worm_id);

  const double t_created = messages_[message_id].t_created;
  const bool message_done = (--messages_[message_id].worms_left == 0);
  if (message_done) {
    ++messages_completed_;
    if (hooks_.on_message_done) {
      hooks_.on_message_done(message_id, sched_->now() - t_created);  // may inject
    }
  }
}

void Network::kill_worm(std::uint32_t worm_id) {
  if (!worms_[worm_id].active) return;
  ++worm_gen_[worm_id];  // invalidate victim snapshots / in-flight loop guards
  // True cancellation: the worm's pending advance/drain_step dies in the
  // kernel (its closure is destroyed, never dispatched) instead of firing
  // as a stale generation-checked no-op.
  sched_->cancel(worms_[worm_id].pending);
  worms_[worm_id].pending = evsim::EventId{};
  pool_.cancel_requests(worm_id);
  {
    Worm& w = worms_[worm_id];
    if (w.block_started >= 0.0) {
      w.blocked_time += sched_->now() - w.block_started;
      w.block_started = -1.0;
    }
  }
  // Destinations the worm still owed a delivery are dropped.
  std::vector<NodeId> dropped;
  {
    const Worm& w = worms_[worm_id];
    for (std::uint32_t i = w.next_delivery; i < w.deliveries.size(); ++i) {
      dropped.push_back(w.deliveries[i].second);
    }
  }
  // Release surviving holds; grant cascades fire the channel-trace hooks,
  // which may inject, so re-fetch the worm reference every iteration.
  const std::uint32_t num_links = static_cast<std::uint32_t>(worms_[worm_id].links.size());
  for (std::uint32_t i = worms_[worm_id].next_release; i < num_links; ++i) {
    Worm& w = worms_[worm_id];
    if (w.links[i].granted == kNotGranted) continue;
    release_link(w, i);
  }

  const std::uint64_t message_id = worms_[worm_id].message;
  blocked_time_total_ += worms_[worm_id].blocked_time;
  ++worms_killed_;
  deliveries_dropped_ += dropped.size();
  if (metrics_.active()) {
    metrics_.worms_killed->inc();
    metrics_.drops->inc(dropped.size());
  }
  {
    Worm& w = worms_[worm_id];
    w.active = false;
  }
  --active_worms_;
  free_worm_slots_.push_back(worm_id);

  const double now = sched_->now();
  if (hooks_.on_drop) {
    for (const NodeId d : dropped) hooks_.on_drop(message_id, d, now);  // may inject
  }
  const double t_created = messages_[message_id].t_created;
  if (--messages_[message_id].worms_left == 0) {
    ++messages_completed_;
    if (hooks_.on_message_done) {
      hooks_.on_message_done(message_id, sched_->now() - t_created);  // may inject
    }
  }
}

void Network::kill_channel_users(ChannelId c) {
  // Snapshot (worm, generation) pairs first: kills cascade grants and may
  // inject via hooks, either of which reshuffles pool state under us.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> victims;
  for (std::uint8_t k = 0; k < pool_.copies(); ++k) {
    const std::uint32_t holder = pool_.holder(c, k);
    if (holder != kNoWorm) victims.emplace_back(holder, worm_gen_[holder]);
  }
  for (const ChannelRequest& req : pool_.waiters(c)) {
    victims.emplace_back(req.worm_id, worm_gen_[req.worm_id]);
  }
  for (const auto& [id, gen] : victims) {
    if (worm_gen_[id] == gen && worms_[id].active) kill_worm(id);
  }
}

void Network::fail_channel(ChannelId c) {
  if (!faults_->fail_channel(c)) return;
  kill_channel_users(c);
}

void Network::recover_channel(ChannelId c) { faults_->recover_channel(c); }

void Network::fail_node(NodeId n) {
  if (!faults_->fail_node(n)) return;
  // Every channel incident to the node is now unusable; evict its users.
  // neighbors() returns a span into the immutable topology, so it stays
  // valid across the kill cascades.
  for (const NodeId v : topology_->neighbors(n)) {
    kill_channel_users(topology_->channel(n, v));
    kill_channel_users(topology_->channel(v, n));
  }
}

void Network::recover_node(NodeId n) { faults_->recover_node(n); }

void Network::abort_message(std::uint64_t message_id) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> victims;
  for (std::uint32_t id = 0; id < worms_.size(); ++id) {
    if (worms_[id].active && worms_[id].message == message_id) {
      victims.emplace_back(id, worm_gen_[id]);
    }
  }
  for (const auto& [id, gen] : victims) {
    if (worm_gen_[id] == gen && worms_[id].active) kill_worm(id);
  }
}

std::vector<std::uint32_t> Network::find_deadlock() const {
  // Wait-for edges: blocked worm -> every worm holding a copy that could
  // satisfy one of its ungranted frontier links.
  const std::uint32_t n = static_cast<std::uint32_t>(worms_.size());
  std::vector<std::vector<std::uint32_t>> edges(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    const Worm& w = worms_[id];
    if (!w.blocked()) continue;
    for (std::uint32_t i = w.frontier_begin; i < w.frontier_end; ++i) {
      if (w.links[i].granted != kNotGranted) continue;
      const Link& link = w.links[i];
      for (std::uint8_t k = 0; k < pool_.copies(); ++k) {
        if (link.copy != kAnyCopy && link.copy != static_cast<std::int8_t>(k)) continue;
        const std::uint32_t holder = pool_.holder(link.channel, k);
        if (holder != kNoWorm && holder != id) edges[id].push_back(holder);
      }
    }
  }
  // DFS cycle detection over the wait-for graph.
  enum class Colour : std::uint8_t { White, Grey, Black };
  std::vector<Colour> colour(n, Colour::White);
  std::vector<std::uint32_t> path;
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (colour[root] != Colour::White || edges[root].empty()) continue;
    stack.emplace_back(root, 0);
    colour[root] = Colour::Grey;
    path.push_back(root);
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < edges[u].size()) {
        const std::uint32_t v = edges[u][idx++];
        if (colour[v] == Colour::Grey) {
          const auto it = std::find(path.begin(), path.end(), v);
          return {it, path.end()};
        }
        if (colour[v] == Colour::White) {
          colour[v] = Colour::Grey;
          stack.emplace_back(v, 0);
          path.push_back(v);
        }
      } else {
        colour[u] = Colour::Black;
        stack.pop_back();
        path.pop_back();
      }
    }
  }
  return {};
}

std::string Network::describe_worm(std::uint32_t worm_id) const {
  const Worm& w = worms_[worm_id];
  std::ostringstream os;
  const auto hop = [&](std::uint32_t i) {
    const topo::ChannelEnds ends = topology_->channel_ends(w.links[i].channel);
    os << "[" << ends.from << "->" << ends.to << "]";
  };
  os << "worm " << worm_id << " (message " << w.message << ", progress " << w.progress << "/"
     << w.max_depth << ")";
  if (!w.active) {
    os << " [finished]";
    return os.str();
  }
  os << " holds {";
  bool first = true;
  for (std::uint32_t i = 0; i < w.links.size(); ++i) {
    if (w.links[i].granted == kNotGranted) continue;
    if (i < w.next_release) continue;  // already released
    os << (first ? "" : ", ");
    hop(i);
    first = false;
  }
  os << "}";
  if (w.blocked()) {
    os << " waits {";
    first = true;
    for (std::uint32_t i = w.frontier_begin; i < w.frontier_end; ++i) {
      if (w.links[i].granted != kNotGranted) continue;
      os << (first ? "" : ", ");
    hop(i);
      first = false;
    }
    os << "}";
  }
  return os.str();
}

}  // namespace mcnet::worm
