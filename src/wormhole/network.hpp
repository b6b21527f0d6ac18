// The wormhole network simulator: drives worm trees through the channel
// pool on an evsim::Scheduler, records per-destination latency, and exposes
// the blocked-worm wait-for graph for deadlock analysis.
//
// Fault model: the network shares a fault::FaultState with the routing
// layer.  When a channel or node fails mid-flight, every worm holding or
// requesting the failed hardware is killed -- its channels release (waiters
// cascade normally), its queued requests are cancelled, and each
// not-yet-delivered destination is reported through the on_drop hook and
// counted.  A worm whose frontier reaches a failed channel later is killed
// at that point, so no worm ever blocks on dead hardware.  Recovery makes
// the hardware acquirable again; it never resurrects killed worms (the
// service layer's retry path re-sends instead).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "evsim/scheduler.hpp"
#include "fault/fault_state.hpp"
#include "topology/topology.hpp"
#include "wormhole/channel_pool.hpp"
#include "wormhole/worm.hpp"

namespace mcnet::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace mcnet::obs

namespace mcnet::worm {

struct WormholeParams {
  /// Seconds for one flit to cross one channel.  The paper's setting:
  /// 1-byte flits over 20 Mbyte/s channels = 50 ns.
  double flit_time = 50e-9;
  /// Message length L in flits (128-byte messages, 1-byte flits).
  std::uint32_t message_flits = 128;
  /// Physical copies of every directed channel (2 = double-channel network).
  std::uint8_t channel_copies = 1;
  /// Channel arbitration policy (Section 2.3.3).
  Arbitration arbitration = Arbitration::kFcfs;
  /// Virtual cut-through mode (Section 2.2.2): a blocked message is
  /// absorbed into the blocking node's buffer -- its held channels drain
  /// and release while a continuation worm keeps the FCFS wait -- instead
  /// of stalling in the network like a wormhole worm.  Path worms only
  /// (node buffers are unbounded, as in the Kermani-Kleinrock model).
  bool virtual_cut_through = false;
};

/// Observer callbacks (all optional).
struct NetworkHooks {
  /// A multicast entered the network (fires before any of its worms move).
  std::function<void(std::uint64_t message_id, double t)> on_inject;
  /// A destination received the complete message.
  std::function<void(std::uint64_t message_id, NodeId destination, double latency_s)>
      on_delivery;
  /// Every worm of a message finished (all deliveries + tail drained).
  /// Fires for killed messages too, once their last worm is gone; pair it
  /// with on_drop to tell full deliveries from degraded ones.
  std::function<void(std::uint64_t message_id, double latency_s)> on_message_done;
  /// A destination will never receive this message: the worm carrying it
  /// was killed by a fault or an abort_message() call.
  std::function<void(std::uint64_t message_id, NodeId destination, double t)> on_drop;
  /// Channel-level trace (for audits/visualisation): a worm acquired /
  /// released physical copy `copy` of channel `c` at the current time.
  std::function<void(ChannelId c, std::uint8_t copy, std::uint32_t worm_id, double t)>
      on_channel_grant;
  std::function<void(ChannelId c, std::uint8_t copy, std::uint32_t worm_id, double t)>
      on_channel_release;
};

class Network {
 public:
  /// `faults` is the failure state to simulate against; pass the instance
  /// shared with a fault::FaultAwareRouter so routing and the simulator
  /// agree on what is dead.  nullptr creates a private all-healthy state.
  Network(const topo::Topology& topology, const WormholeParams& params,
          evsim::Scheduler& sched, std::shared_ptr<fault::FaultState> faults = nullptr);

  /// Inject a multicast as the worms of `plan`, created at the current
  /// simulated time; returns the message id.  The worms are copied into
  /// recycled slots that keep their capacity, so steady-state injection
  /// allocates nothing.  `plan` is read while the worms start, and hooks
  /// may fire in that time: a hook that injects again must not reuse it.
  /// Worms routed over already-failed channels are killed immediately
  /// (their destinations drop).
  std::uint64_t inject(const WormPlan& plan);
  /// Adaptor for hand-built worm specs (same semantics).
  std::uint64_t inject(const std::vector<WormSpec>& specs);

  void set_hooks(NetworkHooks hooks) { hooks_ = std::move(hooks); }
  /// The installed hooks (copy, extend, set_hooks to add an observer).
  [[nodiscard]] const NetworkHooks& hooks() const { return hooks_; }

  /// Register this network's instruments on `registry` (nullptr detaches):
  /// counters network.injections / .deliveries / .drops / .worms_killed,
  /// histograms network.delivery_latency_s / .grant_wait_s /
  /// .channel_hold_s (all in simulated seconds) and gauge
  /// network.channel_busy_time_s.  When detached (the default) the hot
  /// paths pay one null check.  Multiple networks may share a registry;
  /// their counts aggregate.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Fail a directed channel at the current simulated time: worms holding
  /// or waiting on any copy of it are killed.  Idempotent.
  void fail_channel(ChannelId c);
  /// Recover a failed channel (new acquisitions succeed again).
  void recover_channel(ChannelId c);
  /// Fail a node: every incident channel becomes unusable and the worms
  /// holding or waiting on them are killed.
  void fail_node(NodeId n);
  void recover_node(NodeId n);

  /// Kill every still-active worm of `message` (e.g. on a service-level
  /// timeout).  Undelivered destinations drop; on_message_done fires once
  /// the last worm is gone.  No-op for completed or unknown messages.
  void abort_message(std::uint64_t message_id);

  [[nodiscard]] fault::FaultState& faults() { return *faults_; }
  [[nodiscard]] const fault::FaultState& faults() const { return *faults_; }
  [[nodiscard]] const std::shared_ptr<fault::FaultState>& fault_state() const {
    return faults_;
  }
  /// Worms killed by faults or aborts.
  [[nodiscard]] std::uint64_t worms_killed() const { return worms_killed_; }
  /// Destination deliveries abandoned by killed worms.
  [[nodiscard]] std::uint64_t deliveries_dropped() const { return deliveries_dropped_; }

  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }
  [[nodiscard]] const WormholeParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t messages_injected() const { return next_message_; }
  [[nodiscard]] std::uint64_t messages_completed() const { return messages_completed_; }
  [[nodiscard]] std::uint32_t active_worms() const { return active_worms_; }
  [[nodiscard]] bool idle() const { return active_worms_ == 0; }
  [[nodiscard]] const ChannelPool& pool() const { return pool_; }

  /// Total channel-hold time accumulated over all physical channels (s).
  [[nodiscard]] double channel_busy_time() const { return busy_time_; }
  /// Total time finished worms spent blocked waiting for channels -- the
  /// "blocking time" component of communication latency (Section 2.2).
  [[nodiscard]] double total_blocked_time() const { return blocked_time_total_; }
  /// Mean utilisation of the physical channels over [0, now].
  [[nodiscard]] double utilization() const;

  /// Worm ids forming a deadlock cycle in the wait-for graph (worm ->
  /// holders of the channels it waits on); empty when deadlock-free.
  [[nodiscard]] std::vector<std::uint32_t> find_deadlock() const;

  /// Human-readable description of a blocked worm (for the deadlock demo).
  [[nodiscard]] std::string describe_worm(std::uint32_t worm_id) const;

 private:
  static constexpr std::uint8_t kNotGranted = 0xFF;

  /// A planned link and the physical copy granted to it.
  struct Link {
    ChannelId channel = topo::kInvalidChannel;
    std::uint32_t depth = 1;
    std::int8_t copy = kAnyCopy;
    std::uint8_t granted = kNotGranted;
  };

  struct Worm {
    std::uint64_t message = 0;
    double t_created = 0.0;
    std::vector<Link> links;  // depth-sorted; the frontier is a run of them
    std::vector<Delivery> deliveries;
    std::uint32_t progress = 0;
    std::uint32_t max_depth = 0;
    std::uint32_t frontier_begin = 0;
    std::uint32_t frontier_end = 0;
    std::uint32_t granted = 0;
    std::uint32_t next_delivery = 0;
    std::uint32_t next_release = 0;  // first link not yet released
    double block_started = -1.0;     // time the current blocked wait began
    double blocked_time = 0.0;       // accumulated blocking (Sec. 2.2's term)
    /// The worm's single outstanding kernel event (an advance or a
    /// drain_step); null while blocked.  kill_worm cancels it outright --
    /// no stale closure ever fires for a retired incarnation.
    evsim::EventId pending;
    double drain_t0 = 0.0;  // absolute base time of the drain milestones
    bool active = false;

    [[nodiscard]] bool blocked() const {
      return active && frontier_end > frontier_begin && granted < frontier_end - frontier_begin;
    }
  };

  struct Message {
    double t_created = 0.0;
    std::uint32_t worms_left = 0;
  };

  [[nodiscard]] std::size_t phys_index(ChannelId c, std::uint8_t copy) const {
    return static_cast<std::size_t>(c) * params_.channel_copies + copy;
  }
  void note_grant(ChannelId c, std::uint8_t copy);
  void note_release(ChannelId c, std::uint8_t copy);

  /// Reset a slot whose links/deliveries were just filled in place (their
  /// capacity is kept across incarnations): derive max_depth and zero the
  /// progress state.
  void init_worm(Worm& w, std::uint64_t message, double t_created);
  /// One past the last link of `w` at depth <= `depth`, scanning from
  /// `from` (links are depth-sorted).
  [[nodiscard]] static std::uint32_t depth_end(const Worm& w, std::uint32_t from,
                                               std::uint32_t depth);
  void begin_frontier(std::uint32_t worm_id);
  void vct_absorb(std::uint32_t worm_id);
  std::uint32_t allocate_worm();
  void on_grant(std::uint32_t worm_id, std::uint32_t link_index, std::uint8_t copy);
  /// Arm the worm's single pending event: one flit time to the next hop.
  void arm_advance(std::uint32_t worm_id);
  void advance(std::uint32_t worm_id);
  /// Enter the completion drain: from here the worm is driven by one
  /// self-rearming drain_step event that folds every same-time delivery
  /// and tail release into a single kernel dispatch (the old code armed
  /// one event per delivery, per link and for the finish).
  void drain(std::uint32_t worm_id);
  /// Schedule drain_step at the earliest not-yet-fired drain milestone.
  /// Milestones are absolute times off drain_t0 (delivery at depth d:
  /// (d + L - 1 - p) flit times; release of the link at depth d:
  /// (d + L - p); finish: L), computed with the exact same expressions the
  /// per-event code used, so dispatch timestamps stay bit-identical.
  void arm_drain(std::uint32_t worm_id);
  void drain_step(std::uint32_t worm_id);
  void release_link(Worm& w, std::uint32_t link_index);
  void finish_worm(std::uint32_t worm_id);
  /// Kill an active worm: cancel its pending kernel event, cancel its
  /// waits, release its holds, drop its undelivered destinations, retire
  /// the slot.
  void kill_worm(std::uint32_t worm_id);
  /// Kill every worm holding or waiting on channel `c`.
  void kill_channel_users(ChannelId c);

  /// Registry instruments bound once in set_metrics(); all-null when
  /// metrics are disabled (`active()` is the single hot-path check).
  struct Metrics {
    obs::Counter* injections = nullptr;
    obs::Counter* deliveries = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* worms_killed = nullptr;
    obs::Histogram* delivery_latency_s = nullptr;
    obs::Histogram* grant_wait_s = nullptr;
    obs::Histogram* channel_hold_s = nullptr;
    obs::Gauge* channel_busy_time_s = nullptr;

    [[nodiscard]] bool active() const { return injections != nullptr; }
  };

  const topo::Topology* topology_;
  WormholeParams params_;
  evsim::Scheduler* sched_;
  ChannelPool pool_;
  std::shared_ptr<fault::FaultState> faults_;
  NetworkHooks hooks_;
  Metrics metrics_;

  std::vector<Worm> worms_;
  /// Incarnation counter per worm slot.  Events are cancelled for real via
  /// Worm::pending, but the counter still guards (a) victim snapshots in
  /// kill_channel_users / abort_message and (b) hook callouts inside
  /// advance / drain_step: a hook may kill this very worm and reuse its
  /// slot, so the loops re-check the generation after every callout.
  std::vector<std::uint64_t> worm_gen_;
  std::vector<std::uint32_t> free_worm_slots_;
  std::vector<Message> messages_;  // indexed by message id
  std::uint64_t next_message_ = 0;
  std::uint64_t messages_completed_ = 0;
  std::uint64_t worms_killed_ = 0;
  std::uint64_t deliveries_dropped_ = 0;
  std::uint32_t active_worms_ = 0;
  double busy_time_ = 0.0;
  double blocked_time_total_ = 0.0;
  std::vector<double> acquired_at_;  // per physical channel copy
};

}  // namespace mcnet::worm
