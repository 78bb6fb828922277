#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "obs/hooks.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace mvpn::obs {
class FlowStatsTable;
class LatencyCollector;
}  // namespace mvpn::obs

namespace mvpn::net {

class ShardRuntime;

/// Non-owning view of a sharded runtime, installed on the Topology while a
/// parallel run is active. Vectors indexed by shard id; `node_shard` maps
/// every NodeId to its owning shard. Installed/uninstalled only while the
/// simulation is quiescent (no lane running).
struct ShardBinding {
  std::vector<std::uint32_t> node_shard;
  std::vector<sim::Scheduler*> schedulers;
  std::vector<PacketFactory*> factories;
  std::vector<obs::FlightRecorder*> recorders;
  std::vector<obs::LatencyCollector*> collectors;
  std::vector<obs::FlowStatsTable*> flow_stats;
};

/// Adjacency record used by control-plane code (flooding, SPF).
struct Adjacency {
  ip::NodeId neighbor = ip::kInvalidNode;
  ip::IfIndex iface = ip::kInvalidIf;
  LinkId link = kInvalidLink;
};

/// Owns every node and link of one simulated network plus the event
/// scheduler driving it. All object lifetimes are anchored here; nodes and
/// links hold references back to the topology for delivery.
class Topology {
 public:
  explicit Topology(std::uint64_t seed = 1);

  /// Construct a node of type NodeT (must derive from Node); forwards
  /// extra constructor arguments after (topo, id, name).
  template <typename NodeT, typename... Args>
  NodeT& add_node(std::string name, Args&&... args) {
    const auto id = static_cast<ip::NodeId>(nodes_.size());
    auto node = std::make_unique<NodeT>(*this, id, std::move(name),
                                        std::forward<Args>(args)...);
    NodeT& ref = *node;
    nodes_.push_back(std::move(node));
    return ref;
  }

  /// Create a duplex link between `a` and `b`; allocates an interface on
  /// each node and auto-assigns a /30 transfer subnet.
  LinkId connect(ip::NodeId a, ip::NodeId b, LinkConfig config = {});

  [[nodiscard]] Node& node(ip::NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(ip::NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] Link& link(LinkId id) { return *links_.at(id); }
  [[nodiscard]] const Link& link(LinkId id) const { return *links_.at(id); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }

  /// Links incident to `node` that are administratively up.
  [[nodiscard]] std::vector<Adjacency> adjacencies(ip::NodeId node) const;
  /// Call `fn(const Adjacency&)` for each link `adjacencies(node)` would
  /// list, in the same order, without building the vector.
  template <typename F>
  void for_each_adjacency(ip::NodeId node_id, F&& fn) const {
    for (const Interface& intf : node(node_id).interfaces()) {
      if (intf.link == kInvalidLink || !link(intf.link).up()) continue;
      fn(Adjacency{intf.peer, intf.index, intf.link});
    }
  }

  /// Deliver `p` to `to`'s receive() — called by links after propagation.
  void deliver(ip::NodeId to, ip::IfIndex in_if, PacketPtr p);

  /// Burst variant: deliver every packet in `burst` (same destination and
  /// ingress interface — they arrived on the same link direction at the
  /// same instant) preserving per-packet order and semantics, but hoisting
  /// the node lookup, tap-list test and trace-enabled test out of the
  /// loop. Consumes and clears `burst` so callers can reuse the buffer.
  void deliver_burst(ip::NodeId to, ip::IfIndex in_if, DeliveryBurst& burst);

  /// Observation hooks invoked on every delivery (before receive()): let
  /// tests and tracing tools watch a packet's header stack hop by hop.
  /// Multiple observers coexist — each add returns a handle that removes
  /// only that observer, so trace_route, OAM and user taps never clobber
  /// one another.
  using PacketTap = std::function<void(ip::NodeId at, const Packet& p)>;
  using TapId = obs::HookList<ip::NodeId, const Packet&>::Id;
  TapId add_packet_tap(PacketTap tap) { return taps_.add(std::move(tap)); }
  bool remove_packet_tap(TapId id) { return taps_.remove(id); }
  [[nodiscard]] std::size_t packet_tap_count() const noexcept {
    return taps_.size();
  }

  /// Optional per-hop delay-decomposition sink. Null (the default) keeps
  /// the data plane's stamping cost at one pointer test per stamp; when
  /// set, links and routers feed queue/tx/prop/processing intervals to it.
  /// The collector must outlive the traffic that feeds it.
  void set_latency_collector(obs::LatencyCollector* collector) noexcept {
    latency_collector_ = collector;
  }
  [[nodiscard]] obs::LatencyCollector* latency_collector() const noexcept {
    if (shards_ != nullptr) [[unlikely]] {
      const std::uint32_t s = sim::current_shard();
      if (s != sim::kNoShard && !shards_->collectors.empty()) {
        return shards_->collectors[s];
      }
    }
    return latency_collector_;
  }

  /// Optional per-flow accounting table (INTERNALS.md §13). Null (the
  /// default) keeps the data plane at one pointer test per hook. Setting it
  /// also repoints every link queue's drop funnel at the table; a sharded
  /// run overrides per worker via ShardBinding::flow_stats, exactly like
  /// the latency collector.
  void set_flow_stats(obs::FlowStatsTable* table) noexcept;
  [[nodiscard]] obs::FlowStatsTable* flow_stats() const noexcept {
    if (shards_ != nullptr) [[unlikely]] {
      const std::uint32_t s = sim::current_shard();
      if (s != sim::kNoShard && !shards_->flow_stats.empty()) {
        return shards_->flow_stats[s];
      }
    }
    return flow_stats_;
  }

  /// Simulator-wide flight recorder (disabled until enable()d). Under a
  /// sharded run, code executing on a shard worker (sim::current_shard())
  /// resolves to that shard's recorder; everything else — and every serial
  /// run — resolves to the base recorder. Same contract for scheduler(),
  /// packet_factory() and latency_collector(): the ambient accessors
  /// answer for "the shard I am running on", which is what data-plane code
  /// means, while the serial path pays one null test.
  [[nodiscard]] obs::FlightRecorder& recorder() noexcept {
    if (shards_ != nullptr) [[unlikely]] {
      const std::uint32_t s = sim::current_shard();
      if (s != sim::kNoShard) return *shards_->recorders[s];
    }
    return recorder_;
  }
  [[nodiscard]] const obs::FlightRecorder& recorder() const noexcept {
    if (shards_ != nullptr) [[unlikely]] {
      const std::uint32_t s = sim::current_shard();
      if (s != sim::kNoShard) return *shards_->recorders[s];
    }
    return recorder_;
  }

  [[nodiscard]] sim::Scheduler& scheduler() noexcept {
    if (shards_ != nullptr) [[unlikely]] {
      const std::uint32_t s = sim::current_shard();
      if (s != sim::kNoShard) return *shards_->schedulers[s];
    }
    return scheduler_;
  }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] PacketFactory& packet_factory() noexcept {
    if (shards_ != nullptr) [[unlikely]] {
      const std::uint32_t s = sim::current_shard();
      if (s != sim::kNoShard) return *shards_->factories[s];
    }
    return factory_;
  }

  /// Shard-blind accessors for coordinator-side code that must address the
  /// serial objects regardless of the calling thread.
  [[nodiscard]] sim::Scheduler& base_scheduler() noexcept { return scheduler_; }
  [[nodiscard]] obs::FlightRecorder& base_recorder() noexcept {
    return recorder_;
  }

  /// The scheduler of the lane that owns `n`: its shard's under a sharded
  /// run, else the topology's own. For coordinator-side code that arms
  /// events on a node's lane from outside any shard.
  [[nodiscard]] sim::Scheduler& scheduler_of(ip::NodeId n) noexcept {
    const std::uint32_t s = shard_of(n);
    return s == sim::kNoShard ? scheduler_ : *shards_->schedulers[s];
  }

  /// Owning shard of `n`, or sim::kNoShard when no sharding is installed.
  [[nodiscard]] std::uint32_t shard_of(ip::NodeId n) const noexcept {
    if (shards_ == nullptr || n >= shards_->node_shard.size()) {
      return sim::kNoShard;
    }
    return shards_->node_shard[n];
  }

  /// Install/remove the sharded runtime view. Only while quiescent.
  void install_sharding(const ShardBinding* binding,
                        ShardRuntime* runtime) noexcept {
    shards_ = binding;
    shard_runtime_ = runtime;
  }
  void uninstall_sharding() noexcept {
    shards_ = nullptr;
    shard_runtime_ = nullptr;
  }
  [[nodiscard]] ShardRuntime* shard_runtime() const noexcept {
    return shard_runtime_;
  }

  /// Run the simulation until `t_end` (serial driver).
  void run_until(sim::SimTime t_end) { scheduler_.run_until(t_end); }

 private:
  std::uint64_t seed_;
  // Declaration order is a lifetime contract: the packet factory's pool
  // must outlive everything that can still hold a PacketPtr at teardown —
  // pending scheduler events, link queues, node buffers — so it is
  // declared first (destroyed last).
  PacketFactory factory_;
  sim::Scheduler scheduler_;
  obs::FlightRecorder recorder_{&scheduler_};
  sim::Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  obs::HookList<ip::NodeId, const Packet&> taps_;
  obs::LatencyCollector* latency_collector_ = nullptr;
  obs::FlowStatsTable* flow_stats_ = nullptr;
  const ShardBinding* shards_ = nullptr;
  ShardRuntime* shard_runtime_ = nullptr;
  std::uint32_t next_transfer_net_ = 0;  // allocator for /30 link subnets
};

}  // namespace mvpn::net
