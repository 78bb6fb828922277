#include "net/topology.hpp"

namespace mvpn::net {

Topology::Topology(std::uint64_t seed) : seed_(seed), rng_(seed) {}

LinkId Topology::connect(ip::NodeId a, ip::NodeId b, LinkConfig config) {
  if (a == b) throw std::invalid_argument("Topology::connect: self-link");
  Node& node_a = node(a);
  Node& node_b = node(b);

  const auto link_id = static_cast<LinkId>(links_.size());
  const ip::IfIndex if_a = node_a.attach_interface(link_id, b);
  const ip::IfIndex if_b = node_b.attach_interface(link_id, a);

  // Auto-assign a /30 transfer net from 172.16.0.0/12-style space.
  const std::uint32_t base =
      (std::uint32_t{172} << 24) | (std::uint32_t{16} << 16) |
      (next_transfer_net_ << 2);
  ++next_transfer_net_;
  const ip::Prefix subnet(ip::Ipv4Address(base), 30);
  node_a.interface(if_a).address = ip::Ipv4Address(base + 1);
  node_a.interface(if_a).subnet = subnet;
  node_b.interface(if_b).address = ip::Ipv4Address(base + 2);
  node_b.interface(if_b).subnet = subnet;

  links_.push_back(std::make_unique<Link>(
      *this, link_id, Link::Endpoint{a, if_a}, Link::Endpoint{b, if_b},
      config));
  return link_id;
}

void Topology::set_flow_stats(obs::FlowStatsTable* table) noexcept {
  flow_stats_ = table;
  for (const auto& l : links_) {
    l->queue_from(l->end_a().node).set_flow_stats(table);
    l->queue_from(l->end_b().node).set_flow_stats(table);
  }
}

std::vector<Adjacency> Topology::adjacencies(ip::NodeId node_id) const {
  std::vector<Adjacency> out;
  for_each_adjacency(node_id,
                     [&out](const Adjacency& adj) { out.push_back(adj); });
  return out;
}

void Topology::deliver(ip::NodeId to, ip::IfIndex in_if, PacketPtr p) {
  Node& n = node(to);
  if (!taps_.empty()) taps_.invoke(to, *p);
  // recorder() (not recorder_): under a sharded run this resolves to the
  // delivering shard's recorder, whose clock is that shard's scheduler.
  obs::FlightRecorder& rec = recorder();
  if (rec.enabled(obs::Category::kLink)) {
    rec.record({.packet_id = p->id,
                .node = to,
                .a = in_if,
                .bytes = static_cast<std::uint32_t>(p->wire_size()),
                .type = obs::EventType::kDeliver,
                .cls = p->trace_class()});
  }
  n.count_rx(*p, in_if);
  n.receive(std::move(p), in_if);
}

void Topology::deliver_burst(ip::NodeId to, ip::IfIndex in_if,
                             DeliveryBurst& burst) {
  Node& n = node(to);
  const bool tapped = !taps_.empty();
  obs::FlightRecorder& rec = recorder();
  const bool traced = rec.enabled(obs::Category::kLink);
  for (PacketPtr& slot : burst) {
    PacketPtr p = std::move(slot);
    if (tapped) taps_.invoke(to, *p);
    if (traced) {
      rec.record({.packet_id = p->id,
                  .node = to,
                  .a = in_if,
                  .bytes = static_cast<std::uint32_t>(p->wire_size()),
                  .type = obs::EventType::kDeliver,
                  .cls = p->trace_class()});
    }
    n.count_rx(*p, in_if);
    n.receive(std::move(p), in_if);
  }
  burst.clear();
}

}  // namespace mvpn::net
