#include "routing/control_plane.hpp"

namespace mvpn::routing {

ControlPlane::ControlPlane(net::Topology& topo) : topo_(topo) {}

void ControlPlane::count(std::string_view type, std::size_t bytes) {
  auto it = counts_.find(type);
  if (it == counts_.end()) {
    it = counts_.emplace(std::string(type), Counts::mapped_type{}).first;
  }
  ++it->second.first;
  it->second.second += bytes;
  ++total_messages_;
  total_bytes_ += bytes;
}

bool ControlPlane::send_adjacent(ip::NodeId from, ip::NodeId to,
                                 std::string_view type, std::size_t bytes,
                                 sim::InlineCallable deliver) {
  const net::Node& sender = topo_.node(from);
  const ip::IfIndex iface = sender.interface_to(to);
  if (iface == ip::kInvalidIf) return false;
  const net::Link& link = topo_.link(sender.interface(iface).link);
  if (!link.up()) return false;

  count(type, bytes);
  topo_.scheduler().schedule_in(link.config().prop_delay + processing_delay_,
                                std::move(deliver));
  return true;
}

void ControlPlane::send_session(ip::NodeId from, ip::NodeId to,
                                std::string_view type, std::size_t bytes,
                                sim::InlineCallable deliver) {
  (void)from;
  (void)to;
  count(type, bytes);
  topo_.scheduler().schedule_in(session_delay_ + processing_delay_,
                                std::move(deliver));
}

std::uint64_t ControlPlane::message_count(std::string_view type) const {
  auto it = counts_.find(type);
  return it == counts_.end() ? 0 : it->second.first;
}

std::uint64_t ControlPlane::byte_count(std::string_view type) const {
  auto it = counts_.find(type);
  return it == counts_.end() ? 0 : it->second.second;
}

void ControlPlane::reset_counters() {
  counts_.clear();
  total_messages_ = 0;
  total_bytes_ = 0;
}

}  // namespace mvpn::routing
